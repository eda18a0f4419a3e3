"""Monte Carlo replication engine and benchmark experiment definitions.

Data generation (Gaussian and unit-variance Student-t), deterministic
counter-based seeding per replication, the scoring of every estimator row
from the eigendecomposition of S, and the named benchmark experiments at
desk scale. Replications are embarrassingly parallel; each owns its own
random substream keyed by (seed, p, replication), so results are identical
for any thread count.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericError
from .estimators import (
    EV_ORACLE,
    OLSE_COV_INV,
    OLSE_PRECISION,
    OLSE_PRECISION_ORACLE,
    SAMPLE_INV,
    SAMPLE_PINV,
    ShrinkageWeights,
    TargetMatrix,
    domain_error,
    optimal_weights_from_functionals,
    plug_in_weights,
)
from .linalg import (
    DataMatrix,
    SampleStats,
    frobenius_sq,
    require_nonsingular,
    sample_covariance,
    symmetric_inverse,
    trace_product,
    use_single_threaded_blas,
)
from .metrics import PrialReport, ResultRow, prial
from .spectral import CovarianceModel, SpectrumSpec, build_covariance

GAUSSIAN = "gaussian"
STUDENT_T = "student_t"

TARGET_IDENTITY = "identity_over_p"
TARGET_TRUE_PRECISION = "true_precision"
TARGET_COV_SPECTRUM = "cov_spectrum"
TARGET_PRECISION_SPECTRUM = "precision_spectrum"
_SPECTRUM_KINDS = (TARGET_COV_SPECTRUM, TARGET_PRECISION_SPECTRUM)


@dataclass(frozen=True)
class DistributionSpec:
    """Entry distribution for the latent i.i.d. matrix (mean 0, variance 1)."""

    kind: str
    degrees_of_freedom: float | None = None
    allow_low_df: bool = False

    def __post_init__(self):
        if self.kind == GAUSSIAN:
            if self.degrees_of_freedom is not None:
                raise ValueError("gaussian distribution takes no degrees of freedom")
            return
        if self.kind != STUDENT_T:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        df = self.degrees_of_freedom
        if df is None:
            raise ValueError("student_t requires degrees_of_freedom")
        if not np.isfinite(df):
            raise ValueError(f"student_t degrees_of_freedom must be finite, got {df}")
        if df <= 2.0:
            raise ValueError("student_t needs df > 2 for the variance to exist")
        if df <= 4.0 and not self.allow_low_df:
            raise ValueError(
                "student_t with df <= 4 violates the fourth-moment assumption; "
                "pass allow_low_df=True for exploratory runs"
            )

    @property
    def label(self) -> str:
        if self.kind == GAUSSIAN:
            return GAUSSIAN
        return f"student_t(df={self.degrees_of_freedom:g})"


@dataclass(frozen=True)
class TargetSpec:
    """Named shrinkage-target recipe, resolved to matrices at each p.

    A ``cov_spectrum`` target carries a prior covariance spectrum: the
    precision target is its inverse, while the covariance estimator uses it
    directly. A ``precision_spectrum`` target is the reverse.
    """

    name: str
    kind: str
    spectrum: SpectrumSpec | None = None

    def __post_init__(self):
        if self.kind not in (TARGET_IDENTITY, TARGET_TRUE_PRECISION, *_SPECTRUM_KINDS):
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.kind in _SPECTRUM_KINDS and self.spectrum is None:
            raise ValueError(f"{self.kind} target needs a spectrum")

    @classmethod
    def identity_over_p(cls) -> "TargetSpec":
        return cls(name=TARGET_IDENTITY, kind=TARGET_IDENTITY)

    @classmethod
    def true_precision(cls) -> "TargetSpec":
        return cls(name=TARGET_TRUE_PRECISION, kind=TARGET_TRUE_PRECISION)

    @classmethod
    def from_cov_spectrum(cls, name: str, spec: SpectrumSpec) -> "TargetSpec":
        return cls(name=name, kind=TARGET_COV_SPECTRUM, spectrum=spec)

    def resolve(self, p: int, truth: CovarianceModel | None = None
                ) -> tuple[TargetMatrix, TargetMatrix]:
        """The (precision, covariance) target pair at dimension ``p``. Only
        ``true_precision`` reads ``truth``; it stores ``truth.inverse_eigenvalues``
        itself, so a grid point's ``W' pi`` serves it."""
        if self.kind == TARGET_IDENTITY:
            identity = TargetMatrix.identity_over_p(p)
            return identity, identity
        if self.kind == TARGET_TRUE_PRECISION:
            if truth is None:
                raise ConfigError("target 'true_precision' needs the true covariance, "
                                  "which estimate does not have")
            return (TargetMatrix.from_diagonal(truth.inverse_eigenvalues),
                    TargetMatrix.from_diagonal(truth.eigenvalues))
        precision, cov = TargetMatrix.inverse_of_spectrum, TargetMatrix.from_spectrum
        if self.kind == TARGET_PRECISION_SPECTRUM:
            precision, cov = cov, precision
        return precision(self.spectrum, p), cov(self.spectrum, p)


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    spectrum: SpectrumSpec
    targets: tuple[TargetSpec, ...]
    ratio: float
    p_grid: tuple[int, ...]
    distribution: DistributionSpec
    replications: int
    seed: int
    estimators: tuple[str, ...]
    clamp: bool = False
    center: bool = False

    def __post_init__(self):
        if not np.isfinite(self.ratio) or self.ratio <= 0.0:
            raise ValueError(f"ratio must be finite and positive, got {self.ratio}")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.replications > sys.maxsize:
            raise ValueError(f"replications must be at most {sys.maxsize}")
        if not self.p_grid:
            raise ValueError("p_grid must not be empty")
        for p in self.p_grid:
            if not (abs(p) <= 1e308 and math.isfinite(p / self.ratio)):
                raise ValueError(f"p={p} with ratio={self.ratio} gives n beyond the float range")
            if p < 1:
                raise ValueError(f"p must be at least 1, got {p}")
            if grid_sample_size(p, self.ratio) < 2:
                raise ValueError(f"p={p} with ratio={self.ratio} gives n < 2")
        unknown = set(self.estimators) - _ESTIMATORS.keys()
        if unknown:
            raise ValueError(f"unknown estimator ids: {sorted(unknown)}")
        target_names = [spec.name for spec in self.targets]
        for what, names in (("p values", self.p_grid), ("estimator ids", self.estimators),
                            ("target names", target_names)):
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise ValueError(f"duplicate {what}: {repeated}")
        targeted = {kind for kind in self.estimators if kind in _TARGETED}
        if targeted and not self.targets:
            raise ValueError(f"estimators {sorted(targeted)} need at least one target spec")
        if int(self.seed) < 0:
            raise ValueError("seed must be a nonnegative integer")


def grid_sample_size(p: int, ratio: float) -> int:
    return int(round(p / ratio))


@dataclass(frozen=True)
class ReplicationResult:
    """Losses and shrinkage weights recorded for one replication."""

    index: int
    losses: dict[str, float]
    weights: dict[str, ShrinkageWeights] = field(default_factory=dict)

    def __post_init__(self):
        for key, value in self.losses.items():
            if not np.isfinite(value) or value < 0.0:
                raise NumericError(f"loss for {key!r} must be finite and nonnegative, got {value!r}")


def replication_rng(seed: int, p: int, replication: int) -> np.random.Generator:
    """Independent counter-based stream for one (seed, p, replication) cell."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, p, replication))))


def generate_data(
    truth: CovarianceModel, n: int, dist: DistributionSpec, rng: np.random.Generator
) -> DataMatrix:
    """Draw Y = sqrt(Sigma) X with X i.i.d. mean zero, variance one.

    Sigma is diagonal, so sqrt(Sigma) X scales row i of X by sqrt(tau_i).

    Student-t draws are rescaled by sqrt((df-2)/df) so the unit-variance
    contract holds for every distribution.
    """
    p = truth.p
    if dist.kind == GAUSSIAN:
        x = rng.standard_normal((p, n))
    else:
        df = dist.degrees_of_freedom
        x = rng.standard_t(df, size=(p, n)) * np.sqrt((df - 2.0) / df)
    x *= np.sqrt(truth.eigenvalues)[:, None]
    return DataMatrix(x)


class _Spectra:
    """One replication's sample spectrum and the functionals its rows share.

    Sigma and every target in ``simulate`` are diagonal, so every estimate a
    row scores is ``U diag(e) U' + diag(beta t)``, where ``S = U diag(lam) U'``.
    With ``pi = 1 / tau``, ``delta = beta t - pi``, ``W = U * U`` (elementwise;
    its rows and columns sum to 1) and ``dd = W' delta``, the Frobenius loss
    against ``diag(pi)`` is the sum of squares

        ||e + dd||^2 + sum_ij W_ij (delta_i - dd_j)^2,

    which is never negative and keeps its accuracy when the estimate is close
    to the truth. Weights come from the same functionals: ``||inv(S)||^2 =
    iv . iv`` and ``tr(inv(S) T) = iv . (W' t)`` with ``iv`` the inverse
    eigenvalues. So a row needs no ``p x p`` estimate and no dense inverse;
    only a covariance target that is not a multiple of the identity forms
    and inverts ``alpha S + beta diag(c)``.

    ``targets`` lists the distinct precision-target vectors of the plan, with
    ``pi`` itself; ``W' t`` is computed once per vector and looked up by
    identity, so the true-precision target reuses ``W' pi`` exactly.
    """

    def __init__(self, stats: SampleStats, pi: np.ndarray, targets: list[np.ndarray],
                 clamp: bool):
        self.stats = stats
        self.clamp = clamp
        self.pi = pi
        self.iv = stats.inverse_eigenvalues
        self.w = np.square(stats.eigenvectors, order="C")
        rotated = np.stack(targets) @ self.w
        self.rotated = {id(t): d for t, d in zip(targets, rotated)}
        self.d_pi = self.rotated[id(pi)]
        # Every baseline row reads it, and a lazy property would lock across threads.
        self.truth_spread = self._spread(pi, self.d_pi)

    def _spread(self, delta: np.ndarray, dd: np.ndarray) -> float:
        """sum_ij W_ij (delta_i - dd_j)^2."""
        gap = np.subtract.outer(delta, dd)
        gap *= gap
        return float(self.w.ravel() @ gap.ravel())

    def _truth_loss(self, e: np.ndarray) -> float:
        """Loss of ``U diag(e) U'``, an estimate with no target part."""
        head = e - self.d_pi
        return float(head @ head) + self.truth_spread

    def _shrinkage_loss(self, alpha: float, beta: float, t: np.ndarray) -> float:
        """Loss of ``alpha inv(S) + beta diag(t)``."""
        dd = beta * self.rotated[id(t)] - self.d_pi
        head = alpha * self.iv + dd
        return float(head @ head) + self._spread(beta * t - self.pi, dd)

    def sample_inverse(self, row):
        return self._truth_loss(self.iv), None

    def ev_oracle(self, row):
        # diag(U' inv(Sigma) U) on every column, null space included.
        return self._truth_loss(self.d_pi), None

    def bona_fide(self, row):
        target, stats = row.precision_target, self.stats
        t = target.diagonal
        weights = plug_in_weights(
            stats.inverse_frobenius_sq, target.frobenius_sq, float(self.iv @ self.rotated[id(t)]),
            stats.inverse_trace_norm, stats.n, 1.0 - stats.ratio, self.clamp)
        return self._shrinkage_loss(*weights, t), weights

    def oracle_olse(self, row):
        target = row.precision_target
        t = target.diagonal
        weights = optimal_weights_from_functionals(
            float(self.iv @ self.d_pi), trace_product(self.pi, t),
            float(self.iv @ self.rotated[id(t)]), self.stats.inverse_frobenius_sq,
            target.frobenius_sq)
        return self._shrinkage_loss(*weights, t), weights

    def covariance_inverse(self, row):
        target, stats = row.covariance_target, self.stats
        c, lam = target.diagonal, stats.eigenvalues
        weights = plug_in_weights(frobenius_sq(lam), target.frobenius_sq,
                                  trace_product(np.diagonal(stats.matrix), c),
                                  float(np.trace(stats.matrix)), stats.n, 1.0)
        if np.ptp(c) == 0.0:  # alpha S + beta c0 I shares the eigenvectors of S
            shrunk = weights.alpha * lam + weights.beta * c[0]
            if not np.all(shrunk > 0.0):
                require_nonsingular(shrunk)
            return self._truth_loss(1.0 / shrunk), weights
        sigma_hat = weights.alpha * stats.matrix
        sigma_hat[np.diag_indices_from(sigma_hat)] += weights.beta * c
        error = symmetric_inverse(sigma_hat)
        error[np.diag_indices_from(error)] -= self.pi
        return float(error.ravel() @ error.ravel()), weights


# Each id's scorer, a :class:`_Spectra` method ``(spectra, row) -> (loss, ShrinkageWeights |
# None)``: it scores the row from the replication's shared spectral work, with the weights
# of the matching dense estimator function and the loss ``frobenius_loss`` would give that
# function's estimate. The ids in ``_TARGETED`` get one row per target and report weights.
_ESTIMATORS = {
    SAMPLE_INV: _Spectra.sample_inverse,
    SAMPLE_PINV: _Spectra.sample_inverse,
    OLSE_PRECISION: _Spectra.bona_fide,
    OLSE_PRECISION_ORACLE: _Spectra.oracle_olse,
    OLSE_COV_INV: _Spectra.covariance_inverse,
    EV_ORACLE: _Spectra.ev_oracle,
}
_TARGETED = (OLSE_PRECISION, OLSE_PRECISION_ORACLE, OLSE_COV_INV)


@dataclass(frozen=True)
class _PlannedEstimator:
    """One output row of a grid point; ``skip_reason`` is None when it runs.
    A targeted row carries its diagonal (precision, covariance) target pair."""

    row_id: str
    score: Callable[..., tuple[float, ShrinkageWeights | None]]
    skip_reason: str | None
    precision_target: TargetMatrix | None = None
    covariance_target: TargetMatrix | None = None


def _plan_estimators(
    config: ExperimentConfig, n: int, truth: CovarianceModel, baseline_id: str
) -> list[_PlannedEstimator]:
    """Expand estimator ids x targets into rows, in output order.

    The baseline is always planned, first when it was not requested. An id
    outside its domain gets the text of its ``domain_error`` as skip reason
    instead of an error, so one bad estimator does not kill a whole run.
    """
    p = truth.p
    kinds = list(config.estimators)
    if baseline_id not in kinds:
        kinds.insert(0, baseline_id)
    resolved = [(spec, *spec.resolve(p, truth)) for spec in config.targets]
    plan: list[_PlannedEstimator] = []
    for kind in kinds:
        score, error = _ESTIMATORS[kind], domain_error(kind, p, n)
        reason = None if error is None else str(error)
        if kind in _TARGETED:
            plan += [_PlannedEstimator(f"{kind}[{spec.name}]", score, reason, *targets)
                     for spec, *targets in resolved]
        else:
            plan.append(_PlannedEstimator(kind, score, reason))
    return plan


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has
    one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_grid_point(
    config: ExperimentConfig, p: int, threads: int = 1
) -> tuple[PrialReport, list[ReplicationResult]]:
    """Run all replications for one dimension p and aggregate them.

    Replications run on ``min(threads, usable_cpus(), replications)`` worker
    threads. The call first sets BLAS to one thread for the rest of the
    process (see :func:`~precshrink.linalg.use_single_threaded_blas`), so the
    results do not depend on the BLAS thread setting or the core count.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    use_single_threaded_blas()
    n = grid_sample_size(p, config.ratio)
    truth = build_covariance(config.spectrum, p)
    pi = truth.inverse_eigenvalues
    baseline_id = SAMPLE_INV if domain_error(SAMPLE_INV, p, n) is None else SAMPLE_PINV
    plan = _plan_estimators(config, n, truth, baseline_id)
    runnable = [row for row in plan if row.skip_reason is None]
    targets = list({id(t): t for t in [pi] + [row.precision_target.diagonal for row in runnable
                                              if row.precision_target is not None]}.values())

    def one_replication(r: int) -> ReplicationResult:
        rng = replication_rng(config.seed, p, r)
        data = generate_data(truth, n, config.distribution, rng)
        spectra = _Spectra(sample_covariance(data, center=config.center), pi, targets,
                           config.clamp)
        losses: dict[str, float] = {}
        weights: dict[str, ShrinkageWeights] = {}
        for planned in runnable:
            loss, pair = planned.score(spectra, planned)
            losses[planned.row_id] = loss
            if pair is not None:
                weights[planned.row_id] = pair
        return ReplicationResult(index=r, losses=losses, weights=weights)

    with ThreadPoolExecutor(max_workers=min(threads, usable_cpus(), config.replications)) as pool:
        results = list(pool.map(one_replication, range(config.replications)))

    # Ordered reductions over replications, so the thread count never matters.
    def mean(values) -> float:
        return float(np.mean(np.array(values)))

    baseline_mean = mean([res.losses[baseline_id] for res in results])
    rows = []
    for row in plan:
        mean_loss = prial_percent = mean_alpha = mean_beta = math.nan
        replications, status = 0, f"skipped: {row.skip_reason}"
        if row.skip_reason is None:
            replications, status = len(results), "ok"
            mean_loss = mean([res.losses[row.row_id] for res in results])
            prial_percent = prial(mean_loss, baseline_mean)
            if row.precision_target is not None:
                mean_alpha = mean([res.weights[row.row_id].alpha for res in results])
                mean_beta = mean([res.weights[row.row_id].beta for res in results])
        rows.append(ResultRow(config.name, p, n, config.ratio, config.distribution.label,
                              row.row_id, mean_loss, prial_percent, mean_alpha, mean_beta,
                              replications, config.seed, status))
    return PrialReport(p, n, baseline_id, tuple(rows)), results


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[PrialReport]:
    """Run the full p grid of an experiment; one PrialReport per grid point."""
    return [run_grid_point(config, p, threads=threads)[0] for p in config.p_grid]


THREE_BLOCK = SpectrumSpec(((0.2, 1.0), (0.4, 3.0), (0.4, 10.0)))

PRIOR_SPECTRA = {
    "prior1": SpectrumSpec(((0.2, 1.0), (0.4, 5.0), (0.4, 10.0))),
    "prior2": SpectrumSpec(((0.2, 1.0), (0.4, 2.0), (0.4, 4.0))),
    "prior3": SpectrumSpec(((0.2, 1.0), (0.4, 2.0), (0.4, 60.0))),
    "prior4": SpectrumSpec(((0.2, 0.1), (0.4, 1.0), (0.4, 1000.0))),
    "prior5": SpectrumSpec(((0.2, 0.1), (0.4, 0.5), (0.4, 1.0))),
}


def builtin_experiments() -> dict[str, ExperimentConfig]:
    """Named desk-scale benchmark experiments.

    fig2..fig5 are fig1 with the fields in ``changes`` replaced, which re-runs
    the config validation. The p grids and replication counts are trimmed for
    desk runtimes; both can be overridden from the CLI.
    """
    identity = TargetSpec.identity_over_p()
    fig1 = ExperimentConfig(
        name="fig1",
        spectrum=THREE_BLOCK,
        targets=(identity, TargetSpec.from_cov_spectrum("prior2", PRIOR_SPECTRA["prior2"])),
        ratio=1.0 / 3.0,
        p_grid=(60, 120, 180),
        distribution=DistributionSpec(GAUSSIAN),
        replications=200,
        seed=1001,
        estimators=(SAMPLE_INV, OLSE_PRECISION, OLSE_PRECISION_ORACLE, OLSE_COV_INV, EV_ORACLE),
    )
    priors = tuple(TargetSpec.from_cov_spectrum(name, spec) for name, spec in PRIOR_SPECTRA.items())
    changes = {
        "fig2": dict(targets=(identity, TargetSpec.true_precision(), *priors),
                     estimators=(SAMPLE_INV, OLSE_PRECISION, EV_ORACLE), seed=1002),
        "fig3a": dict(ratio=0.5, seed=1003),
        "fig3b": dict(ratio=0.8, p_grid=(40, 80, 160), seed=1004),
        "fig4": dict(distribution=DistributionSpec(STUDENT_T, degrees_of_freedom=10.0), seed=1005),
        "fig5": dict(ratio=1.5, p_grid=(100, 200), replications=100, seed=1006, targets=(identity,),
                     estimators=(SAMPLE_PINV, OLSE_PRECISION_ORACLE, OLSE_COV_INV, EV_ORACLE)),
    }
    return {"fig1": fig1, **{name: replace(fig1, name=name, **fields)
                             for name, fields in changes.items()}}


def with_overrides(
    config: ExperimentConfig,
    replications: int | None = None,
    seed: int | None = None,
    p_grid: tuple[int, ...] | None = None,
) -> ExperimentConfig:
    """Copy a config with CLI-style overrides applied."""
    updates = {}
    if replications is not None:
        updates["replications"] = replications
    if seed is not None:
        updates["seed"] = seed
    if p_grid is not None:
        updates["p_grid"] = tuple(p_grid)
    return replace(config, **updates) if updates else config
