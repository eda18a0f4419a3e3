"""Monte Carlo replication engine and benchmark experiment definitions.

Data generation (Gaussian and unit-variance Student-t), deterministic
counter-based seeding per replication, and the named benchmark experiments
at desk scale. Replications are embarrassingly parallel; each owns its own
random substream keyed by (seed, p, replication), so results are identical
for any thread count.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .estimators import (
    EV_ORACLE,
    NEAR_SINGULAR_RATIO,
    OLSE_COV_INV,
    OLSE_PRECISION,
    OLSE_PRECISION_ORACLE,
    SAMPLE_INV,
    SAMPLE_PINV,
    TargetMatrix,
    bona_fide_olse,
    olse_covariance,
    oracle_equivariant,
    oracle_olse_gt1,
    oracle_olse_lt1,
)
from .linalg import (
    REGIME_INVERTIBLE,
    DataMatrix,
    sample_covariance,
    use_single_threaded_blas,
)
from .metrics import PrialReport, frobenius_loss, summarize_replications
from .spectral import CovarianceModel, SpectrumSpec, build_covariance

GAUSSIAN = "gaussian"
STUDENT_T = "student_t"

TARGET_IDENTITY = "identity_over_p"
TARGET_TRUE_PRECISION = "true_precision"
TARGET_COV_SPECTRUM = "cov_spectrum"


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

    ``cov_spectrum`` targets carry the spectrum of the prior covariance; the
    precision target is its inverse, while the covariance estimator uses it
    directly.
    """

    name: str
    kind: str
    cov_spectrum: SpectrumSpec | None = None

    def __post_init__(self):
        if self.kind not in (TARGET_IDENTITY, TARGET_TRUE_PRECISION, TARGET_COV_SPECTRUM):
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.kind == TARGET_COV_SPECTRUM and self.cov_spectrum is None:
            raise ValueError("cov_spectrum target needs a spectrum")

    @classmethod
    def identity_over_p(cls) -> "TargetSpec":
        return cls(name=TARGET_IDENTITY, kind=TARGET_IDENTITY)

    @classmethod
    def true_precision(cls) -> "TargetSpec":
        return cls(name=TARGET_TRUE_PRECISION, kind=TARGET_TRUE_PRECISION)

    @classmethod
    def from_cov_spectrum(cls, name: str, spec: SpectrumSpec) -> "TargetSpec":
        return cls(name=name, kind=TARGET_COV_SPECTRUM, cov_spectrum=spec)


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
        if not self.p_grid:
            raise ValueError("p_grid must not be empty")
        for p in self.p_grid:
            if grid_sample_size(p, self.ratio) < 2:
                raise ValueError(f"p={p} with ratio={self.ratio} gives n < 2")
        unknown = set(self.estimators) - _ESTIMATORS.keys()
        if unknown:
            raise ValueError(f"unknown estimator ids: {sorted(unknown)}")
        target_names = [spec.name for spec in self.targets]
        for what, names in (("estimator ids", self.estimators), ("target names", target_names)):
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise ValueError(f"duplicate {what}: {repeated}")
        targeted = {kind for kind in self.estimators if _ESTIMATORS[kind].needs_target}
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
    weights: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        for key, value in self.losses.items():
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"loss for {key!r} must be finite and nonnegative")


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
    return DataMatrix(np.sqrt(truth.eigenvalues)[:, None] * x)


def _run_inverse(stats, truth, row, clamp):
    return frobenius_loss(stats.inverse, truth.precision), None


def _run_ev_oracle(stats, truth, row, clamp):
    return frobenius_loss(oracle_equivariant(stats, truth).matrix, truth.precision), None


def _run_bona_fide(stats, truth, row, clamp):
    est = bona_fide_olse(stats, row.precision_target, clamp=clamp)
    return frobenius_loss(est.matrix, truth.precision), (est.weights.alpha, est.weights.beta)


def _run_oracle_olse(stats, truth, row, clamp):
    oracle = oracle_olse_lt1 if stats.regime == REGIME_INVERTIBLE else oracle_olse_gt1
    est = oracle(stats, truth, row.precision_target)
    return frobenius_loss(est.matrix, truth.precision), (est.weights.alpha, est.weights.beta)


def _run_olse_cov_inv(stats, truth, row, clamp):
    est = olse_covariance(stats, row.covariance_target)
    return frobenius_loss(est.inverse, truth.precision), (est.weights.alpha, est.weights.beta)


@dataclass(frozen=True)
class _Estimator:
    """What the replication engine knows about one estimator id.

    ``needs_target``: one row per target, and ``run`` reports (alpha, beta).
    ``run(stats, truth, row, clamp) -> (loss, (alpha, beta) | None)`` looks up
    ``frobenius_loss`` and the estimator by module name at call time, so
    rebinding those names (as tracing does) reaches every row.
    """

    needs_target: bool
    run: Callable[..., tuple[float, tuple[float, float] | None]]
    skip_when_pseudo: str | None = None
    skip_when_invertible: str | None = None
    skip_near_singular: bool = False

    def skip_reason(self, ratio: float, invertible: bool) -> str | None:
        """Why the estimator does not apply at this grid point, or None."""
        if not invertible:
            return self.skip_when_pseudo
        if self.skip_near_singular and ratio > NEAR_SINGULAR_RATIO:
            return f"p/n = {ratio:.3f} lies in the near-singular band"
        return self.skip_when_invertible


_ESTIMATORS = {
    SAMPLE_INV: _Estimator(False, _run_inverse,
                           skip_when_pseudo="sample inverse undefined for p >= n"),
    SAMPLE_PINV: _Estimator(False, _run_inverse,
                            skip_when_invertible="pseudo-inverse baseline applies only for p >= n"),
    OLSE_PRECISION: _Estimator(True, _run_bona_fide, skip_near_singular=True,
                               skip_when_pseudo="bona fide estimator is undefined for p >= n"),
    OLSE_PRECISION_ORACLE: _Estimator(True, _run_oracle_olse, skip_near_singular=True),
    OLSE_COV_INV: _Estimator(True, _run_olse_cov_inv),
    EV_ORACLE: _Estimator(False, _run_ev_oracle),
}


@dataclass(frozen=True)
class _PlannedEstimator:
    row_id: str
    estimator: _Estimator
    precision_target: TargetMatrix | None = None
    covariance_target: TargetMatrix | None = None


def _resolve_targets(spec: TargetSpec, p: int, truth: CovarianceModel):
    """Return the (precision target, covariance target) pair for one recipe."""
    if spec.kind == TARGET_IDENTITY:
        identity = TargetMatrix.identity_over_p(p)
        return identity, identity
    if spec.kind == TARGET_TRUE_PRECISION:
        precision = TargetMatrix.from_matrix(truth.precision, name=spec.name)
        covariance = TargetMatrix.from_matrix(truth.sigma, name=spec.name)
        return precision, covariance
    precision = TargetMatrix.inverse_of_spectrum(spec.cov_spectrum, p, name=spec.name)
    covariance = TargetMatrix.from_spectrum(spec.cov_spectrum, p, name=spec.name)
    return precision, covariance


def _plan_estimators(
    config: ExperimentConfig, p: int, n: int, truth: CovarianceModel
) -> tuple[list[_PlannedEstimator], dict[str, str], str, list[str]]:
    """Expand estimator ids x targets into rows; decide static skips.

    Returns (runnable plan, skipped row reasons, baseline id, row order).
    The baseline for the current regime is always evaluated, even when it is
    not requested. Regime mismatches become skip reasons instead of errors,
    so one bad estimator does not kill a whole run.
    """
    ratio = p / n
    invertible = p < n
    baseline_id = SAMPLE_INV if invertible else SAMPLE_PINV
    kinds = list(config.estimators)
    if baseline_id not in kinds:
        kinds.insert(0, baseline_id)
    resolved = [(spec, *_resolve_targets(spec, p, truth)) for spec in config.targets]
    plan: list[_PlannedEstimator] = []
    skipped: dict[str, str] = {}
    order: list[str] = []
    for kind in kinds:
        estimator = _ESTIMATORS[kind]
        reason = estimator.skip_reason(ratio, invertible)
        rows = [_PlannedEstimator(kind, estimator)]
        if estimator.needs_target:
            rows = [_PlannedEstimator(f"{kind}[{spec.name}]", estimator, precision, covariance)
                    for spec, precision, covariance in resolved]
        for row in rows:
            order.append(row.row_id)
            if reason is None:
                plan.append(row)
            else:
                skipped[row.row_id] = reason
    return plan, skipped, baseline_id, order


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
    plan, skipped, baseline_id, order = _plan_estimators(config, p, n, truth)

    def one_replication(r: int) -> ReplicationResult:
        rng = replication_rng(config.seed, p, r)
        data = generate_data(truth, n, config.distribution, rng)
        stats = sample_covariance(data, center=config.center)
        losses: dict[str, float] = {}
        weights: dict[str, tuple[float, float]] = {}
        for planned in plan:
            loss, pair = planned.estimator.run(stats, truth, planned, config.clamp)
            losses[planned.row_id] = loss
            if pair is not None:
                weights[planned.row_id] = pair
        return ReplicationResult(index=r, losses=losses, weights=weights)

    indices = range(config.replications)
    workers = min(threads, usable_cpus(), config.replications)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_replication, indices))
    else:
        results = [one_replication(r) for r in indices]

    losses = {row.row_id: np.array([res.losses[row.row_id] for res in results]) for row in plan}
    weights = {}
    for row in plan:
        if row.estimator.needs_target:
            alphas = np.array([res.weights[row.row_id][0] for res in results])
            betas = np.array([res.weights[row.row_id][1] for res in results])
            weights[row.row_id] = (alphas, betas)
    report = summarize_replications(
        p=p,
        n=n,
        ratio=config.ratio,
        baseline_id=baseline_id,
        order=order,
        losses=losses,
        weights=weights,
        skipped=skipped,
    )
    return report, results


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

    The p grids and replication counts are trimmed for desk runtimes; both
    can be overridden from the CLI.
    """
    gaussian = DistributionSpec(GAUSSIAN)
    identity = TargetSpec.identity_over_p()
    prior2 = TargetSpec.from_cov_spectrum("prior2", PRIOR_SPECTRA["prior2"])
    full_set = (
        SAMPLE_INV,
        OLSE_PRECISION,
        OLSE_PRECISION_ORACLE,
        OLSE_COV_INV,
        EV_ORACLE,
    )
    configs = {
        "fig1": ExperimentConfig(
            name="fig1",
            spectrum=THREE_BLOCK,
            targets=(identity, prior2),
            ratio=1.0 / 3.0,
            p_grid=(60, 120, 180),
            distribution=gaussian,
            replications=200,
            seed=1001,
            estimators=full_set,
        ),
        "fig2": ExperimentConfig(
            name="fig2",
            spectrum=THREE_BLOCK,
            targets=(
                identity,
                TargetSpec.true_precision(),
                *(
                    TargetSpec.from_cov_spectrum(name, spec)
                    for name, spec in PRIOR_SPECTRA.items()
                ),
            ),
            ratio=1.0 / 3.0,
            p_grid=(60, 120, 180),
            distribution=gaussian,
            replications=200,
            seed=1002,
            estimators=(SAMPLE_INV, OLSE_PRECISION, EV_ORACLE),
        ),
        "fig3a": ExperimentConfig(
            name="fig3a",
            spectrum=THREE_BLOCK,
            targets=(identity, prior2),
            ratio=0.5,
            p_grid=(60, 120, 180),
            distribution=gaussian,
            replications=200,
            seed=1003,
            estimators=full_set,
        ),
        "fig3b": ExperimentConfig(
            name="fig3b",
            spectrum=THREE_BLOCK,
            targets=(identity, prior2),
            ratio=0.8,
            p_grid=(40, 80, 160),
            distribution=gaussian,
            replications=200,
            seed=1004,
            estimators=full_set,
        ),
        "fig4": ExperimentConfig(
            name="fig4",
            spectrum=THREE_BLOCK,
            targets=(identity, prior2),
            ratio=1.0 / 3.0,
            p_grid=(60, 120, 180),
            distribution=DistributionSpec(STUDENT_T, degrees_of_freedom=10.0),
            replications=200,
            seed=1005,
            estimators=full_set,
        ),
        "fig5": ExperimentConfig(
            name="fig5",
            spectrum=THREE_BLOCK,
            targets=(identity,),
            ratio=1.5,
            p_grid=(100, 200),
            distribution=gaussian,
            replications=100,
            seed=1006,
            estimators=(SAMPLE_PINV, OLSE_PRECISION_ORACLE, OLSE_COV_INV, EV_ORACLE),
        ),
    }
    return configs


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
