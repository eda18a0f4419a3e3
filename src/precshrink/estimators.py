"""Precision-matrix estimators.

Oracle optimal linear shrinkage (OLSE) in both p/n regimes, the feasible
(bona fide) OLSE built from consistent plug-in functionals, the covariance
OLSE benchmark and its inverse, and the oracle rotation-equivariant
benchmark. All operations are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateTargetError,
    NearSingularRegimeError,
    RegimeError,
    SingularMatrixError,
)
from .linalg import (
    REGIME_INVERTIBLE,
    REGIME_PSEUDO,
    SampleStats,
    frobenius_sq,
    is_symmetric,
    symmetrize,
    trace_product,
)
from .spectral import CovarianceModel, SpectrumSpec, realize_eigenvalues

REGIME_LT1 = "c_lt_1"
REGIME_GT1 = "c_gt_1"

PROVENANCE_ORACLE = "oracle"
PROVENANCE_BONA_FIDE = "bona_fide"
PROVENANCE_LIMIT = "asymptotic_limit"

# Stable estimator identifiers used by the CLI and result files.
SAMPLE_INV = "sample_inv"
SAMPLE_PINV = "sample_pinv"
OLSE_PRECISION = "olse_precision"
OLSE_PRECISION_ORACLE = "olse_precision_oracle"
OLSE_COV_INV = "olse_cov_inv"
EV_ORACLE = "ev_oracle"

NEAR_SINGULAR_RATIO = 0.95
DEGENERACY_RTOL = 1e-12


@dataclass(frozen=True)
class ShrinkageWeights:
    """A pair of shrinkage intensities with regime and provenance labels."""

    alpha: float
    beta: float
    regime: str
    provenance: str


@dataclass(frozen=True)
class TargetMatrix:
    """Symmetric positive definite shrinkage target with cached norms."""

    matrix: np.ndarray
    frobenius_sq: float
    trace_norm: float
    name: str = ""

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, name: str = "") -> "TargetMatrix":
        m = np.array(matrix, dtype=float, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"target must be a square matrix, got shape {m.shape}")
        if not is_symmetric(m, tol=1e-12):
            raise ValueError("target matrix must be symmetric (within 1e-12)")
        eigenvalues = np.linalg.eigvalsh(m)
        if eigenvalues[0] <= 0.0:
            raise ValueError(
                f"target matrix must be positive definite (min eigenvalue {eigenvalues[0]:.3e})"
            )
        return cls(
            matrix=m,
            frobenius_sq=frobenius_sq(m),
            trace_norm=float(np.trace(m)),
            name=name,
        )

    @classmethod
    def identity_over_p(cls, p: int) -> "TargetMatrix":
        return cls.from_matrix(np.eye(p) / p, name="identity_over_p")

    @classmethod
    def from_spectrum(cls, spec: SpectrumSpec, p: int, name: str = "") -> "TargetMatrix":
        return cls.from_matrix(np.diag(realize_eigenvalues(spec, p)), name=name)

    @classmethod
    def inverse_of_spectrum(cls, cov_spec: SpectrumSpec, p: int, name: str = "") -> "TargetMatrix":
        """Precision target as the inverse of a prior covariance spectrum.

        The reciprocal values stay at the positions of the ascending
        covariance realization, so the target's blocks line up with the
        covariance blocks they are priors for.
        """
        return cls.from_matrix(np.diag(1.0 / realize_eigenvalues(cov_spec, p)), name=name)


@dataclass(frozen=True)
class PrecisionEstimate:
    """An estimated precision matrix plus the weights that produced it."""

    matrix: np.ndarray
    weights: ShrinkageWeights | None
    estimator_id: str


@dataclass(frozen=True)
class CovarianceEstimate:
    """Covariance shrinkage estimate together with its inverse."""

    matrix: np.ndarray
    inverse: np.ndarray
    weights: ShrinkageWeights


def _check_dims(stats_p: int, other: np.ndarray, what: str) -> None:
    if other.shape != (stats_p, stats_p):
        raise ValueError(f"{what} has shape {other.shape}, expected ({stats_p}, {stats_p})")


def _require_invertible(stats: SampleStats, op: str) -> None:
    if stats.regime != REGIME_INVERTIBLE:
        raise RegimeError(f"{op} requires an invertible sample covariance (p < n)")
    if stats.ratio > NEAR_SINGULAR_RATIO:
        raise NearSingularRegimeError(
            f"{op}: p/n = {stats.ratio:.4f} lies inside the near-singular band "
            f"(> {NEAR_SINGULAR_RATIO})"
        )


def hessian_determinant(inv_frobenius_sq: float, target_frobenius_sq: float, cross_trace: float) -> float:
    """Determinant of the quadratic-loss Hessian in (alpha, beta).

    Raises :class:`DegenerateTargetError` when the target is numerically
    proportional to the sample inverse (determinant below the relative
    threshold), since the optimum is then ill-defined.
    """
    det = inv_frobenius_sq * target_frobenius_sq - cross_trace**2
    if det <= DEGENERACY_RTOL * inv_frobenius_sq * target_frobenius_sq:
        raise DegenerateTargetError(
            "shrinkage target is numerically proportional to the sample inverse; "
            "optimal weights are ill-defined"
        )
    return det


def optimal_weights_from_functionals(
    inv_truth_trace: float,
    truth_target_trace: float,
    inv_target_trace: float,
    inv_frobenius_sq: float,
    target_frobenius_sq: float,
) -> tuple[float, float]:
    """Solve the 2x2 normal equations of the Frobenius loss in closed form.

    Arguments are the five scalar functionals the loss depends on; the same
    formulas serve the finite-sample oracles (fed sample functionals) and the
    asymptotic limits (fed deterministic equivalents).
    """
    det = hessian_determinant(inv_frobenius_sq, target_frobenius_sq, inv_target_trace)
    alpha = (inv_truth_trace * target_frobenius_sq - truth_target_trace * inv_target_trace) / det
    beta = (truth_target_trace * inv_frobenius_sq - inv_truth_trace * inv_target_trace) / det
    return alpha, beta


def _oracle_olse(
    stats: SampleStats, truth: CovarianceModel, target: TargetMatrix, regime: str
) -> PrecisionEstimate:
    _check_dims(stats.p, truth.precision, "truth")
    _check_dims(stats.p, target.matrix, "target")
    a = trace_product(stats.inverse, truth.precision)
    b = trace_product(truth.precision, target.matrix)
    c = trace_product(stats.inverse, target.matrix)
    alpha, beta = optimal_weights_from_functionals(
        a, b, c, stats.inverse_frobenius_sq, target.frobenius_sq
    )
    matrix = alpha * stats.inverse + beta * target.matrix
    weights = ShrinkageWeights(alpha, beta, regime, PROVENANCE_ORACLE)
    return PrecisionEstimate(matrix, weights, OLSE_PRECISION_ORACLE)


def oracle_olse_lt1(
    stats: SampleStats, truth: CovarianceModel, target: TargetMatrix
) -> PrecisionEstimate:
    """Oracle optimal linear shrinkage of the sample inverse (p < n).

    Minimizes the squared Frobenius distance of alpha * inv(S) + beta * target
    to the true precision matrix; the truth is required, so this is a
    benchmark rather than a feasible estimator. Returns exactly (0, 1) when
    the target equals the true precision.
    """
    _require_invertible(stats, "oracle_olse_lt1")
    return _oracle_olse(stats, truth, target, REGIME_LT1)


def oracle_olse_gt1(
    stats: SampleStats, truth: CovarianceModel, target: TargetMatrix
) -> PrecisionEstimate:
    """Oracle optimal linear shrinkage of the pseudo-inverse (p >= n)."""
    if stats.regime != REGIME_PSEUDO:
        raise RegimeError("oracle_olse_gt1 requires the pseudo-inverse regime (p >= n)")
    return _oracle_olse(stats, truth, target, REGIME_GT1)


def trace_precision_estimate(stats: SampleStats, theta: np.ndarray) -> float:
    """Consistent estimate of tr(inv(Sigma) @ theta) from the sample inverse.

    The plain plug-in tr(inv(S) @ theta) overshoots by the factor 1/(1 - p/n)
    under proportional growth of p and n; multiplying by (1 - p/n) removes
    the bias. theta must be symmetric positive definite with bounded trace
    norm for the consistency guarantee to apply.
    """
    _require_invertible(stats, "trace_precision_estimate")
    theta = np.asarray(theta, dtype=float)
    _check_dims(stats.p, theta, "theta")
    if not is_symmetric(theta):
        raise ValueError("theta must be symmetric")
    # trace via the cached eigendecomposition: sum_i (u_i' theta u_i) / lambda_i
    rotated = theta @ stats.eigenvectors
    quadratic = np.einsum("ij,ij->j", stats.eigenvectors, rotated)
    return (1.0 - stats.ratio) * float(np.sum(quadratic / stats.eigenvalues))


def precision_frobenius_estimate(stats: SampleStats) -> float:
    """Consistent estimate of (1/p) * squared Frobenius norm of inv(Sigma).

    Removes both the multiplicative bias (factor (1-p/n)^2) and the additive
    bias (trace-norm term) of the naive plug-in.
    """
    _require_invertible(stats, "precision_frobenius_estimate")
    r = stats.ratio
    multiplicative = (1.0 - r) ** 2 / stats.p * stats.inverse_frobenius_sq
    additive = (1.0 - r) / (stats.p * stats.n) * stats.inverse_trace_norm**2
    return multiplicative - additive


def bona_fide_olse(
    stats: SampleStats, target: TargetMatrix, clamp: bool = False
) -> PrecisionEstimate:
    """Feasible optimal linear shrinkage of the sample inverse (p < n).

    The oracle weights are replaced by consistent estimates computed from the
    observable sample inverse only. Without clamping the raw weights are
    returned (alpha lies in (0, 1 - p/n) and beta > 0 whenever the target is
    not proportional to inv(S)); with ``clamp`` alpha is projected onto
    [0, 1 - p/n] before beta is computed.
    """
    _require_invertible(stats, "bona_fide_olse")
    _check_dims(stats.p, target.matrix, "target")
    f = stats.inverse_frobenius_sq
    g = target.frobenius_sq
    cross = trace_product(stats.inverse, target.matrix)
    det = hessian_determinant(f, g, cross)
    slack = 1.0 - stats.ratio
    alpha = slack - (stats.inverse_trace_norm**2 / stats.n) * g / det
    if clamp:
        alpha = min(max(alpha, 0.0), slack)
    beta = (cross / g) * (slack - alpha)
    matrix = alpha * stats.inverse + beta * target.matrix
    weights = ShrinkageWeights(alpha, beta, REGIME_LT1, PROVENANCE_BONA_FIDE)
    return PrecisionEstimate(matrix, weights, OLSE_PRECISION)


def estimate_isotropic_precision(stats: SampleStats) -> float:
    """Consistent estimate of the precision scale when Sigma = sigma * I, p > n.

    Inverts the known limit of (1/p) tr(pinv(S)) for an isotropic population;
    this is the only feasible pseudo-regime path, since general targets have
    no consistent weight estimates when p > n.
    """
    if stats.p <= stats.n:
        raise RegimeError("estimate_isotropic_precision requires p > n")
    r = stats.ratio
    return r * (r - 1.0) * stats.inverse_trace_norm / stats.p


def olse_covariance(stats: SampleStats, target_cov: TargetMatrix) -> CovarianceEstimate:
    """Optimal linear shrinkage of the sample covariance, plus its inverse.

    Shrinks S itself toward ``target_cov`` and inverts the result by a
    symmetric solve; this is the benchmark route of estimating the precision
    matrix indirectly. Valid in both regimes.
    """
    _check_dims(stats.p, target_cov.matrix, "target_cov")
    s = stats.matrix
    f = frobenius_sq(s)
    g = target_cov.frobenius_sq
    cross = trace_product(s, target_cov.matrix)
    det = hessian_determinant(f, g, cross)
    trace_s = float(np.trace(s))
    alpha = 1.0 - (trace_s**2 / stats.n) * g / det
    beta = (cross / g) * (1.0 - alpha)
    sigma_hat = alpha * s + beta * target_cov.matrix
    inverse = _symmetric_inverse(sigma_hat)
    regime = REGIME_LT1 if stats.regime == REGIME_INVERTIBLE else REGIME_GT1
    weights = ShrinkageWeights(alpha, beta, regime, PROVENANCE_BONA_FIDE)
    return CovarianceEstimate(matrix=sigma_hat, inverse=inverse, weights=weights)


def _symmetric_inverse(a: np.ndarray) -> np.ndarray:
    p = a.shape[0]
    try:
        inverse = scipy.linalg.solve(a, np.eye(p), assume_a="pos")
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(a)
        if np.min(np.abs(w)) <= p * np.finfo(float).eps * np.max(np.abs(w)):
            raise SingularMatrixError(
                "covariance shrinkage estimate is numerically singular"
            ) from None
        inverse = (v / w) @ v.T
    return symmetrize(inverse)


def oracle_equivariant(stats: SampleStats, truth: CovarianceModel) -> PrecisionEstimate:
    """Best rotation-equivariant benchmark sharing the sample eigenvectors.

    Keeps U from the sample covariance and replaces the eigenvalues by
    diag(U' inv(Sigma) U), the unique diagonal minimizer of the Frobenius
    loss. Needs the truth, so it is an oracle benchmark. Valid in both
    regimes.
    """
    _check_dims(stats.p, truth.precision, "truth")
    u = stats.eigenvectors
    rotated_diag = np.einsum("ij,ij->j", u, (1.0 / truth.eigenvalues)[:, None] * u)
    matrix = symmetrize((u * rotated_diag) @ u.T)
    return PrecisionEstimate(matrix, None, EV_ORACLE)
