"""Precision-matrix estimators.

Oracle optimal linear shrinkage (OLSE) in both p/n regimes, the feasible
(bona fide) OLSE built from consistent plug-in functionals, the covariance
OLSE benchmark and its inverse, and the oracle rotation-equivariant
benchmark. All operations are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateTargetError,
    NearSingularRegimeError,
    NumericError,
    RegimeError,
    SingularMatrixError,
)
from .linalg import (
    SampleInverse,
    SampleStats,
    frobenius_sq,
    is_symmetric,
    require_shape,
    symmetric_inverse,
    symmetrize,
    trace_product,
)
from .spectral import CovarianceModel, SpectrumSpec, realize_eigenvalues

# Stable estimator identifiers used by the CLI and result files.
SAMPLE_INV = "sample_inv"
SAMPLE_PINV = "sample_pinv"
OLSE_PRECISION = "olse_precision"
OLSE_PRECISION_ORACLE = "olse_precision_oracle"
OLSE_COV_INV = "olse_cov_inv"
EV_ORACLE = "ev_oracle"
ISOTROPIC_PRECISION = "isotropic_precision"

NEAR_SINGULAR_RATIO = 0.95
DEGENERACY_RTOL = 1e-12

# Per id: the side of p = n it needs (None: both), the RegimeError text off that side, and
# whether it excludes the near-singular band NEAR_SINGULAR_RATIO < p/n < 1.
_DOMAINS = {
    SAMPLE_INV: (lambda p, n: p < n, "sample inverse undefined for p >= n", False),
    SAMPLE_PINV: (lambda p, n: p >= n, "pseudo-inverse baseline applies only for p >= n", False),
    OLSE_PRECISION: (lambda p, n: p < n, "bona fide estimator is undefined for p >= n", True),
    OLSE_PRECISION_ORACLE: (None, None, True),
    OLSE_COV_INV: (None, None, False),
    EV_ORACLE: (None, None, False),
    ISOTROPIC_PRECISION: (lambda p, n: p > n, "isotropic precision estimate needs p > n", False),
}


def domain_error(estimator_id: str, p: int, n: int) -> Exception | None:
    """Why the estimator does not apply at p variables and n observations, or None."""
    side, reason, excludes_band = _DOMAINS[estimator_id]
    if side is not None and not side(p, n):
        return RegimeError(reason)
    if excludes_band and NEAR_SINGULAR_RATIO < p / n < 1.0:
        return NearSingularRegimeError(f"p/n = {p / n:.3f} lies in the near-singular band")
    return None


def _require_domain(stats: SampleStats, *estimator_ids: str) -> None:
    for error in filter(None, (domain_error(i, stats.p, stats.n) for i in estimator_ids)):
        raise error


class ShrinkageWeights(NamedTuple):
    """The shrinkage intensities of ``alpha * inv(S) + beta * T``, as the two
    weight rules return them; a pair, so it unpacks as ``alpha, beta``."""

    alpha: float
    beta: float


@dataclass(frozen=True)
class TargetMatrix:
    """Symmetric positive definite shrinkage target, stored as its defining data.

    ``data`` is the diagonal of a diagonal target, which ``diagonal`` returns
    (None for a dense target), or the full matrix of a dense one. ``matrix``
    builds the dense array on each read; the squared norm is computed at first read.
    """

    data: np.ndarray

    diagonal = property(lambda self: self.data if self.data.ndim == 1 else None)
    shape = property(lambda self: (len(self.data),) * 2)
    matrix = property(lambda self: np.diag(self.data) if self.data.ndim == 1 else self.data)
    frobenius_sq = cached_property(lambda self: frobenius_sq(self.data))

    @classmethod
    def from_diagonal(cls, diagonal: np.ndarray) -> "TargetMatrix":
        """Diagonal target ``diag(diagonal)``; a float array is stored, not copied."""
        d = np.asarray(diagonal, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise ValueError(f"target diagonal must be a non-empty 1-D array, got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("target matrix must be finite")
        smallest = np.min(d)
        if smallest <= 0.0:
            raise ValueError(
                f"target matrix must be positive definite (min eigenvalue {smallest:.3e})")
        return cls(d)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "TargetMatrix":
        m = np.array(matrix, dtype=float, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"target must be a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("target matrix must be finite")
        diagonal = np.diagonal(m)
        if np.count_nonzero(m) == np.count_nonzero(diagonal):  # off-diagonal all zero
            return cls.from_diagonal(diagonal.copy())
        if not is_symmetric(m):
            raise ValueError("target matrix must be symmetric (within 1e-12)")
        cls.from_diagonal(np.linalg.eigvalsh(m))  # positive definite: all eigenvalues > 0
        return cls(m)

    @classmethod
    def identity_over_p(cls, p: int) -> "TargetMatrix":
        return cls.from_diagonal(np.full(p, 1.0 / p))

    @classmethod
    def from_spectrum(cls, spec: SpectrumSpec, p: int) -> "TargetMatrix":
        return cls.from_diagonal(realize_eigenvalues(spec, p))

    @classmethod
    def inverse_of_spectrum(cls, cov_spec: SpectrumSpec, p: int) -> "TargetMatrix":
        """Precision target as the inverse of a prior covariance spectrum.

        The reciprocal values stay at the positions of the ascending
        covariance realization, so the target's blocks line up with the
        covariance blocks they are priors for.
        """
        return cls.from_diagonal(1.0 / realize_eigenvalues(cov_spec, p))


@dataclass(frozen=True)
class PrecisionEstimate:
    """An estimated precision matrix plus the weights that produced it."""

    matrix: np.ndarray
    weights: ShrinkageWeights | None


@dataclass(frozen=True)
class CovarianceEstimate:
    """Covariance shrinkage estimate together with its inverse."""

    matrix: np.ndarray
    inverse: np.ndarray
    weights: ShrinkageWeights


def hessian_determinant(inv_frobenius_sq: float, target_frobenius_sq: float, cross_trace: float) -> float:
    """Determinant of the quadratic-loss Hessian in (alpha, beta).

    Raises :class:`DegenerateTargetError` when the target is numerically
    proportional to the sample inverse (determinant below the relative
    threshold), since the optimum is then ill-defined, and
    :class:`NumericError` when the determinant overflows.
    """
    det = inv_frobenius_sq * target_frobenius_sq - cross_trace * cross_trace
    if not math.isfinite(det):
        raise NumericError(
            f"Hessian determinant of the shrinkage weights overflows (squared norms "
            f"{inv_frobenius_sq:.3e} and {target_frobenius_sq:.3e})"
        )
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
) -> ShrinkageWeights:
    """Solve the 2x2 normal equations of the Frobenius loss in closed form.

    Arguments are the five scalar functionals the loss depends on; the same
    formulas serve the finite-sample oracles (fed sample functionals) and the
    asymptotic limits (fed deterministic equivalents). Raises
    :class:`NumericError` when a weight overflows.
    """
    det = hessian_determinant(inv_frobenius_sq, target_frobenius_sq, inv_target_trace)
    alpha = (inv_truth_trace * target_frobenius_sq - truth_target_trace * inv_target_trace) / det
    beta = (truth_target_trace * inv_frobenius_sq - inv_truth_trace * inv_target_trace) / det
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise NumericError(f"shrinkage weights overflow: alpha={alpha!r}, beta={beta!r}")
    return ShrinkageWeights(alpha, beta)


def _oracle_olse(
    stats: SampleStats, truth: CovarianceModel, target: TargetMatrix
) -> PrecisionEstimate:
    require_shape(truth.eigenvalues, (stats.p,), "truth")
    require_shape(target, (stats.p, stats.p), "target")
    theta = target.matrix
    a = trace_product(stats.inverse, truth.precision)
    b = trace_product(truth.inverse_eigenvalues, np.diagonal(theta))
    c = trace_product(stats.inverse, theta)
    weights = optimal_weights_from_functionals(
        a, b, c, stats.inverse_frobenius_sq, target.frobenius_sq
    )
    return PrecisionEstimate(weights.alpha * stats.inverse + weights.beta * theta, weights)


def oracle_olse_lt1(
    stats: SampleStats, truth: CovarianceModel, target: TargetMatrix
) -> PrecisionEstimate:
    """Oracle optimal linear shrinkage of the sample inverse (p < n).

    Minimizes the squared Frobenius distance of alpha * inv(S) + beta * target
    to the true precision matrix; the truth is required, so this is a
    benchmark rather than a feasible estimator. Returns exactly (0, 1) when
    the target equals the true precision.
    """
    _require_domain(stats, SAMPLE_INV, OLSE_PRECISION_ORACLE)
    return _oracle_olse(stats, truth, target)


def oracle_olse_gt1(
    stats: SampleStats, truth: CovarianceModel, target: TargetMatrix
) -> PrecisionEstimate:
    """Oracle optimal linear shrinkage of the pseudo-inverse (p >= n)."""
    _require_domain(stats, SAMPLE_PINV)
    return _oracle_olse(stats, truth, target)


def trace_precision_estimate(stats: SampleStats, theta: np.ndarray) -> float:
    """Consistent estimate of tr(inv(Sigma) @ theta) from the sample inverse.

    The plain plug-in tr(inv(S) @ theta) overshoots by the factor 1/(1 - p/n)
    under proportional growth of p and n; multiplying by (1 - p/n) removes
    the bias. theta must be symmetric positive definite with bounded trace
    norm for the consistency guarantee to apply.
    """
    _require_domain(stats, OLSE_PRECISION)
    theta = np.asarray(theta, dtype=float)
    require_shape(theta, (stats.p, stats.p), "theta")
    if not is_symmetric(theta):
        raise ValueError("theta must be symmetric")
    return (1.0 - stats.ratio) * trace_product(stats.inverse, theta)


def precision_frobenius_estimate(stats: SampleStats) -> float:
    """Consistent estimate of (1/p) * squared Frobenius norm of inv(Sigma).

    Removes both the multiplicative bias (factor (1-p/n)^2) and the additive
    bias (trace-norm term) of the naive plug-in.
    """
    _require_domain(stats, OLSE_PRECISION)
    r = stats.ratio
    multiplicative = (1.0 - r) ** 2 / stats.p * stats.inverse_frobenius_sq
    additive = (1.0 - r) / (stats.p * stats.n) * stats.inverse_trace_norm**2
    return multiplicative - additive


def bona_fide_olse(
    stats: SampleStats | SampleInverse, target: TargetMatrix, clamp: bool = False
) -> PrecisionEstimate:
    """Feasible optimal linear shrinkage of the sample inverse (p < n).

    The oracle weights are replaced by consistent estimates computed from the
    observable sample inverse only. Without clamping the raw weights are
    returned. Their limits, as p and n grow at a fixed p/n, have alpha in
    (0, 1 - p/n) and beta > 0 whenever the target is not proportional to
    inv(S); a finite sample can still give alpha <= 0 (2 of 200 fig1
    replications with the prior2 target at p = 60, n = 180). Alpha stays
    below 1 - p/n, since the Hessian determinant is positive. With ``clamp``
    alpha is projected onto [0, 1 - p/n] before beta is computed. Reads only
    ``p``, ``n``, ``ratio``, ``inverse`` and the inverse's two norms, which a
    :class:`SampleInverse` holds without an eigendecomposition.
    """
    _require_domain(stats, OLSE_PRECISION)
    require_shape(target, (stats.p, stats.p), "target")
    theta = target.matrix
    weights = plug_in_weights(stats.inverse_frobenius_sq, target.frobenius_sq,
                              trace_product(stats.inverse, theta), stats.inverse_trace_norm,
                              stats.n, 1.0 - stats.ratio, clamp)
    return PrecisionEstimate(weights.alpha * stats.inverse + weights.beta * theta, weights)


def plug_in_weights(
    a_frobenius_sq: float, target_frobenius_sq: float, cross_trace: float, a_trace: float,
    n: int, slack: float, clamp: bool = False,
) -> ShrinkageWeights:
    """The (alpha, beta) of ``alpha * A + beta * T`` with consistent plug-ins.

    Solves the normal equations of the Frobenius loss from ``||A||^2``,
    ``||T||^2``, ``tr(A T)`` and ``tr(A)``: ``alpha = slack - (tr(A)^2 / n)
    ||T||^2 / det`` and ``beta = (tr(A T) / ||T||^2) (slack - alpha)``. The
    bona fide OLSE has ``A = inv(S)`` and ``slack = 1 - p/n``, the covariance
    OLSE ``A = S`` and ``slack = 1``. With ``clamp`` alpha is projected onto
    ``[0, slack]`` before beta is computed.
    """
    g = target_frobenius_sq
    det = hessian_determinant(a_frobenius_sq, g, cross_trace)
    try:
        alpha = slack - (a_trace**2 / n) * g / det
    except OverflowError:  # a Python float's power raises where numpy's returns inf
        raise NumericError(f"squared trace {a_trace:.3e} of the weights overflows") from None
    if clamp:
        alpha = min(max(alpha, 0.0), slack)
    beta = (cross_trace / g) * (slack - alpha)
    return ShrinkageWeights(alpha, beta)


def estimate_isotropic_precision(stats: SampleStats) -> float:
    """Consistent estimate of the precision scale when Sigma = sigma * I, p > n.

    Inverts the known limit of (1/p) tr(pinv(S)) for an isotropic population
    and data of rank n (:class:`SingularMatrixError` below it); this is the
    only feasible pseudo-regime path, since general targets have no
    consistent weight estimates when p > n.
    """
    _require_domain(stats, ISOTROPIC_PRECISION)
    rank = np.count_nonzero(stats.inverse_eigenvalues)
    if rank < stats.n:
        raise SingularMatrixError(
            f"isotropic precision estimate needs data rank n: data rank {rank} < n = {stats.n}")
    r = stats.ratio
    scale = r * (r - 1.0) * stats.inverse_trace_norm / stats.p
    if not math.isfinite(scale):
        raise NumericError(f"isotropic precision scale overflows (trace of the pseudo-inverse "
                           f"{stats.inverse_trace_norm:.3e})")
    return scale


def olse_covariance(stats: SampleStats, target_cov: TargetMatrix) -> CovarianceEstimate:
    """Optimal linear shrinkage of the sample covariance, plus its inverse.

    Shrinks S itself toward ``target_cov`` and inverts the result by a
    symmetric solve; this is the benchmark route of estimating the precision
    matrix indirectly. Valid in both regimes.
    """
    require_shape(target_cov, (stats.p, stats.p), "target_cov")
    s, c = stats.matrix, target_cov.matrix
    weights = plug_in_weights(frobenius_sq(s), target_cov.frobenius_sq, trace_product(s, c),
                              float(np.trace(s)), stats.n, 1.0)
    sigma_hat = weights.alpha * s + weights.beta * c
    return CovarianceEstimate(sigma_hat, symmetric_inverse(sigma_hat), weights)


def oracle_equivariant(stats: SampleStats, truth: CovarianceModel) -> PrecisionEstimate:
    """Best rotation-equivariant benchmark sharing the sample eigenvectors.

    Keeps U from the sample covariance and replaces the eigenvalues by
    diag(U' inv(Sigma) U), the unique diagonal minimizer of the Frobenius
    loss. Needs the truth, so it is an oracle benchmark. Valid in both
    regimes.
    """
    require_shape(truth.eigenvalues, (stats.p,), "truth")
    u = stats.eigenvectors
    rotated_diag = np.einsum("ij,ij->j", u, truth.inverse_eigenvalues[:, None] * u)
    matrix = symmetrize((u * rotated_diag) @ u.T)
    return PrecisionEstimate(matrix, None)
