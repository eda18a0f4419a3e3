"""Deterministic equivalents of sample (pseudo-)inverse functionals.

The large-dimensional limits used by the shrinkage estimators: the limit of
the normalized squared Frobenius norm of inv(S) for p/n below one, and for
p/n above one the fixed points of the self-consistent equations governing
traces and norms of pinv(S). The limits of the optimal shrinkage weights in
both regimes are assembled from these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .estimators import (
    PROVENANCE_LIMIT,
    REGIME_GT1,
    REGIME_LT1,
    ShrinkageWeights,
    TargetMatrix,
    optimal_weights_from_functionals,
)
from .linalg import is_symmetric, trace_product
from .spectral import CovarianceModel, SpectrumSpec, spectral_moments

FIXED_POINT_DAMPING = 0.5
FIXED_POINT_TOL = 1e-14
FIXED_POINT_MAX_ITER = 10_000
NEWTON_MAX_STEPS = 8
RESIDUAL_TOL = 1e-10
BISECTION_BRACKET = (1e-12, 1e12)


@dataclass(frozen=True)
class RootInfo:
    """A solved fixed point plus solver diagnostics."""

    value: float
    iterations: int
    residual: float
    method: str


@dataclass(frozen=True)
class LimitFunctionals:
    """Bundle of limit quantities for one (spectrum, ratio) pair.

    For ratio < 1 only ``inverse_frobenius`` is set; for ratio > 1 the dual
    fixed-point quantities are set instead. ``alpha``/``beta`` are present
    when a target was supplied.
    """

    ratio: float
    inverse_frobenius: float | None = None
    dual_trace: float | None = None
    dual_frobenius: float | None = None
    target_dual_trace: float | None = None
    alpha: float | None = None
    beta: float | None = None
    residuals: dict = field(default_factory=dict)
    iterations: dict = field(default_factory=dict)


def _self_consistent_rhs(x: float, d: np.ndarray, ratio: float, p: int) -> float:
    return ratio / p * float(np.sum(1.0 / (d + x)))


def _solve_self_consistent(d: np.ndarray, ratio: float, p: int) -> RootInfo:
    """Solve 1/x = (ratio/p) * tr[(D + x I)^{-1}] for x > 0, D = diag(d) > 0.

    Damped fixed-point iteration on x <- p / (ratio * tr[(D + x I)^{-1}]),
    polished with Newton steps on the residual; a bracketing bisection covers
    the rare case where the fixed point fails to settle.
    """

    def residual(x: float) -> float:
        return 1.0 / x - _self_consistent_rhs(x, d, ratio, p)

    def residual_slope(x: float) -> float:
        return -1.0 / x**2 + ratio / p * float(np.sum(1.0 / (d + x) ** 2))

    x = float(np.mean(d)) / (ratio - 1.0)  # exact when all d equal
    iterations = 0
    method = "fixed_point"
    converged = False
    for iterations in range(1, FIXED_POINT_MAX_ITER + 1):
        proposal = 1.0 / _self_consistent_rhs(x, d, ratio, p)
        x_next = (1.0 - FIXED_POINT_DAMPING) * x + FIXED_POINT_DAMPING * proposal
        if abs(x_next - x) <= FIXED_POINT_TOL * max(abs(x_next), 1e-300):
            x = x_next
            converged = True
            break
        x = x_next
    if not converged:
        x = _bisect(residual)
        method = "bisection"
    # Newton polish pushes the root to machine precision.
    for _ in range(NEWTON_MAX_STEPS):
        g = residual(x)
        if g == 0.0:
            break
        slope = residual_slope(x)
        if slope == 0.0:
            break
        step = g / slope
        x_new = x - step
        if x_new <= 0.0:
            x_new = x / 2.0
        if abs(x_new - x) <= 1e-17 * abs(x):
            x = x_new
            break
        x = x_new
    final_residual = abs(residual(x))
    if not np.isfinite(x) or x <= 0.0 or final_residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"fixed-point solver failed: x={x!r}, residual={final_residual:.3e}"
        )
    return RootInfo(value=x, iterations=iterations, residual=final_residual, method=method)


def _bisect(residual, bracket=BISECTION_BRACKET, max_iter=200) -> float:
    lo, hi = bracket
    if residual(lo) <= 0.0 or residual(hi) >= 0.0:
        raise ConvergenceError("bisection bracket does not enclose a sign change")
    for _ in range(max_iter):
        mid = np.sqrt(lo * hi) if hi / lo > 1e6 else 0.5 * (lo + hi)
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


def _require_gt1(ratio: float, op: str) -> None:
    if not ratio > 1.0:
        raise ValueError(f"{op} requires a concentration ratio above 1, got {ratio}")


def inverse_frobenius_limit(spec: SpectrumSpec, ratio: float) -> float:
    """Limit of (1/p) * squared Frobenius norm of inv(S) for ratio in (0, 1).

    Depends on the population spectrum only through its first two inverse
    moments; shrinkage of the sample eigenvalues inflates the norm, so the
    limit always exceeds the second inverse moment.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    m1, m2 = spectral_moments(spec)
    return m2 / (1.0 - ratio) ** 2 + ratio * m1**2 / (1.0 - ratio) ** 3


def _dual_trace_info(truth: CovarianceModel, ratio: float) -> RootInfo:
    d = 1.0 / truth.eigenvalues
    return _solve_self_consistent(d, ratio, truth.p)


def dual_inverse_trace_limit(truth: CovarianceModel, ratio: float) -> float:
    """Root x of 1/x = (ratio/p) tr[(inv(Sigma) + x I)^{-1}], ratio > 1.

    (1/p) tr(pinv(S)) converges to x / ratio; equivalently x is the limit of
    the normalized trace of the inverse dual sample covariance.
    """
    _require_gt1(ratio, "dual_inverse_trace_limit")
    return _dual_trace_info(truth, ratio).value


def dual_inverse_frobenius_limit(
    truth: CovarianceModel, ratio: float, trace_limit: float | None = None
) -> float:
    """Limit x' with (1/p) * squared Frobenius norm of pinv(S) -> x' / ratio.

    ``trace_limit`` may pass a precomputed root of the trace equation; it is
    validated against its defining equation before use.
    """
    _require_gt1(ratio, "dual_inverse_frobenius_limit")
    d = 1.0 / truth.eigenvalues
    p = truth.p
    if trace_limit is None:
        x = _dual_trace_info(truth, ratio).value
    else:
        x = float(trace_limit)
        if abs(1.0 / x - _self_consistent_rhs(x, d, ratio, p)) > 1e-8:
            raise ValueError("trace_limit does not solve its defining equation")
    denominator = 1.0 / x**2 - ratio / p * float(np.sum(1.0 / (d + x) ** 2))
    if denominator <= 0.0:
        raise ValueError("inconsistent input: nonpositive curvature denominator")
    return 1.0 / denominator


def _weighted_dual_info(truth: CovarianceModel, theta: np.ndarray, ratio: float) -> RootInfo:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (truth.p, truth.p):
        raise ValueError(f"theta must be {truth.p}x{truth.p}, got {theta.shape}")
    if not is_symmetric(theta):
        raise ValueError("theta must be symmetric")
    s = 1.0 / np.sqrt(truth.eigenvalues)
    congruence = s[:, None] * theta * s[None, :]
    d = np.linalg.eigvalsh((congruence + congruence.T) / 2.0)
    if d[0] <= 0.0:
        raise ValueError("theta must be positive definite")
    return _solve_self_consistent(d, ratio, truth.p)


def weighted_dual_trace_limit(truth: CovarianceModel, theta: np.ndarray, ratio: float) -> float:
    """Root y of the theta-weighted self-consistent equation, ratio > 1.

    theta enters through the symmetric congruence with the inverse square
    root of Sigma, which scales row and column i by 1/sqrt(tau_i). For an
    isotropic population with theta proportional to Sigma this reproduces
    the classical pseudo-inverse trace limits; for general pairs the exact
    equivalent of tr(theta @ pinv(S)) is :func:`pinv_weighted_trace_limit`
    instead.
    """
    _require_gt1(ratio, "weighted_dual_trace_limit")
    return _weighted_dual_info(truth, theta, ratio).value


def _dual_roots(truth: CovarianceModel, ratio: float) -> tuple[float, float]:
    """The dual trace root x and the curvature factor x', ratio > 1."""
    x = _dual_trace_info(truth, ratio).value
    return x, dual_inverse_frobenius_limit(truth, ratio, x)


def _pinv_equivalent_diagonal(truth: CovarianceModel, x: float, x_prime: float) -> np.ndarray:
    """Diagonal of the deterministic equivalent of pinv(S), ratio > 1.

    Expanding the resolvent equivalent of S around zero gives
    tr(theta @ pinv(S)) -> x' * tr[theta (x Sigma + I)^{-1} Sigma (x Sigma + I)^{-1}]
    with x the dual trace root and x' the curvature factor. The middle matrix
    is diagonal, so a weighted limit is sum(diagonal * diag(theta)). numpy's
    pairwise sum keeps it as accurate as the dense trace; a BLAS dot product
    moved the limiting weights by up to 2e-13 relative.
    """
    tau = truth.eigenvalues
    return x_prime * tau / (x * tau + 1.0) ** 2


def pinv_weighted_trace_limit(truth: CovarianceModel, theta: np.ndarray, ratio: float) -> float:
    """Almost-sure limit of tr(theta @ pinv(S)) for ratio > 1.

    Exact for any symmetric theta with bounded spectral norm, including the
    non-commuting and rank-one cases where the self-consistent equation's
    solution is only an isotropic-case shortcut. Reduces to the dual trace
    root times p/ratio when theta is the identity.
    """
    _require_gt1(ratio, "pinv_weighted_trace_limit")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (truth.p, truth.p):
        raise ValueError(f"theta must be {truth.p}x{truth.p}, got {theta.shape}")
    equivalent = _pinv_equivalent_diagonal(truth, *_dual_roots(truth, ratio))
    return float(np.sum(equivalent * np.diagonal(theta)))


def pinv_bilinear_limit(
    truth: CovarianceModel, xi: np.ndarray, eta: np.ndarray, ratio: float
) -> float:
    """Almost-sure limit of the bilinear form eta' pinv(S) xi, ratio > 1."""
    _require_gt1(ratio, "pinv_bilinear_limit")
    xi = np.asarray(xi, dtype=float).reshape(-1)
    eta = np.asarray(eta, dtype=float).reshape(-1)
    if xi.size != truth.p or eta.size != truth.p:
        raise ValueError("xi and eta must be length-p vectors")
    return float((eta * _pinv_equivalent_diagonal(truth, *_dual_roots(truth, ratio))) @ xi)


def limit_weights_lt1(
    truth: CovarianceModel, target: TargetMatrix, ratio: float
) -> ShrinkageWeights:
    """Almost-sure limits of the oracle shrinkage weights for ratio in (0, 1).

    Obtained by substituting the deterministic equivalents of the sample
    inverse functionals into the oracle normal equations. alpha always lands
    in (0, 1 - ratio) and beta stays positive for non-degenerate targets.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    p = truth.p
    f = truth.precision_frobenius_sq
    t = truth.precision_trace_norm
    b = trace_product(truth.precision, target.matrix)
    inv_truth_eq = f / (1.0 - ratio)
    inv_target_eq = b / (1.0 - ratio)
    inv_frobenius_eq = f / (1.0 - ratio) ** 2 + ratio * t**2 / (p * (1.0 - ratio) ** 3)
    alpha, beta = optimal_weights_from_functionals(
        inv_truth_eq, b, inv_target_eq, inv_frobenius_eq, target.frobenius_sq
    )
    return ShrinkageWeights(alpha, beta, REGIME_LT1, PROVENANCE_LIMIT)


def limit_weights_gt1(
    truth: CovarianceModel, target: TargetMatrix, ratio: float
) -> ShrinkageWeights:
    """Almost-sure limits of the oracle shrinkage weights for ratio above 1.

    Substitutes the pseudo-inverse deterministic equivalents (the weighted
    trace limits and the squared Frobenius norm limit (p/ratio) x') into the
    oracle normal equations, keeping every finite-p factor so the limits
    match the averaged oracle weights and reduce to (0, 1) when the target
    equals the true precision.
    """
    _require_gt1(ratio, "limit_weights_gt1")
    return _limit_weights_gt1(truth, target, ratio, *_dual_roots(truth, ratio))


def _limit_weights_gt1(
    truth: CovarianceModel, target: TargetMatrix, ratio: float, x: float, x_prime: float
) -> ShrinkageWeights:
    equivalent = _pinv_equivalent_diagonal(truth, x, x_prime)
    inv_truth_eq = float(np.sum(equivalent * np.diagonal(truth.precision)))
    inv_target_eq = float(np.sum(equivalent * np.diagonal(target.matrix)))
    inv_frobenius_eq = truth.p / ratio * x_prime
    b = trace_product(truth.precision, target.matrix)
    alpha, beta = optimal_weights_from_functionals(
        inv_truth_eq, b, inv_target_eq, inv_frobenius_eq, target.frobenius_sq
    )
    return ShrinkageWeights(alpha, beta, REGIME_GT1, PROVENANCE_LIMIT)


def compute_limit_functionals(
    truth: CovarianceModel,
    ratio: float,
    spec: SpectrumSpec | None = None,
    target: TargetMatrix | None = None,
) -> LimitFunctionals:
    """Assemble every limit quantity relevant to the given ratio.

    ratio < 1 needs ``spec`` (the limit spectrum) for the inverse Frobenius
    limit; ratio > 1 solves the dual fixed points on ``truth``. Passing a
    target adds the limiting shrinkage weights.
    """
    if not np.isfinite(ratio) or ratio <= 0.0 or ratio == 1.0:
        raise ValueError(f"ratio must be finite, positive and different from 1, got {ratio}")
    residuals: dict = {}
    iterations: dict = {}
    if ratio < 1.0:
        psi = inverse_frobenius_limit(spec, ratio) if spec is not None else None
        alpha = beta = None
        if target is not None:
            weights = limit_weights_lt1(truth, target, ratio)
            alpha, beta = weights.alpha, weights.beta
        return LimitFunctionals(
            ratio=ratio,
            inverse_frobenius=psi,
            alpha=alpha,
            beta=beta,
            residuals=residuals,
            iterations=iterations,
        )
    trace_info = _dual_trace_info(truth, ratio)
    residuals["dual_trace"] = trace_info.residual
    iterations["dual_trace"] = trace_info.iterations
    x_prime = dual_inverse_frobenius_limit(truth, ratio, trace_info.value)
    target_dual = alpha = beta = None
    if target is not None:
        target_info = _weighted_dual_info(truth, target.matrix, ratio)
        target_dual = target_info.value
        residuals["target_dual_trace"] = target_info.residual
        iterations["target_dual_trace"] = target_info.iterations
        weights = _limit_weights_gt1(truth, target, ratio, trace_info.value, x_prime)
        alpha, beta = weights.alpha, weights.beta
    return LimitFunctionals(
        ratio=ratio,
        dual_trace=trace_info.value,
        dual_frobenius=x_prime,
        target_dual_trace=target_dual,
        alpha=alpha,
        beta=beta,
        residuals=residuals,
        iterations=iterations,
    )
