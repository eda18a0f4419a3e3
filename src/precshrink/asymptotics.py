"""Deterministic equivalents of sample (pseudo-)inverse functionals.

The large-dimensional limits used by the shrinkage estimators: the limit of
the normalized squared Frobenius norm of inv(S) for p/n below one, and for
p/n above one the fixed points of the self-consistent equations governing
traces and norms of pinv(S). The limits of the optimal shrinkage weights in
both regimes are assembled from these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericError
from .estimators import ShrinkageWeights, TargetMatrix, optimal_weights_from_functionals
from .linalg import require_shape, trace_product
from .spectral import CovarianceModel, SpectrumSpec, spectral_moments

ROOT_TOL = 1e-14
ROOT_MAX_ITER = 200
RESIDUAL_TOL = 1e-10


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
    trace root ``dual`` and its curvature factor ``dual_frobenius`` instead. A
    target adds ``weights`` and, for ratio > 1, the weighted root ``target_dual``.
    """

    ratio: float
    inverse_frobenius: float | None = None
    dual: RootInfo | None = None
    dual_frobenius: float | None = None
    target_dual: RootInfo | None = None
    weights: ShrinkageWeights | None = None


def _solve_self_consistent(d: np.ndarray, ratio: float) -> RootInfo:
    """Solve 1/x = (ratio/p) * tr[(D + x I)^{-1}] for x > 0, D = diag(d) > 0, p = d.size.

    Newton's method on h(x) = 1 - (ratio/p) * sum(x / (d + x)). h falls
    convexly from h(0) = 1 towards 1 - ratio < 0, so its single root lies in
    [min(d), max(d)] / (ratio - 1), and Newton steps from the lower end rise
    monotonically to it. The bracket shrinks with the sign of h; a step that
    rounding pushes out of it bisects instead. h is summed exactly, so the
    root is limited by the rounding of the terms rather than of their sum.
    """
    scale = ratio / d.size
    lo, hi = float(np.min(d)) / (ratio - 1.0), float(np.max(d)) / (ratio - 1.0)
    x = lo
    method = "newton"
    for iterations in range(1, ROOT_MAX_ITER + 1):
        inverse = 1.0 / (d + x)
        h = 1.0 - scale * math.fsum(x * inverse)
        if h > 0.0:
            lo = x
        else:
            hi = x
        step = h / (scale * float(np.sum(d * inverse * inverse)))
        x += step
        if abs(step) <= ROOT_TOL * x or hi - lo <= ROOT_TOL * x:
            break
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            method = "bisection"
    residual = abs(1.0 / x - scale * float(np.sum(1.0 / (d + x)))) if x > 0.0 else np.inf
    # Both sides grow like 1/x, so residual * min(1, x), not residual, is held to RESIDUAL_TOL.
    if not residual * min(1.0, x) <= RESIDUAL_TOL:  # NaN fails too
        raise ConvergenceError(f"root solver failed: x={x!r}, residual={residual:.3e}")
    return RootInfo(value=x, iterations=iterations, residual=residual, method=method)


def _require_gt1(ratio: float, op: str) -> None:
    if not 1.0 < ratio < np.inf:  # NaN fails too
        raise ValueError(f"{op} requires a finite concentration ratio above 1, got {ratio}")


def _require_ratio(ratio: float) -> None:
    if not np.isfinite(ratio) or ratio <= 0.0 or ratio == 1.0:
        raise ValueError(f"ratio must be finite, positive and different from 1, got {ratio}")


def _inverse_frobenius_lt1(second: float, first: float, ratio: float, scale: float) -> float:
    """Limit of ||inv(S)||^2 from inverse spectral moments (scale 1) or sums (scale p)."""
    try:
        limit = second / (1.0 - ratio) ** 2 + ratio * first**2 / (scale * (1.0 - ratio) ** 3)
    except OverflowError:  # a Python float's ** raises where * and / give inf
        limit = math.inf
    if not math.isfinite(limit):
        raise NumericError(f"inverse Frobenius limit overflows at ratio {ratio!r} "
                           f"(inverse moments {first:.3e} and {second:.3e})")
    return limit


def inverse_frobenius_limit(spec: SpectrumSpec, ratio: float) -> float:
    """Limit of (1/p) * squared Frobenius norm of inv(S) for ratio in (0, 1).

    Depends on the population spectrum only through its first two inverse
    moments; shrinkage of the sample eigenvalues inflates the norm, so the
    limit always exceeds the second inverse moment.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    m1, m2 = spectral_moments(spec)
    return _inverse_frobenius_lt1(m2, m1, ratio, 1)


def _dual(truth: CovarianceModel, ratio: float) -> tuple[RootInfo, float]:
    """The dual trace root x and the curvature factor x' above ratio 1
    (Bodnar, Dette & Parolya 2016); an overflow raises :class:`NumericError`."""
    precision = truth.inverse_eigenvalues
    dual = _solve_self_consistent(precision, ratio)
    x = dual.value
    if not np.finfo(float).tiny <= x * x < np.inf:
        raise NumericError(f"dual trace root x={x!r} has no representable square")
    largest = float(np.max(precision)) + x  # the largest (1/tau + x), squared below
    if not largest * largest < np.inf:
        raise NumericError(f"curvature term (1/tau + x)^2 overflows at 1/tau + x = {largest:.3e}")
    with np.errstate(over="ignore"):  # each term is at most 1 / x^2; their sum can overflow
        curvature = ratio / truth.p * float(np.sum(1.0 / (precision + x) ** 2))
    if curvature == np.inf:
        raise NumericError(f"curvature sum (ratio/p) * sum((1/tau + x)^-2) overflows at x={x!r}")
    denominator = 1.0 / x**2 - curvature
    if denominator <= 0.0:
        raise ValueError("inconsistent input: nonpositive curvature denominator")
    return dual, 1.0 / denominator


def _equivalent(
    truth: CovarianceModel, ratio: float
) -> tuple[np.ndarray, float, RootInfo | None, float | None]:
    """Deterministic equivalent of inv(S) (ratio < 1) or pinv(S) (ratio > 1).

    Returns its diagonal (it commutes with Sigma), the limit of its squared
    Frobenius norm, and above 1 (None below) the dual trace root x and the
    curvature factor x' that fix it (Bodnar, Dette & Parolya 2016). Below 1
    it is inv(Sigma) / (1 - ratio); above 1 it is
    x' (x Sigma + I)^{-1} Sigma (x Sigma + I)^{-1}, with norm limit
    (p/ratio) x'. A weighted trace limit is sum(diagonal * diag(theta)):
    numpy's pairwise sum keeps it as accurate as the dense trace, where a
    BLAS dot product moved the limiting weights by up to 2e-13 relative.
    A diagonal whose x' tau or (x tau + 1)^2 overflows raises :class:`NumericError`.
    """
    if ratio < 1.0:
        return truth.inverse_eigenvalues / (1.0 - ratio), _inverse_frobenius_lt1(
            truth.precision_frobenius_sq, truth.precision_trace_norm, ratio, truth.p), None, None
    dual, x_prime = _dual(truth, ratio)
    x, tau = dual.value, truth.eigenvalues
    largest = float(np.max(tau))  # both terms grow with tau
    scaled = x * largest + 1.0
    if not (x_prime * largest < np.inf and scaled * scaled < np.inf):
        raise NumericError(f"pseudo-inverse equivalent overflows: x' tau = {x_prime * largest:.3e}, "
                           f"x tau + 1 = {scaled:.3e}")
    return x_prime * tau / (x * tau + 1.0) ** 2, truth.p / ratio * x_prime, dual, x_prime


def dual_inverse_trace_limit(truth: CovarianceModel, ratio: float) -> float:
    """Root x of 1/x = (ratio/p) tr[(inv(Sigma) + x I)^{-1}], ratio > 1.

    (1/p) tr(pinv(S)) converges to x / ratio; equivalently x is the limit of
    the normalized trace of the inverse dual sample covariance.
    """
    _require_gt1(ratio, "dual_inverse_trace_limit")
    return _solve_self_consistent(truth.inverse_eigenvalues, ratio).value


def dual_inverse_frobenius_limit(truth: CovarianceModel, ratio: float) -> float:
    """Limit x' with (1/p) * squared Frobenius norm of pinv(S) -> x' / ratio."""
    _require_gt1(ratio, "dual_inverse_frobenius_limit")
    return _dual(truth, ratio)[1]


def _weighted_dual_info(truth: CovarianceModel, target: TargetMatrix, ratio: float) -> RootInfo:
    """Self-consistent root weighted by the target's congruence with Sigma^{-1/2}.

    An isotropic-case shortcut: it reproduces the classical pseudo-inverse
    trace limits when T is proportional to Sigma; the exact equivalent of
    tr(T @ pinv(S)) for general pairs is :func:`pinv_weighted_trace_limit`.
    """
    if target.diagonal is not None:
        d = np.sort(target.diagonal / truth.eigenvalues)
    else:
        s = 1.0 / np.sqrt(truth.eigenvalues)
        congruence = s[:, None] * target.matrix * s[None, :]
        d = np.linalg.eigvalsh((congruence + congruence.T) / 2.0)
    return _solve_self_consistent(d, ratio)


def pinv_weighted_trace_limit(truth: CovarianceModel, theta: np.ndarray, ratio: float) -> float:
    """Almost-sure limit of tr(theta @ pinv(S)) for ratio > 1.

    Exact for any symmetric theta with bounded spectral norm, including the
    non-commuting and rank-one cases where the self-consistent equation's
    solution is only an isotropic-case shortcut. Reduces to the dual trace
    root times p/ratio when theta is the identity.
    """
    _require_gt1(ratio, "pinv_weighted_trace_limit")
    theta = np.asarray(theta, dtype=float)
    require_shape(theta, (truth.p, truth.p), "theta")
    return float(np.sum(_equivalent(truth, ratio)[0] * np.diagonal(theta)))


def pinv_bilinear_limit(
    truth: CovarianceModel, xi: np.ndarray, eta: np.ndarray, ratio: float
) -> float:
    """Almost-sure limit of the bilinear form eta' pinv(S) xi, ratio > 1."""
    _require_gt1(ratio, "pinv_bilinear_limit")
    xi = np.asarray(xi, dtype=float).reshape(-1)
    eta = np.asarray(eta, dtype=float).reshape(-1)
    require_shape(xi, (truth.p,), "xi")
    require_shape(eta, (truth.p,), "eta")
    return float((eta * _equivalent(truth, ratio)[0]) @ xi)


def _limit_weights(
    truth: CovarianceModel, target: TargetMatrix, equivalent: np.ndarray, inv_frobenius_eq: float
) -> ShrinkageWeights:
    """Oracle normal equations fed the diagonal ``equivalent`` of the sample
    (pseudo-)inverse's deterministic equivalent and its squared norm limit.

    Sigma is diagonal, so each trace reads only the target's diagonal. At
    ``T = inv(Sigma)`` the paired traces are equal floats: weights exactly (0, 1).
    """
    precision = truth.inverse_eigenvalues
    theta = target.diagonal if target.diagonal is not None else np.diagonal(target.matrix)
    with np.errstate(over="ignore"):
        traces = (trace_product(equivalent, precision), trace_product(precision, theta),
                  trace_product(equivalent, theta))
    if not max(traces) < np.inf:  # every term is positive
        raise NumericError(f"limit traces overflow: {', '.join(f'{t:.3e}' for t in traces)}")
    return optimal_weights_from_functionals(*traces, inv_frobenius_eq, target.frobenius_sq)


def limit_weights(truth: CovarianceModel, target: TargetMatrix, ratio: float) -> ShrinkageWeights:
    """Almost-sure limits of the oracle shrinkage weights for any ratio other than 1.

    Substitutes the deterministic equivalent of inv(S) (ratio < 1) or pinv(S)
    (ratio > 1), with its squared Frobenius norm limit, into the oracle normal
    equations, keeping every finite-p factor so the limits match the averaged
    oracle weights. Below 1, alpha always lands in (0, 1 - ratio) and beta
    stays positive for non-degenerate targets; in both regimes the weights are
    exactly (0, 1) when the target equals the true precision.
    """
    _require_ratio(ratio)
    require_shape(target, (truth.p, truth.p), "target")
    return _limit_weights(truth, target, *_equivalent(truth, ratio)[:2])


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
    _require_ratio(ratio)
    below = ratio < 1.0
    inverse_frobenius = inverse_frobenius_limit(spec, ratio) if below and spec is not None else None
    dual = x_prime = target_dual = weights = None
    if target is not None:  # the diagonal equivalent enters only the weights
        require_shape(target, (truth.p, truth.p), "target")
        equivalent, inv_frobenius_eq, dual, x_prime = _equivalent(truth, ratio)
        if not below:
            target_dual = _weighted_dual_info(truth, target, ratio)
        weights = _limit_weights(truth, target, equivalent, inv_frobenius_eq)
    elif not below:
        dual, x_prime = _dual(truth, ratio)
    return LimitFunctionals(ratio=ratio, inverse_frobenius=inverse_frobenius, dual=dual,
                            dual_frobenius=x_prime, target_dual=target_dual, weights=weights)
