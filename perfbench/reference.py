"""Plain-numpy reference results for the benchmark's correctness gate.

Nothing here imports precshrink. The Monte Carlo reference redraws one
replication's data from the same counter-based stream the package documents
(Philox keyed by (seed, p, replication)), inverts S with ``inv``/``pinv``,
applies the closed-form shrinkage weights and takes dense Frobenius losses.
The limits reference solves the self-consistent equation by bracketing and
assembles the limiting weights from a 2x2 linear solve.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

# Relative tolerance of every reference comparison. The package and the
# reference invert S by different routes (eigendecomposition against LU), so
# results agree to about cond(S) * eps, far inside this bound.
RTOL = 1e-8

IDENTITY = ((1.0, 1.0),)
THREE_BLOCK = ((0.2, 1.0), (0.4, 3.0), (0.4, 10.0))
PRIOR2 = ((0.2, 1.0), (0.4, 2.0), (0.4, 4.0))
PRIOR4 = ((0.2, 0.1), (0.4, 1.0), (0.4, 1000.0))
SPECTRA = {"identity": IDENTITY, "threeblock": THREE_BLOCK, "prior2": PRIOR2, "prior4": PRIOR4}


def realize(atoms, p: int) -> np.ndarray:
    """Ascending eigenvalues: each atom gets round(weight * p) slots."""
    counts = [int(round(w * p)) for w, _ in atoms]
    if sum(counts) != p:
        raise ValueError(f"benchmark grids use p where weight * p is whole, got p={p}")
    return np.sort(np.repeat([v for _, v in atoms], counts))


def close(actual: float, expected: float, rtol: float = RTOL) -> bool:
    return bool(np.isfinite(actual)) and abs(actual - expected) <= rtol * max(abs(expected), 1e-300)


def _frobenius_loss(estimate, precision_diag) -> float:
    diff = estimate - np.diag(precision_diag)
    return float(np.sum(diff * diff))


def mc_replication(seed: int, p: int, replication: int, ratio: float, targets: dict[str, tuple]):
    """Losses and weights of one replication, keyed like ReplicationResult.

    ``targets`` maps a target name to (precision target diagonal, covariance
    target diagonal).
    """
    n = int(round(p / ratio))
    tau = realize(THREE_BLOCK, p)
    precision = 1.0 / tau
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, p, replication))))
    y = np.sqrt(tau)[:, None] * rng.standard_normal((p, n))
    s = (y @ y.T) / n
    s = (s + s.T) / 2.0
    invertible = p < n
    s_inv = np.linalg.inv(s) if invertible else np.linalg.pinv(s, hermitian=True)
    f = float(np.sum(s_inv * s_inv))
    losses, weights = {}, {}
    losses["sample_inv" if invertible else "sample_pinv"] = _frobenius_loss(s_inv, precision)

    _, u = np.linalg.eigh(s)
    ev_diag = np.einsum("ij,ij->j", u, precision[:, None] * u)
    losses["ev_oracle"] = _frobenius_loss((u * ev_diag) @ u.T, precision)

    for name, (t_prec, t_cov) in targets.items():
        g = float(np.sum(t_prec**2))
        cross = float(np.diag(s_inv) @ t_prec)
        det = f * g - cross**2
        if invertible:
            slack = 1.0 - p / n
            alpha = slack - (float(np.trace(s_inv)) ** 2 / n) * g / det
            beta = cross / g * (slack - alpha)
            row = f"olse_precision[{name}]"
            losses[row] = _frobenius_loss(alpha * s_inv + beta * np.diag(t_prec), precision)
            weights[row] = (alpha, beta)
        a = float(np.diag(s_inv) @ precision)
        b = float(precision @ t_prec)
        alpha = (a * g - b * cross) / det
        beta = (b * f - a * cross) / det
        row = f"olse_precision_oracle[{name}]"
        losses[row] = _frobenius_loss(alpha * s_inv + beta * np.diag(t_prec), precision)
        weights[row] = (alpha, beta)

        fs = float(np.sum(s * s))
        gs = float(np.sum(t_cov**2))
        cross_s = float(np.diag(s) @ t_cov)
        alpha = 1.0 - (float(np.trace(s)) ** 2 / n) * gs / (fs * gs - cross_s**2)
        beta = cross_s / gs * (1.0 - alpha)
        row = f"olse_cov_inv[{name}]"
        losses[row] = _frobenius_loss(np.linalg.inv(alpha * s + beta * np.diag(t_cov)), precision)
        weights[row] = (alpha, beta)
    return losses, weights


def bona_fide(y: np.ndarray, target_diag: np.ndarray):
    """Bona fide weights and estimate for p x n data with a diagonal target."""
    p, n = y.shape
    s = (y @ y.T) / n
    s_inv = np.linalg.inv((s + s.T) / 2.0)
    f = float(np.sum(s_inv * s_inv))
    g = float(np.sum(target_diag**2))
    cross = float(np.diag(s_inv) @ target_diag)
    slack = 1.0 - p / n
    alpha = slack - (float(np.trace(s_inv)) ** 2 / n) * g / (f * g - cross**2)
    beta = cross / g * (slack - alpha)
    return alpha, beta, alpha * s_inv + beta * np.diag(target_diag)


def _dual_root(d: np.ndarray, ratio: float) -> float:
    """Root x > 0 of 1/x = (ratio/p) * sum 1/(d + x); closed form for constant d."""
    if np.all(d == d[0]):
        return float(np.mean(d)) / (ratio - 1.0)
    p = d.size
    return brentq(lambda x: 1.0 / x - ratio / p * np.sum(1.0 / (d + x)), 1e-12, 1e12,
                  xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)


def limits(spectrum: str, ratio: float, p: int, target_spectrum: str) -> dict[str, float]:
    """Expected ``precshrink limits`` output for an inverse-of-spectrum target."""
    tau = realize(SPECTRA[spectrum], p)
    precision = 1.0 / tau
    target = 1.0 / realize(SPECTRA[target_spectrum], p)
    out = {}
    if ratio < 1.0:
        w = np.array([a[0] for a in SPECTRA[spectrum]])
        v = np.array([a[1] for a in SPECTRA[spectrum]])
        m1, m2 = float(np.sum(w / v)), float(np.sum(w / v**2))
        out["inverse_frobenius_limit"] = m2 / (1 - ratio) ** 2 + ratio * m1**2 / (1 - ratio) ** 3
        f, t = float(np.sum(precision**2)), float(np.sum(precision))
        inv_truth = f / (1 - ratio)
        inv_target = float(precision @ target) / (1 - ratio)
        inv_frob = f / (1 - ratio) ** 2 + ratio * t**2 / (p * (1 - ratio) ** 3)
    else:
        x = _dual_root(precision, ratio)
        x_prime = 1.0 / (1.0 / x**2 - ratio / p * float(np.sum(1.0 / (precision + x) ** 2)))
        out["dual_trace_limit"] = x
        out["dual_frobenius_limit"] = x_prime
        out["pinv_trace_limit"] = x / ratio
        out["pinv_frobenius_limit"] = x_prime / ratio
        out["target_dual_trace_limit"] = _dual_root(target * precision, ratio)
        equivalent = x_prime * tau / (x * tau + 1.0) ** 2
        inv_truth = float(equivalent @ precision)
        inv_target = float(equivalent @ target)
        inv_frob = p / ratio * x_prime
    normal = np.array([[inv_frob, inv_target], [inv_target, float(target @ target)]])
    rhs = np.array([inv_truth, float(precision @ target)])
    out["alpha"], out["beta"] = (float(v) for v in np.linalg.solve(normal, rhs))
    return out
