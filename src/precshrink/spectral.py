"""Population covariance models built from discrete eigenvalue spectra.

Every model is diagonal in the standard basis: the spectrum alone defines it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import frobenius_sq

WEIGHT_SUM_TOL = 1e-12
# Eigenvalues must exceed this, the largest float whose squared reciprocal
# overflows: precision norms and inverse spectral moments sum 1 / tau^2.
RECIPROCAL_FLOOR = np.finfo(float).max ** -0.5


@dataclass(frozen=True)
class SpectrumSpec:
    """Discrete eigenvalue distribution given as weighted point masses.

    ``atoms`` is a sequence of (weight, eigenvalue) pairs. Weights must sum
    to one and every eigenvalue must be strictly positive, so the spectrum
    stays bounded away from zero.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((float(w), float(v)) for w, v in self.atoms)
        if not atoms:
            raise ValueError("spectrum needs at least one atom")
        weights = np.array([w for w, _ in atoms])
        values = np.array([v for _, v in atoms])
        if not np.all((weights >= 0.0) & (weights <= 1.0)):  # NaN fails too
            raise ValueError("atom weights must lie in [0, 1]")
        if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"atom weights must sum to 1, got {weights.sum()!r}")
        if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
            raise ValueError("atom eigenvalues must be finite and strictly positive")
        _require_finite_reciprocal(values, "atom")
        object.__setattr__(self, "atoms", atoms)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.atoms])

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.atoms])

    @classmethod
    def identity(cls) -> "SpectrumSpec":
        return cls(((1.0, 1.0),))

    @classmethod
    def isotropic(cls, scale: float) -> "SpectrumSpec":
        return cls(((1.0, float(scale)),))


def _require_finite_reciprocal(values: np.ndarray, what: str) -> None:
    tiny = values[values <= RECIPROCAL_FLOOR]
    if tiny.size:
        raise ValueError(
            f"{what} eigenvalue {float(tiny[0])!r} is too small: its squared reciprocal overflows"
        )


def spectral_moments(spec: SpectrumSpec) -> tuple[float, float]:
    """First and second inverse moments of the spectrum: sum w/v, sum w/v^2.

    A square that overflows gives w/v^2 = 0, which is right: the true value
    lies below the smallest normal double.
    """
    w = spec.weights
    v = spec.values
    with np.errstate(over="ignore"):
        return float(np.sum(w / v)), float(np.sum(w / v**2))


def apportion_counts(weights: np.ndarray, p: int) -> np.ndarray:
    """Largest-remainder apportionment of p slots to fractional weights.

    Remainder ties are broken by atom order, so the result is deterministic.
    """
    quota = np.asarray(weights, dtype=float) * p
    base = np.floor(quota + 1e-9).astype(int)
    remainder = quota - base
    extra = p - int(base.sum())
    if extra > 0:
        order = np.argsort(-remainder, kind="stable")
        base[order[:extra]] += 1
    return base


def require_dimension(p: int) -> None:
    """The one check of a dimension: a ValueError unless ``p >= 1``."""
    if p < 1:
        raise ValueError(f"p must be at least 1, got {p}")


def realize_eigenvalues(spec: SpectrumSpec, p: int) -> np.ndarray:
    """Ascending eigenvalues, p of them, realizing the spectrum weights."""
    require_dimension(p)
    counts = apportion_counts(spec.weights, p)
    return np.sort(np.repeat(spec.values, counts))


@dataclass(frozen=True)
class CovarianceModel:
    """Diagonal population covariance, defined by its eigenvalues alone.

    The ascending ``eigenvalues`` are its diagonal in the standard basis. The
    precision ``diag(1 / eigenvalues)`` and its norms are derived on access,
    from the diagonal ``inverse_eigenvalues``, computed once at first read.
    Immutable after construction.
    """

    eigenvalues: np.ndarray

    p = property(lambda self: self.eigenvalues.size)
    inverse_eigenvalues = cached_property(lambda self: 1.0 / self.eigenvalues)
    precision = property(lambda self: np.diag(self.inverse_eigenvalues))
    precision_frobenius_sq = property(lambda self: frobenius_sq(self.inverse_eigenvalues))
    precision_trace_norm = property(lambda self: float(np.sum(self.inverse_eigenvalues)))

    @classmethod
    def from_eigenvalues(cls, eigenvalues) -> "CovarianceModel":
        tau = np.sort(np.asarray(eigenvalues, dtype=float))
        if tau.size < 1:
            raise ValueError("need at least one eigenvalue")
        if np.any(tau <= 0.0) or not np.all(np.isfinite(tau)):
            raise ValueError("covariance eigenvalues must be finite and positive")
        _require_finite_reciprocal(tau, "covariance")
        return cls(tau)

    @classmethod
    def isotropic(cls, p: int, scale: float) -> "CovarianceModel":
        return cls.from_eigenvalues(np.full(p, float(scale)))


def build_covariance(spec: SpectrumSpec, p: int) -> CovarianceModel:
    """Realize a spectrum at dimension p as a diagonal covariance model.

    Eigenvalue multiplicities follow largest-remainder apportionment of
    weight * p, so the empirical spectrum converges to the specified
    distribution as p grows.
    """
    return CovarianceModel.from_eigenvalues(realize_eigenvalues(spec, p))
