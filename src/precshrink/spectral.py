"""Population covariance models built from discrete eigenvalue spectra.

Every model is diagonal in the standard basis: the spectrum alone defines it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import frobenius_sq

WEIGHT_SUM_TOL = 1e-12


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
        object.__setattr__(self, "atoms", atoms)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.atoms])

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.atoms])

    def inverted(self) -> "SpectrumSpec":
        """Spectrum of the inverse matrix: same weights, reciprocal values."""
        return SpectrumSpec(tuple((w, 1.0 / v) for w, v in self.atoms))

    @classmethod
    def identity(cls) -> "SpectrumSpec":
        return cls(((1.0, 1.0),))

    @classmethod
    def isotropic(cls, scale: float) -> "SpectrumSpec":
        return cls(((1.0, float(scale)),))


def spectral_moments(spec: SpectrumSpec) -> tuple[float, float]:
    """First and second inverse moments of the spectrum: sum w/v, sum w/v^2."""
    w = spec.weights
    v = spec.values
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


def realize_eigenvalues(spec: SpectrumSpec, p: int) -> np.ndarray:
    """Ascending length-p eigenvalue vector realizing the spectrum weights."""
    if p < 1:
        raise ValueError(f"dimension must be >= 1, got {p}")
    counts = apportion_counts(spec.weights, p)
    return np.sort(np.repeat(spec.values, counts))


@dataclass(frozen=True)
class CovarianceModel:
    """Diagonal population covariance with cached precision and norms.

    The model is diagonal in the standard basis: ``eigenvalues`` are ascending
    and ``sigma``/``precision`` are ``diag(eigenvalues)`` and its inverse.
    Immutable after construction.
    """

    eigenvalues: np.ndarray
    sigma: np.ndarray
    precision: np.ndarray
    precision_frobenius_sq: float
    precision_trace_norm: float

    @property
    def p(self) -> int:
        return self.eigenvalues.size

    @classmethod
    def from_eigenvalues(cls, eigenvalues) -> "CovarianceModel":
        tau = np.sort(np.asarray(eigenvalues, dtype=float))
        if tau.size < 1:
            raise ValueError("need at least one eigenvalue")
        if np.any(tau <= 0.0) or not np.all(np.isfinite(tau)):
            raise ValueError("covariance eigenvalues must be finite and positive")
        precision = np.diag(1.0 / tau)
        return cls(
            eigenvalues=tau,
            sigma=np.diag(tau),
            precision=precision,
            precision_frobenius_sq=frobenius_sq(precision),
            precision_trace_norm=float(np.trace(precision)),
        )

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
