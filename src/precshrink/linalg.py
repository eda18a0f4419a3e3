"""Dense symmetric linear algebra kernels.

Sample covariance, symmetric eigendecomposition, inverse / Moore-Penrose
pseudo-inverse via the spectral route, the trace and Frobenius helpers used
by the estimators, and the switch to single-threaded BLAS that replication
work runs under.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError, SingularMatrixError

REGIME_INVERTIBLE = "invertible"
REGIME_PSEUDO = "pseudo"

SYMMETRY_TOL = 1e-12


# Thread-count setters of the OpenBLAS builds that the numpy (ILP64, "64_"
# suffix) and scipy wheels bundle, newest naming first.
_OPENBLAS_SET_NUM_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _bundled_openblas() -> list:
    """The OpenBLAS libraries in the ``numpy.libs`` and ``scipy.libs`` folders
    of the installed wheels, loaded through ``ctypes``; empty when the wheels
    bundle another BLAS (MKL, Accelerate) or none."""
    import ctypes
    import glob
    import os

    import scipy

    libraries = []
    for package in (np, scipy):
        libs_dir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                                f"{package.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
            libraries.append(ctypes.CDLL(path))
    return libraries


def use_single_threaded_blas() -> None:
    """Set every bundled OpenBLAS build to one thread, for the rest of the process.

    Monte Carlo replications run many small (p <= a few hundred) dense
    products, eigendecompositions and solves, often from several worker
    threads at once; OpenBLAS threads nested inside them mostly spin and
    wait. One BLAS thread makes them several times faster and makes their
    results independent of the machine's core count and of
    ``OPENBLAS_NUM_THREADS``.

    The setting is never restored: every later BLAS call in the process, from
    any caller, runs on one thread. Restoring it after each grid point would
    make OpenBLAS wake and spin its threads again. Does nothing when no
    OpenBLAS build is found.
    """
    import ctypes

    for library in _bundled_openblas():
        for symbol in _OPENBLAS_SET_NUM_THREADS:
            setter = getattr(library, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


def frobenius_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm, sum of squared entries.

    Raises :class:`NumericError` when the sum overflows, so that no weight or
    loss is computed from an infinite norm.
    """
    with np.errstate(over="ignore"):
        value = float(np.sum(a * a))
    if value == np.inf:
        raise NumericError(
            f"squared Frobenius norm overflows (largest magnitude {float(np.max(np.abs(a))):.3e})"
        )
    return value


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """tr(a @ b) computed elementwise; requires b (or a) symmetric."""
    return float(np.sum(a * b))


def is_symmetric(a: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    return bool(np.max(np.abs(a - a.T)) <= SYMMETRY_TOL * scale)


def symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


@dataclass(frozen=True)
class DataMatrix:
    """Observed p x n data matrix: rows are variables, columns observations."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"data matrix must be 2-dimensional, got ndim={v.ndim}")
        if v.shape[0] < 1 or v.shape[1] < 2:
            raise ValueError(f"data matrix needs p >= 1 and n >= 2, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("data matrix contains non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SampleStats:
    """Sample covariance with its eigendecomposition and inverse eigenvalues.

    ``eigenvalues`` are ascending, ``eigenvectors`` holds the matching
    orthonormal eigenvectors as columns. ``inverse_eigenvalues`` are their
    reciprocals, with 0 for every eigenvalue at or below the rank tolerance
    (there is none when p < n), so ``U diag(inverse_eigenvalues) U'`` is the
    plain inverse when p < n and the Moore-Penrose pseudo-inverse otherwise.
    That dense ``p x p`` matrix, ``inverse``, is formed on first access only;
    the norms below come from the inverse eigenvalues. Instances are
    immutable and safe to share across threads.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    inverse_eigenvalues: np.ndarray
    n: int

    @property
    def p(self) -> int:
        return self.eigenvalues.size

    @property
    def ratio(self) -> float:
        return self.p / self.n

    @property
    def regime(self) -> str:
        return REGIME_INVERTIBLE if self.p < self.n else REGIME_PSEUDO

    @property
    def inverse_trace_norm(self) -> float:
        return float(np.sum(self.inverse_eigenvalues))

    @property
    def inverse_frobenius_sq(self) -> float:
        """Squared Frobenius norm of ``inverse``: the sum of squared inverse eigenvalues."""
        return frobenius_sq(self.inverse_eigenvalues)

    @cached_property
    def inverse(self) -> np.ndarray:
        u = self.eigenvectors
        if self.p < self.n:  # one rounding per entry, not two
            return symmetrize((u / self.eigenvalues) @ u.T)
        return symmetrize((u * self.inverse_eigenvalues) @ u.T)


def rank_tolerance(eigenvalues: np.ndarray, p: int) -> float:
    """Cutoff below which an eigenvalue is treated as zero: p * eps * max."""
    largest = float(eigenvalues[-1]) if eigenvalues.size else 0.0
    return p * np.finfo(float).eps * max(largest, 0.0)


def sample_covariance(data, center: bool = False) -> SampleStats:
    """Form S = (1/n) Y Y' and its eigendecomposition.

    No mean subtraction is performed unless ``center`` is set; centering is a
    convenience for real data and keeps the 1/n normalization.

    The regime is ``invertible`` iff p < n; p >= n yields the ``pseudo``
    regime. A rank deficient S with p < n raises :class:`SingularMatrixError`
    rather than silently falling back to the pseudo-inverse. Data whose Gram
    matrix overflows raises :class:`NumericError`, and so does data so small
    that twice the sum of the kept eigenvalues' reciprocals overflows: below
    that bound ``inverse_trace_norm`` and every entry of ``inverse``, before
    and after symmetrizing, are finite.

    ``y @ y.T`` is formed by a symmetric rank-k update that mirrors one
    triangle, so S is exactly symmetric without a symmetrizing pass. Data
    whose columns are not unit-strided is copied first: numpy would form its
    product by a general routine that does not mirror.
    """
    if not isinstance(data, DataMatrix):
        data = DataMatrix(np.asarray(data, dtype=float))
    y = data.values if data.values.flags.forc else np.ascontiguousarray(data.values)
    p, n = data.p, data.n
    with np.errstate(over="ignore", invalid="ignore"):
        if center:
            y = y - y.mean(axis=1, keepdims=True)
        s = (y @ y.T) / n
    if not np.all(np.isfinite(s)):
        raise NumericError(
            f"sample covariance overflows (largest data magnitude "
            f"{float(np.max(np.abs(data.values))):.3e})"
        )
    eigenvalues, eigenvectors = np.linalg.eigh(s)
    tol = rank_tolerance(eigenvalues, p)
    positive = eigenvalues > tol
    if p < n and not positive[0]:
        raise SingularMatrixError(
            f"sample covariance is numerically singular (min eigenvalue "
            f"{eigenvalues[0]:.3e} <= tolerance {tol:.3e}) although p={p} < n={n}"
        )
    if not np.any(positive):
        warnings.warn(
            "all eigenvalues below rank tolerance; pseudo-inverse is degenerate "
            "(zero matrix)",
            RuntimeWarning,
            stacklevel=2,
        )
    with np.errstate(over="ignore"):
        inverse_eigenvalues = np.where(positive, 1.0, 0.0) / np.where(positive, eigenvalues, 1.0)
        overflows = 2.0 * np.sum(inverse_eigenvalues) == np.inf  # S is near underflow
    if overflows:
        raise NumericError(
            f"sample covariance is too small to invert: kept eigenvalue "
            f"{eigenvalues[positive][0]:.3e}, largest data magnitude "
            f"{float(np.max(np.abs(data.values))):.3e}"
        )
    return SampleStats(s, eigenvalues, eigenvectors, inverse_eigenvalues, n)
