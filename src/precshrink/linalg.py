"""Dense symmetric linear algebra kernels.

Sample covariance, symmetric eigendecomposition, every inverse the package
forms (the sample inverse by LU, the Moore-Penrose pseudo-inverse via the
spectral route, a symmetric inverse by Cholesky), the trace and Frobenius
helpers used by the estimators, the switch to single-threaded BLAS that
replication work runs under, and the release of OpenBLAS's idle workers.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError, SingularMatrixError

SYMMETRY_TOL = 1e-12
EPS = float(np.finfo(float).eps)
# sample_inverse keeps its LU inverse only when ||inv(S)||_F ||S||_F is below
# 1 / (p eps) by this factor, which covers the rounding of both routes.
INVERSE_MARGIN = 16.0


# Thread-count setters of the OpenBLAS builds that the numpy (ILP64, "64_"
# suffix) and scipy wheels bundle, newest naming first.
_OPENBLAS_SET_NUM_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _openblas_paths(packages) -> list[str]:
    """Paths of the OpenBLAS libraries in the ``<package>.libs`` folders where
    the numpy and scipy wheels bundle them; empty when the wheels bundle
    another BLAS (MKL, Accelerate) or none."""
    paths = []
    for package in packages:
        libs_dir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                                f"{package.__name__}.libs")
        if os.path.isdir(libs_dir):
            paths += sorted(os.path.join(libs_dir, name) for name in os.listdir(libs_dir)
                            if "openblas" in name)
    return paths


def _bundled_openblas() -> list:
    """The bundled OpenBLAS libraries of numpy and scipy, loaded through ``ctypes``."""
    import scipy

    return [ctypes.CDLL(path) for path in _openblas_paths((np, scipy))]


def _loaded_openblas() -> list:
    """The bundled OpenBLAS libraries this process has already loaded: scipy's
    only once scipy is imported. Each is opened with ``RTLD_NOLOAD``, so this
    imports and loads nothing; where the platform has no such flag, it
    returns none."""
    if not hasattr(os, "RTLD_NOLOAD"):
        return []
    libraries = []
    packages = [package for package in (np, sys.modules.get("scipy")) if package is not None]
    for path in _openblas_paths(packages):
        try:
            libraries.append(ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_NOW))
        except OSError:  # not loaded in this process
            pass
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
    for library in _bundled_openblas():
        for symbol in _OPENBLAS_SET_NUM_THREADS:
            setter = getattr(library, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


def release_blas_threads() -> None:
    """Stop the idle worker threads of every bundled OpenBLAS build already loaded.

    After a multi-threaded call OpenBLAS keeps its workers spinning for about
    0.1 s in case another call follows, so a command whose linear algebra is
    done would keep a second core busy while it writes its output. This calls
    each build's ``blas_thread_shutdown_``; the thread count is kept, and the
    next multi-threaded call starts the workers again. It imports and loads
    nothing (see :func:`_loaded_openblas`). It does nothing while any other
    Python thread is alive, since stopping the workers under another thread's
    BLAS call is unsafe, and nothing for a build without the symbol.
    """
    if threading.active_count() > 1:
        return
    for library in _loaded_openblas():
        shutdown = getattr(library, "blas_thread_shutdown_", None)
        if shutdown is not None:
            shutdown.argtypes = []
            shutdown.restype = ctypes.c_int
            shutdown()


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


def require_shape(value, shape: tuple, what: str) -> None:
    """The one wrong-size check: a ValueError unless ``value.shape == shape``."""
    if value.shape != shape:
        raise ValueError(f"{what} has shape {value.shape}, expected {shape}")


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
    def inverse_trace_norm(self) -> float:
        return float(np.sum(self.inverse_eigenvalues))

    @property
    def inverse_frobenius_sq(self) -> float:
        """Squared Frobenius norm of ``inverse``: the sum of squared inverse eigenvalues."""
        return frobenius_sq(self.inverse_eigenvalues)

    @cached_property
    def inverse(self) -> np.ndarray:
        u = self.eigenvectors
        return symmetrize((u * self.inverse_eigenvalues) @ u.T)


@dataclass(frozen=True)
class SampleInverse:
    """inv(S) of p < n data with its trace and squared Frobenius norm, and no
    eigendecomposition. ``p``, ``n``, ``ratio``, ``inverse``,
    ``inverse_trace_norm`` and ``inverse_frobenius_sq`` read as those of
    :class:`SampleStats` do; made by :func:`sample_inverse`."""

    inverse: np.ndarray
    inverse_trace_norm: float
    inverse_frobenius_sq: float
    n: int

    p = property(lambda self: self.inverse.shape[0])
    ratio = property(lambda self: self.p / self.n)


def rank_tolerance(eigenvalues: np.ndarray, p: int) -> float:
    """Cutoff below which an eigenvalue is treated as zero: p * eps * max."""
    largest = float(eigenvalues[-1]) if eigenvalues.size else 0.0
    return p * EPS * max(largest, 0.0)


def sample_covariance(data, center: bool = False) -> SampleStats:
    """Form S = (1/n) Y Y' and its eigendecomposition.

    No mean subtraction is performed unless ``center`` is set; centering is a
    convenience for real data and keeps the 1/n normalization.

    ``inverse`` is the plain inverse when p < n and the pseudo-inverse when
    p >= n. A rank deficient S with p < n raises :class:`SingularMatrixError`
    rather than silently falling back to the pseudo-inverse. Data whose Gram
    matrix overflows raises :class:`NumericError`, and so does data so small
    that twice the sum of the kept eigenvalues' reciprocals overflows: below
    that bound ``inverse_trace_norm`` and every entry of ``inverse``, before
    and after symmetrizing, are finite. Nonzero (centered) data whose S
    underflows to zero raises :class:`NumericError` too; only all-zero data
    gets the zero pseudo-inverse, with a ``RuntimeWarning``.

    ``y @ y.T`` is formed by a symmetric rank-k update that mirrors one
    triangle, so S is exactly symmetric without a symmetrizing pass. Data
    whose columns are not unit-strided is copied first: numpy would form its
    product by a general routine that does not mirror.
    """
    return _spectral_stats(*_gram(data, center))


def _gram(data, center: bool) -> tuple[DataMatrix, np.ndarray, np.ndarray]:
    """The data, its (centered) values and S = (1/n) Y Y', refusing an S that overflows."""
    if not isinstance(data, DataMatrix):
        data = DataMatrix(np.asarray(data, dtype=float))
    y = data.values if data.values.flags.forc else np.ascontiguousarray(data.values)
    with np.errstate(over="ignore", invalid="ignore"):
        if center:
            y = y - y.mean(axis=1, keepdims=True)
        s = (y @ y.T) / data.n
    if not np.all(np.isfinite(s)):
        raise NumericError(
            f"sample covariance overflows (largest data magnitude "
            f"{float(np.max(np.abs(data.values))):.3e})"
        )
    return data, y, s


def _spectral_stats(data: DataMatrix, y: np.ndarray, s: np.ndarray) -> SampleStats:
    """Eigendecompose S, with the rank checks of :func:`sample_covariance`."""
    p, n = data.p, data.n
    eigenvalues, eigenvectors = np.linalg.eigh(s)
    tol = rank_tolerance(eigenvalues, p)
    positive = eigenvalues > tol
    if not positive[-1] and np.any(y):  # S is zero, although its data is not
        raise NumericError(f"sample covariance underflows: largest data magnitude "
                           f"{float(np.max(np.abs(y))):.3e}")
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
            stacklevel=3,
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


def sample_inverse(data, center: bool = False) -> SampleInverse | SampleStats:
    """inv(S) with its trace and squared Frobenius norm, by LU when p < n.

    Forms S as :func:`sample_covariance` does, inverts it with
    ``np.linalg.inv`` and symmetrizes the result, about twice as fast as
    ``eigh`` at p = 400. The inverse is kept only when a sufficient test
    passes: ``||inv(S)||_F ||S||_F`` lies below ``1 / (p eps)`` by the factor
    ``INVERSE_MARGIN``. Since ``lambda_min >= 1 / ||inv(S)||_F`` and
    ``lambda_max <= ||S||_F``, a pass means that S is well inside the
    eigenvalue check of :func:`sample_covariance`, ``lambda_min > p eps
    lambda_max``. A singular or non-finite inverse, a trace whose double
    overflows, or a failed test falls back to :func:`sample_covariance`'s
    eigendecomposition, whose errors and messages this function therefore
    shares. At p >= n it always returns that :class:`SampleStats`, so its
    ``inverse`` is the pseudo-inverse and its ``inverse_eigenvalues`` give
    the rank; the p >= n estimators read both.
    """
    data, y, s = _gram(data, center)
    if data.p < data.n:
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                inverse = symmetrize(np.linalg.inv(s))
            except np.linalg.LinAlgError:  # exactly singular
                return _spectral_stats(data, y, s)
            trace = float(np.trace(inverse))
            inverse_sq, covariance_sq = float(np.sum(inverse * inverse)), float(np.sum(s * s))
        # Below the smallest normal double, squares of S can round to zero.
        if (2.0 * trace < np.inf and covariance_sq >= np.finfo(float).tiny
                and inverse_sq * covariance_sq * (INVERSE_MARGIN * data.p * EPS) ** 2 < 1.0):
            return SampleInverse(inverse, trace, inverse_sq, data.n)
    return _spectral_stats(data, y, s)


def require_nonsingular(eigenvalues: np.ndarray) -> None:
    """Raise :class:`SingularMatrixError` when the symmetric matrix with these
    eigenvalues is numerically singular: min |w| <= p * eps * max |w|."""
    magnitude = np.abs(eigenvalues)
    if np.min(magnitude) <= eigenvalues.size * EPS * np.max(magnitude):
        raise SingularMatrixError("covariance shrinkage estimate is numerically singular")


def symmetric_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric matrix by one Cholesky factorization.

    ``potrf`` factors ``a`` into an upper factor with a zeroed lower
    triangle, and ``potri`` overwrites the factor's upper triangle with that
    of the inverse. Adding the transpose mirrors it, so the result is exactly
    symmetric. A matrix that is not positive definite falls back to ``eigh``
    and raises :class:`SingularMatrixError` when it is numerically singular.
    The import is local: loading ``scipy.linalg`` takes longer than a whole
    ``limits`` call, and nothing else in the package needs it.
    """
    from scipy.linalg import lapack

    factor, info = lapack.dpotrf(np.asarray_chkfinite(a), clean=True)
    if info == 0:
        upper, info = lapack.dpotri(factor, overwrite_c=True)
    if info == 0:
        inverse = upper + upper.T
        np.fill_diagonal(inverse, np.diagonal(upper))
        return inverse
    w, v = np.linalg.eigh(a)
    require_nonsingular(w)
    return symmetrize((v / w) @ v.T)
