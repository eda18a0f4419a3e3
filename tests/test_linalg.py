"""Sample covariance, eigendecomposition, pseudo-inverse and the BLAS pin."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precshrink import DataMatrix, NumericError, SingularMatrixError, TargetMatrix
from precshrink import bona_fide_olse, sample_covariance
from precshrink.linalg import (
    EPS,
    SampleInverse,
    SampleStats,
    frobenius_sq,
    rank_tolerance,
    sample_inverse,
)
from precshrink.simulation import usable_cpus


def diag_sample(values, n):
    """Data matrix whose sample covariance is exactly diag(values)."""
    p = len(values)
    y = np.zeros((p, n))
    for i, value in enumerate(values):
        y[i, i] = np.sqrt(n * value)
    return y


class TestDataMatrix:
    def test_requires_two_dims(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            DataMatrix(np.zeros(3))

    def test_requires_two_observations(self):
        with pytest.raises(ValueError, match="n >= 2"):
            DataMatrix(np.zeros((3, 1)))

    def test_rejects_non_finite(self):
        bad = np.ones((2, 3))
        bad[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            DataMatrix(bad)


class TestSampleCovariance:
    def test_identity_data(self):
        stats = sample_covariance(np.eye(2))
        np.testing.assert_array_equal(stats.matrix, 0.5 * np.eye(2))

    def test_no_centering_by_default(self):
        y = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        stats = sample_covariance(y)
        np.testing.assert_allclose(stats.matrix, (y @ y.T) / 3.0, atol=1e-15)

    def test_centering_flag(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((3, 50)) + 5.0
        stats = sample_covariance(y, center=True)
        centered = y - y.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(stats.matrix, (centered @ centered.T) / 50.0, atol=1e-12)

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(42)
        y = rng.standard_normal((10, 1000))
        stats = sample_covariance(y)
        assert np.linalg.norm(stats.matrix - np.eye(10), 2) < 0.3

    def test_regime_invertible(self):
        rng = np.random.default_rng(1)
        stats = sample_covariance(rng.standard_normal((5, 20)))
        assert stats.p < stats.n and np.all(stats.inverse_eigenvalues > 0.0)
        np.testing.assert_allclose(stats.matrix @ stats.inverse, np.eye(5), atol=1e-8)

    def test_regime_pseudo_rank(self):
        rng = np.random.default_rng(2)
        stats = sample_covariance(rng.standard_normal((4, 2)))
        assert stats.p >= stats.n
        tol = rank_tolerance(stats.eigenvalues, stats.p)
        assert int(np.sum(stats.eigenvalues > tol)) == 2

    def test_equal_dimensions_use_pseudo(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((4, 4))
        # Centered, S has rank 3 at p = n: the pseudo-inverse, not a singular error.
        stats = sample_covariance(y, center=True)
        assert stats.p == stats.n == 4
        assert int(np.sum(stats.eigenvalues > rank_tolerance(stats.eigenvalues, stats.p))) == 3
        np.testing.assert_array_equal(stats.inverse, sample_inverse(y, center=True).inverse)

    def test_identical_data_raises(self):
        y = np.ones((3, 5))
        with pytest.raises(SingularMatrixError):
            sample_covariance(y)

    def test_eigendecomposition_reconstruction(self):
        rng = np.random.default_rng(4)
        for p in (5, 50, 200, 500):
            stats = sample_covariance(rng.standard_normal((p, 2 * p)))
            rebuilt = (stats.eigenvectors * stats.eigenvalues) @ stats.eigenvectors.T
            err = np.linalg.norm(rebuilt - stats.matrix) / np.linalg.norm(stats.matrix)
            assert err < 1e-10

    def test_ratio_and_sizes(self):
        rng = np.random.default_rng(5)
        stats = sample_covariance(rng.standard_normal((6, 24)))
        assert (stats.p, stats.n) == (6, 24)
        assert stats.ratio == 0.25

    def test_dual_shares_nonzero_eigenvalues(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal((8, 5))
        stats = sample_covariance(y)
        dual = np.linalg.eigvalsh((y.T @ y) / 5.0)
        kept = stats.eigenvalues[stats.eigenvalues > rank_tolerance(stats.eigenvalues, 8)]
        np.testing.assert_allclose(np.sort(kept), np.sort(dual), atol=1e-9)

    def test_cached_inverse_norms(self):
        rng = np.random.default_rng(7)
        stats = sample_covariance(rng.standard_normal((5, 30)))
        np.testing.assert_allclose(stats.inverse_frobenius_sq, np.sum(stats.inverse**2), rtol=1e-12)
        np.testing.assert_allclose(stats.inverse_trace_norm, np.trace(stats.inverse), rtol=1e-10)

    def test_pseudo_inverse_norms(self):
        stats = sample_covariance(np.random.default_rng(7).standard_normal((30, 5)))
        np.testing.assert_allclose(stats.inverse_frobenius_sq, np.sum(stats.inverse**2), rtol=1e-12)
        np.testing.assert_allclose(stats.inverse_trace_norm, np.trace(stats.inverse), rtol=1e-10)

    def test_stores_defining_arrays_only(self):
        assert [field.name for field in dataclasses.fields(SampleStats)] == [
            "matrix", "eigenvalues", "eigenvectors", "inverse_eigenvalues", "n"]

    @pytest.mark.parametrize("p, n", [(250, 500), (300, 100)])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("center", [False, True])
    def test_matrix_exactly_symmetric(self, p, n, layout, center):
        # S is used as formed: no pass symmetrizes it.
        rng = np.random.default_rng(p)
        y = rng.standard_normal((p, 2 * n)) * rng.uniform(0.1, 10.0, size=(p, 1))
        y = {"C": np.ascontiguousarray(y[:, :n]), "F": np.asfortranarray(y[:, :n]),
             "strided": y[:, ::2]}[layout]
        s = sample_covariance(y, center=center).matrix
        np.testing.assert_array_equal(s, s.T)

    def test_overflowing_gram_is_numeric_error(self):
        y = 1e160 * np.random.default_rng(9).uniform(1.0, 2.0, size=(3, 10))
        with pytest.raises(NumericError, match="sample covariance overflows"):
            sample_covariance(y)
        with pytest.raises(NumericError, match="sample covariance overflows"):
            sample_covariance(y, center=True)

    @pytest.mark.parametrize("shape", [(40, 5), (5, 40)], ids=["wide", "tall"])
    def test_underflowing_covariance_is_numeric_error(self, shape):
        # S is subnormal, so the rank tolerance p * eps * max is 0 and keeps every positive
        # eigenvalue; their reciprocals overflow, with no warning from the division.
        y = 1e-158 * np.random.default_rng(9).standard_normal(shape)
        with pytest.raises(NumericError, match="sample covariance is too small to invert: "
                                               "kept eigenvalue .*, largest data magnitude"):
            sample_covariance(y)

    @pytest.mark.parametrize("shape", [(40, 5), (5, 40)], ids=["wide", "tall"])
    def test_zero_covariance_from_nonzero_data_is_numeric_error(self, shape):
        # S underflows to exactly 0: not a zero pseudo-inverse, and not a singular S either.
        y = 1e-170 * np.random.default_rng(9).standard_normal(shape)
        with pytest.raises(NumericError, match=r"^sample covariance underflows: largest data "
                                               r"magnitude \S+e-170$"):
            sample_covariance(y)
        # Centered constant rows are all-zero data: the degenerate path, with its warning.
        with pytest.warns(RuntimeWarning, match="degenerate"):
            sample_covariance(np.ones((40, 5)), center=True)

    def test_dense_inverse_stays_finite(self):
        # The relative rank tolerance keeps a tiny eigenvalue of a tiny S. At 1.2e-308 its
        # reciprocal, doubled by symmetrizing, stays finite; at 1e-308 it would overflow.
        inverse = sample_covariance(diag_sample([1e-293, 1.2e-308], 3)).inverse
        assert np.all(np.isfinite(inverse)) and inverse[1, 1] > 8e307
        with pytest.raises(NumericError, match="too small to invert: kept eigenvalue 1.000e-308"):
            sample_covariance(diag_sample([1e-293, 1e-308], 3))

    def test_overflowing_squared_norm_is_numeric_error(self):
        assert frobenius_sq(np.array([3.0, 4.0])) == 25.0
        with pytest.raises(NumericError, match="squared Frobenius norm overflows"):
            frobenius_sq(np.array([1e160, 1.0]))


def data_with_spectrum(eigenvalues, n, rng):
    """p x n data whose S is Q diag(eigenvalues) Q' up to rounding, Q a random rotation."""
    p = len(eigenvalues)
    q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    w = np.linalg.qr(rng.standard_normal((n, p)))[0]  # orthonormal columns: W'W = I
    return np.sqrt(n) * (q * np.sqrt(eigenvalues)) @ w.T


def relative(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


# Largest relative difference allowed between the LU route and the eigendecomposition.
LU_RTOL = 1e-12


class TestSampleInverse:
    """inv(S) by LU below p = n, kept only when its sufficient test passes."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(p=st.integers(2, 40), extra=st.integers(1, 80), scale=st.floats(-40.0, 40.0),
           spread=st.floats(0.0, 0.5), seed=st.integers(0, 2**16), center=st.booleans(),
           observations=st.booleans(), prior=st.booleans())
    def test_agrees_with_the_eigendecomposition(self, p, extra, scale, spread, seed, center,
                                                observations, prior):
        # Both routes differ by a few times cond(S) eps: p/n below 1/2 and row scales within
        # a factor 10 of each other keep cond(S) in the thousands, where 1,500 such fixtures
        # differed by at most 7e-14 in the inverse, the weights and the estimate. estimate --rows observations hands over the transpose
        # of the file's array, which is not C-contiguous.
        n = 2 * p + extra
        rng = np.random.default_rng(seed)
        y = 10.0**(scale + rng.uniform(-spread, spread, size=(p, 1))) * rng.standard_normal((p, n))
        if observations:
            y = np.ascontiguousarray(y.T).T
        fast, slow = sample_inverse(y, center=center), sample_covariance(y, center=center)
        assert isinstance(fast, SampleInverse)
        assert (fast.p, fast.n, fast.ratio) == (slow.p, slow.n, slow.ratio)
        assert fast.p < fast.n
        np.testing.assert_array_equal(fast.inverse, fast.inverse.T)
        assert relative(fast.inverse, slow.inverse) <= LU_RTOL
        assert fast.inverse_trace_norm == pytest.approx(slow.inverse_trace_norm, rel=LU_RTOL)
        assert fast.inverse_frobenius_sq == pytest.approx(slow.inverse_frobenius_sq, rel=LU_RTOL)
        target = (TargetMatrix.from_diagonal(rng.uniform(0.5, 2.0, p)) if prior
                  else TargetMatrix.identity_over_p(p))
        a, b = bona_fide_olse(fast, target), bona_fide_olse(slow, target)
        assert relative(a.matrix, b.matrix) <= LU_RTOL
        # alpha is 1 - p/n minus a term of its size, or of its own size when that is larger.
        scale = max(abs(b.weights.alpha), 1.0 - p / n)
        assert abs(a.weights.alpha - b.weights.alpha) <= LU_RTOL * scale
        assert a.weights.beta == pytest.approx(b.weights.beta, rel=LU_RTOL)

    @pytest.mark.parametrize("p", [3, 10, 40])
    @pytest.mark.parametrize("shape", ["one-small", "one-large"])
    def test_sufficient_test_never_accepts_what_the_eigenvalue_check_rejects(self, p, shape):
        # Condition numbers from 1e-3 to 10 times 1 / (p eps), the eigenvalue check's bound.
        accepted = rejected = 0
        for k in np.logspace(-3.0, 1.0, 9):
            for seed in range(3):
                rng = np.random.default_rng(seed)
                kappa = k / (p * EPS)
                rest = rng.uniform(0.5, 1.0, p - 1)
                eigenvalues = (np.append(1.0 / kappa, rest) if shape == "one-small"
                               else np.append(rest / kappa, 1.0))
                y = data_with_spectrum(eigenvalues, 3 * p, rng)
                try:
                    expected = str(sample_covariance(y).n)
                except SingularMatrixError as exc:
                    expected = str(exc)
                try:
                    result = sample_inverse(y)
                except SingularMatrixError as exc:
                    assert str(exc) == expected  # the fallback's own message
                    continue
                assert str(result.n) == expected, (k, seed)
                if isinstance(result, SampleInverse):
                    accepted += 1
                else:  # the eigendecomposition keeps what the LU test refused
                    rejected += 1
        assert accepted and rejected

    def test_duplicated_rows_are_numerically_singular(self):
        y = np.random.default_rng(12).standard_normal((10, 30))
        y[7] = y[2]
        with pytest.raises(SingularMatrixError, match="numerically singular") as caught:
            sample_inverse(y)
        with pytest.raises(SingularMatrixError) as expected:
            sample_covariance(y)
        assert str(caught.value) == str(expected.value)

    @pytest.mark.parametrize("factor, message", [
        (1e-158, "sample covariance is too small to invert"),
        (1e-170, "sample covariance underflows"), (1e160, "sample covariance overflows")])
    def test_tiny_and_huge_data_fall_back_without_warning(self, factor, message):
        # A subnormal S has an LU inverse that overflows, a zero S has none; neither warns.
        with pytest.raises(NumericError, match=message):
            sample_inverse(factor * np.random.default_rng(9).standard_normal((5, 40)))

    def test_wide_data_gets_the_eigendecomposition(self):
        y = np.random.default_rng(13).standard_normal((8, 5))
        stats = sample_inverse(y)
        assert isinstance(stats, SampleStats) and stats.p >= stats.n
        np.testing.assert_array_equal(stats.inverse, sample_covariance(y).inverse)


class TestPseudoInverse:
    def test_diagonal(self):
        stats = sample_covariance(np.array([[2.0, 0.0], [0.0, 0.0]]))
        np.testing.assert_allclose(stats.inverse, np.diag([0.5, 0.0]), atol=1e-15)

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(9)
        stats = sample_covariance(rng.standard_normal((6, 3)))
        s, sp = stats.matrix, stats.inverse
        np.testing.assert_allclose(s @ sp @ s, s, atol=1e-8)
        np.testing.assert_allclose(sp @ s @ sp, sp, atol=1e-8)
        np.testing.assert_allclose((s @ sp).T, s @ sp, atol=1e-8)
        np.testing.assert_allclose((sp @ s).T, sp @ s, atol=1e-8)

    def test_matches_numpy_pinv(self):
        rng = np.random.default_rng(10)
        stats = sample_covariance(rng.standard_normal((7, 4)))
        np.testing.assert_allclose(
            stats.inverse, np.linalg.pinv(stats.matrix, hermitian=True), atol=1e-10
        )

    def test_scale_consistency(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal((6, 3))
        scale = 3.7
        base = sample_covariance(y).inverse
        scaled = sample_covariance(np.sqrt(scale) * y).inverse
        np.testing.assert_allclose(scaled, base / scale, rtol=1e-10, atol=1e-12)

    def test_degenerate_zero_matrix_warns(self):
        stats_input = np.zeros((3, 2))
        with pytest.warns(RuntimeWarning, match="degenerate"):
            stats = sample_covariance(stats_input)
        np.testing.assert_array_equal(stats.inverse, np.zeros((3, 3)))


PIN_PROBE = r"""
import ctypes, glob, json, os, sys

import numpy as np
import scipy

from precshrink import cli, linalg, simulation

def thread_counts():
    counts = []
    for package in (np, scipy):
        libs_dir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                                package.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
            library = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(library, symbol, None)
                if getter is not None:
                    getter.argtypes = []
                    getter.restype = ctypes.c_int
                    counts.append(getter())
                    break
    return counts

stages = {"start": thread_counts()}
lookup = linalg._bundled_openblas
linalg._bundled_openblas = lambda: []
linalg.use_single_threaded_blas()
linalg._bundled_openblas = lookup
stages["no_library"] = thread_counts()
data = np.random.default_rng(0).standard_normal((30, 90))
linalg.sample_covariance(data)
np.savetxt(sys.argv[1], data, delimiter=",")
assert cli.main(["estimate", sys.argv[1], "--out", sys.argv[2]]) == 0
stages["estimate"] = thread_counts()
loaded = ["scipy.linalg" in sys.modules]
config = simulation.builtin_experiments()["fig1"]
simulation.run_grid_point(simulation.with_overrides(config, replications=2), 12)
stages["grid_point"] = thread_counts()
stages["scipy_linalg_loaded"] = loaded + ["scipy.linalg" in sys.modules]
print(json.dumps(stages))
"""


class TestSingleThreadedBlas:
    @pytest.mark.skipif(usable_cpus() < 2, reason="OpenBLAS runs one thread on one CPU")
    def test_pinned_by_grid_point_only(self, tmp_path, child_env):
        # A fresh process, since earlier tests may have set the pin in this one.
        done = subprocess.run(
            [sys.executable, "-c", PIN_PROBE, str(tmp_path / "data.csv"),
             str(tmp_path / "precision.csv")],
            env=child_env(OPENBLAS_NUM_THREADS="2"), capture_output=True, text=True,
            timeout=120, check=True,
        )
        stages = json.loads(done.stdout.strip().splitlines()[-1])
        if len(stages["start"]) < 2:
            pytest.skip("numpy and scipy do not both bundle OpenBLAS")
        assert all(count > 1 for count in stages["start"])
        assert stages["no_library"] == stages["start"]
        assert stages["estimate"] == stages["start"]
        assert stages["grid_point"] == [1] * len(stages["start"])
        # The grid point loads scipy.linalg after the pin, and the pin holds.
        assert stages["scipy_linalg_loaded"] == [False, True]
