"""Spectrum specs, apportionment, and covariance model construction."""

import numpy as np
import pytest

from precshrink import CovarianceModel, SpectrumSpec, build_covariance, spectral_moments
from precshrink.spectral import apportion_counts, realize_eigenvalues

THREE_BLOCK = SpectrumSpec(((0.2, 1.0), (0.4, 3.0), (0.4, 10.0)))


class TestSpectrumSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SpectrumSpec(((0.5, 1.0), (0.4, 2.0)))

    def test_needs_at_least_one_atom(self):
        with pytest.raises(ValueError, match="at least one atom"):
            SpectrumSpec(())

    def test_eigenvalues_strictly_positive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            SpectrumSpec(((1.0, 0.0),))
        with pytest.raises(ValueError, match="strictly positive"):
            SpectrumSpec(((0.5, 1.0), (0.5, -2.0)))

    def test_weight_range(self):
        with pytest.raises(ValueError, match="weights"):
            SpectrumSpec(((1.5, 1.0), (-0.5, 2.0)))

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError, match=r"weights must lie in \[0, 1\]"):
            SpectrumSpec(((weight, 1.0),))
        with pytest.raises(ValueError, match=r"weights must lie in \[0, 1\]"):
            SpectrumSpec(((0.5, 1.0), (weight, 0.5)))

    def test_inverted(self):
        inv = THREE_BLOCK.inverted()
        np.testing.assert_allclose(inv.values, [1.0, 1.0 / 3.0, 0.1])
        np.testing.assert_allclose(inv.weights, THREE_BLOCK.weights)


class TestSpectralMoments:
    def test_identity(self):
        assert spectral_moments(SpectrumSpec.identity()) == (1.0, 1.0)

    def test_single_atom(self):
        m1, m2 = spectral_moments(SpectrumSpec(((1.0, 2.0),)))
        assert m1 == 0.5
        assert m2 == 0.25

    def test_single_atom_exact(self):
        for tau in (0.3, 1.7, 42.0):
            m1, m2 = spectral_moments(SpectrumSpec(((1.0, tau),)))
            assert m1 == 1.0 / tau
            assert m2 == 1.0 / tau**2

    def test_three_block(self):
        m1, m2 = spectral_moments(THREE_BLOCK)
        assert m1 == pytest.approx(0.2 + 0.4 / 3.0 + 0.04, rel=1e-15)
        assert m2 == pytest.approx(0.2 + 0.4 / 9.0 + 0.004, rel=1e-15)


class TestApportionment:
    def test_exact_division(self):
        counts = apportion_counts(np.array([0.2, 0.4, 0.4]), 10)
        assert counts.tolist() == [2, 4, 4]

    def test_largest_remainder_p7(self):
        # raw quotas 1.4, 2.8, 2.8: the two 0.8 remainders win the extras
        counts = apportion_counts(np.array([0.2, 0.4, 0.4]), 7)
        assert counts.tolist() == [1, 3, 3]

    def test_ties_broken_by_atom_order(self):
        counts = apportion_counts(np.array([0.5, 0.5]), 3)
        assert counts.tolist() == [2, 1]

    @pytest.mark.parametrize("p", [1, 3, 7, 11, 60, 97, 200])
    def test_counts_sum_to_p(self, p):
        counts = apportion_counts(THREE_BLOCK.weights, p)
        assert counts.sum() == p

    @pytest.mark.parametrize("p", [5, 23, 57, 120, 499])
    def test_edf_within_one_over_p(self, p):
        counts = apportion_counts(THREE_BLOCK.weights, p)
        assert np.all(np.abs(counts / p - THREE_BLOCK.weights) <= 1.0 / p + 1e-15)


class TestBuildCovariance:
    def test_three_block_p10(self):
        model = build_covariance(THREE_BLOCK, 10)
        expected = np.diag([1.0] * 2 + [3.0] * 4 + [10.0] * 4)
        np.testing.assert_array_equal(model.sigma, expected)

    def test_single_atom_scaled_identity(self):
        model = build_covariance(SpectrumSpec.isotropic(2.5), 5)
        np.testing.assert_array_equal(model.sigma, 2.5 * np.eye(5))

    def test_p7_counts(self):
        model = build_covariance(THREE_BLOCK, 7)
        values, counts = np.unique(model.eigenvalues, return_counts=True)
        np.testing.assert_array_equal(values, [1.0, 3.0, 10.0])
        np.testing.assert_array_equal(counts, [1, 3, 3])

    def test_eigenvalues_ascending(self):
        model = build_covariance(THREE_BLOCK, 13)
        assert np.all(np.diff(model.eigenvalues) >= 0.0)

    def test_identity_basis_gives_diagonal(self):
        model = build_covariance(THREE_BLOCK, 10)
        assert np.count_nonzero(model.sigma - np.diag(np.diagonal(model.sigma))) == 0

    def test_precision_is_inverse(self):
        model = build_covariance(THREE_BLOCK, 20)
        np.testing.assert_allclose(model.sigma @ model.precision, np.eye(20), atol=1e-10)

    def test_cached_norms(self):
        model = build_covariance(THREE_BLOCK, 10)
        np.testing.assert_allclose(
            model.precision_frobenius_sq, np.sum(1.0 / model.eigenvalues**2), rtol=1e-14
        )
        np.testing.assert_allclose(
            model.precision_trace_norm, np.sum(1.0 / model.eigenvalues), rtol=1e-14
        )

    def test_realize_requires_positive_dimension(self):
        with pytest.raises(ValueError, match=">= 1"):
            realize_eigenvalues(THREE_BLOCK, 0)

    def test_isotropic_constructor(self):
        model = CovarianceModel.isotropic(4, 2.0)
        np.testing.assert_array_equal(model.precision, 0.5 * np.eye(4))
