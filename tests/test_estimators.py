"""Oracle and bona fide shrinkage estimators, benchmarks, and functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precshrink import (
    CovarianceModel,
    DegenerateTargetError,
    NearSingularRegimeError,
    NumericError,
    RegimeError,
    SingularMatrixError,
    TargetMatrix,
    bona_fide_olse,
    build_covariance,
    estimate_isotropic_precision,
    frobenius_loss,
    olse_covariance,
    oracle_equivariant,
    oracle_olse_gt1,
    oracle_olse_lt1,
    precision_frobenius_estimate,
    sample_covariance,
    trace_precision_estimate,
)
from precshrink.estimators import (
    EV_ORACLE,
    ISOTROPIC_PRECISION,
    OLSE_COV_INV,
    OLSE_PRECISION,
    OLSE_PRECISION_ORACLE,
    SAMPLE_INV,
    SAMPLE_PINV,
    _symmetric_inverse,
    domain_error,
    hessian_determinant,
    optimal_weights_from_functionals,
    plug_in_weights,
)
from precshrink.linalg import SampleStats, symmetrize
from precshrink.simulation import (
    _ESTIMATORS,
    THREE_BLOCK,
    DistributionSpec,
    ExperimentConfig,
    TargetSpec,
    _plan_estimators,
)


def diag_sample(values, n):
    p = len(values)
    y = np.zeros((p, n))
    for i, value in enumerate(values):
        y[i, i] = np.sqrt(n * value)
    return sample_covariance(y)


def observe(truth, x):
    """Y = sqrt(Sigma) X: row i of X scaled by sqrt(tau_i)."""
    return np.sqrt(truth.eigenvalues)[:, None] * x


def random_instance(rng, p, n, scale_spread=3.0):
    eigenvalues = rng.uniform(0.5, scale_spread, size=p)
    truth = CovarianceModel.from_eigenvalues(eigenvalues)
    x = rng.standard_normal((p, n))
    stats = sample_covariance(observe(truth, x))
    return truth, stats


def random_target(rng, p):
    a = rng.standard_normal((p, p))
    return TargetMatrix.from_matrix(a @ a.T / p + np.eye(p))


def grid_minimum_holds(stats, truth, target, weights, points=50, span=0.5):
    """Explicit-matrix grid search around the returned optimum."""
    base_loss = frobenius_loss(
        weights.alpha * stats.inverse + weights.beta * target.matrix, truth.precision
    )
    alphas = weights.alpha + np.linspace(-span, span, points) * abs(weights.alpha)
    betas = weights.beta + np.linspace(-span, span, points) * abs(weights.beta)
    for a in alphas:
        for b in betas:
            loss = frobenius_loss(a * stats.inverse + b * target.matrix, truth.precision)
            if loss < base_loss * (1.0 - 1e-10) - 1e-12:
                return False
    return True


class TestTargetMatrix:
    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            TargetMatrix.from_matrix(m)
        for not_1d in (m, np.ones(()), np.ones(0)):  # a diagonal is a non-empty 1-D array
            with pytest.raises(ValueError, match="non-empty 1-D array"):
                TargetMatrix.from_diagonal(not_1d)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            TargetMatrix.from_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="positive definite"):
            TargetMatrix.from_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="positive definite"):
            TargetMatrix.from_diagonal([1.0, -1.0])

    def test_rejects_singular_diagonal(self):
        with pytest.raises(ValueError, match="positive definite"):
            TargetMatrix.from_matrix(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="positive definite"):
            TargetMatrix.from_diagonal([1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        for index in ((0, 0), (0, 1)):
            m = np.eye(2)
            m[index] = bad
            with pytest.raises(ValueError, match="target matrix must be finite"):
                TargetMatrix.from_matrix(m)
        with pytest.raises(ValueError, match="target matrix must be finite"):
            TargetMatrix.from_diagonal([1.0, bad])

    def test_diagonal_set_exactly_when_off_diagonal_zero(self):
        m = np.diag([3.0, 1.0, 2.0])
        target = TargetMatrix.from_matrix(m)
        np.testing.assert_array_equal(target.diagonal, [3.0, 1.0, 2.0])
        np.testing.assert_array_equal(target.matrix, m)
        assert TargetMatrix.from_matrix(np.where(m == 0.0, -0.0, m)).diagonal is not None
        m[0, 2] = m[2, 0] = 1e-300
        assert TargetMatrix.from_matrix(m).diagonal is None
        assert random_target(np.random.default_rng(0), 6).diagonal is None

    def test_builtin_targets_are_diagonal(self):
        truth = build_covariance(THREE_BLOCK, 10)
        pi = 1.0 / truth.eigenvalues
        for target in (
            TargetMatrix.identity_over_p(10),
            TargetMatrix.from_spectrum(THREE_BLOCK, 10),
            TargetMatrix.inverse_of_spectrum(THREE_BLOCK, 10),
            TargetMatrix.from_matrix(truth.precision),
            TargetMatrix.from_diagonal(pi),
        ):
            np.testing.assert_array_equal(target.diagonal, np.diagonal(target.matrix))
            assert target.frobenius_sq == np.sum(target.matrix * target.matrix)
        # Stored, not copied: the replication engine finds target vectors by identity.
        assert TargetMatrix.from_diagonal(pi).diagonal is pi

    def test_identity_over_p(self):
        target = TargetMatrix.identity_over_p(4)
        assert target.frobenius_sq == pytest.approx(0.25)
        assert np.trace(target.matrix) == pytest.approx(1.0)

    def test_inverse_of_spectrum_alignment(self):
        # reciprocal values stay at the ascending covariance positions
        target = TargetMatrix.inverse_of_spectrum(THREE_BLOCK, 10)
        np.testing.assert_allclose(
            np.diagonal(target.matrix), [1.0] * 2 + [1.0 / 3.0] * 4 + [0.1] * 4
        )


class TestOracleOlse:
    def test_true_target_gives_exact_unit_weights(self):
        rng = np.random.default_rng(0)
        truth, stats = random_instance(rng, 5, 40)
        target = TargetMatrix.from_matrix(truth.precision)
        estimate = oracle_olse_lt1(stats, truth, target)
        assert estimate.weights.alpha == 0.0
        assert estimate.weights.beta == 1.0
        np.testing.assert_array_equal(estimate.matrix, target.matrix)

    def test_true_target_pseudo_regime(self):
        rng = np.random.default_rng(1)
        truth, stats = random_instance(rng, 8, 4)
        target = TargetMatrix.from_matrix(truth.precision)
        estimate = oracle_olse_gt1(stats, truth, target)
        assert estimate.weights.alpha == 0.0
        assert estimate.weights.beta == 1.0

    def test_weights_match_normal_equations_solve(self):
        truth = CovarianceModel.from_eigenvalues([0.7, 1.9])
        stats = diag_sample([0.8, 1.7], 40)
        target = TargetMatrix.from_matrix(np.eye(2) / 2.0)
        estimate = oracle_olse_lt1(stats, truth, target)
        # independent route: solve the 2x2 normal equations directly
        s_inv = stats.inverse
        hessian = np.array(
            [
                [np.sum(s_inv * s_inv), np.trace(s_inv @ target.matrix)],
                [np.trace(s_inv @ target.matrix), np.sum(target.matrix**2)],
            ]
        )
        rhs = np.array(
            [np.trace(s_inv @ truth.precision), np.trace(truth.precision @ target.matrix)]
        )
        expected = np.linalg.solve(hessian, rhs)
        np.testing.assert_allclose(
            [estimate.weights.alpha, estimate.weights.beta], expected, rtol=1e-10, atol=1e-13
        )

    def test_grid_optimality_invertible(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = rng.integers(3, 7)
            truth, stats = random_instance(rng, p, 4 * p)
            target = random_target(rng, p)
            estimate = oracle_olse_lt1(stats, truth, target)
            assert grid_minimum_holds(stats, truth, target, estimate.weights)

    def test_grid_optimality_pseudo(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = rng.integers(4, 7)
            truth, stats = random_instance(rng, p, max(2, p // 2))
            target = random_target(rng, p)
            estimate = oracle_olse_gt1(stats, truth, target)
            assert grid_minimum_holds(stats, truth, target, estimate.weights)

    def test_regime_mismatch(self):
        rng = np.random.default_rng(5)
        truth, stats = random_instance(rng, 4, 20)
        target = TargetMatrix.identity_over_p(4)
        with pytest.raises(RegimeError):
            oracle_olse_gt1(stats, truth, target)
        truth2, stats2 = random_instance(rng, 6, 3)
        with pytest.raises(RegimeError):
            oracle_olse_lt1(stats2, truth2, TargetMatrix.identity_over_p(6))

    def test_degenerate_target(self):
        rng = np.random.default_rng(6)
        truth, stats = random_instance(rng, 4, 30)
        proportional = TargetMatrix.from_matrix(2.0 * stats.inverse)
        with pytest.raises(DegenerateTargetError):
            oracle_olse_lt1(stats, truth, proportional)

    def test_hessian_positive_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = rng.integers(3, 8)
            _, stats = random_instance(rng, p, 5 * p)
            target = random_target(rng, p)
            det = stats.inverse_frobenius_sq * target.frobenius_sq
            det -= np.sum(stats.inverse * target.matrix) ** 2
            assert det > 0.0

    def test_overflowing_determinant_is_numeric_error(self):
        with pytest.raises(NumericError, match="Hessian determinant .* overflows"):
            hessian_determinant(1e200, 1e200, 1e200)


class TestConsistentFunctionals:
    def test_trace_estimate_hand_value(self):
        stats = diag_sample([1.0, 1.0 / 3.0], 100)  # inverse is diag(1, 3)
        theta = np.eye(2) / 2.0
        assert trace_precision_estimate(stats, theta) == pytest.approx(1.96, rel=1e-12)

    def test_trace_estimate_matches_direct_product(self):
        rng = np.random.default_rng(8)
        _, stats = random_instance(rng, 6, 40)
        theta = random_target(rng, 6).matrix
        direct = (1.0 - stats.ratio) * np.trace(stats.inverse @ theta)
        assert trace_precision_estimate(stats, theta) == pytest.approx(direct, rel=1e-10)

    def test_trace_estimate_small_ratio_limit(self):
        stats = diag_sample([2.0, 5.0], 100_000)
        theta = np.diag([1.0, 2.0])
        plain = np.trace(stats.inverse @ theta)
        assert trace_precision_estimate(stats, theta) == pytest.approx(plain, rel=1e-4)

    def test_trace_estimate_consistency_monte_carlo(self):
        # plain plug-in overshoots by 1/(1-ratio); the corrected one does not
        p, n, reps = 100, 300, 200
        truth = CovarianceModel.isotropic(p, 1.0)
        theta = np.eye(p) / p
        rng = np.random.default_rng(9)
        values = []
        for _ in range(reps):
            stats = sample_covariance(observe(truth, rng.standard_normal((p, n))))
            values.append(trace_precision_estimate(stats, theta))
        assert abs(np.mean(values) - 1.0) < 0.03

    def test_trace_estimate_rejects_pseudo(self):
        rng = np.random.default_rng(10)
        _, stats = random_instance(rng, 6, 3)
        with pytest.raises(RegimeError):
            trace_precision_estimate(stats, np.eye(6))

    def test_frobenius_estimate_hand_value(self):
        stats = diag_sample([1.0, 1.0 / 3.0], 10)  # inverse diag(1, 3), p=2, n=10
        assert precision_frobenius_estimate(stats) == pytest.approx(2.56, rel=1e-12)

    def test_frobenius_estimate_large_n_limit(self):
        stats = diag_sample([1.0, 0.5], 100_000)
        expected = stats.inverse_frobenius_sq / 2.0
        assert precision_frobenius_estimate(stats) == pytest.approx(expected, rel=1e-3)

    def test_frobenius_estimate_consistency_monte_carlo(self):
        # first-order bias is ~1/p: about 5.6% at p=100, 3.4% at p=150
        p, n, reps = 150, 300, 200
        truth = CovarianceModel.isotropic(p, 1.0)
        rng = np.random.default_rng(11)
        values = []
        for _ in range(reps):
            stats = sample_covariance(observe(truth, rng.standard_normal((p, n))))
            values.append(precision_frobenius_estimate(stats))
        assert abs(np.mean(values) - 1.0) < 0.05


class TestBonaFideOlse:
    def test_hand_values(self):
        stats = diag_sample([1.0, 1.0 / 3.0], 100)  # inverse diag(1, 3)
        target = TargetMatrix.from_matrix(np.eye(2) / 2.0)
        estimate = bona_fide_olse(stats, target)
        assert estimate.weights.alpha == pytest.approx(0.90, rel=1e-12)
        assert estimate.weights.beta == pytest.approx(0.32, rel=1e-12)

    def test_weight_bounds_on_gaussian_data(self):
        rng = np.random.default_rng(12)
        truth = build_covariance(THREE_BLOCK, 30)
        target = TargetMatrix.identity_over_p(30)
        for _ in range(50):
            stats = sample_covariance(observe(truth, rng.standard_normal((30, 90))))
            estimate = bona_fide_olse(stats, target)
            assert 0.0 < estimate.weights.alpha < 1.0 - stats.ratio
            assert estimate.weights.beta > 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        truth = build_covariance(THREE_BLOCK, 20)
        stats = sample_covariance(observe(truth, rng.standard_normal((20, 60))))
        base = bona_fide_olse(stats, TargetMatrix.identity_over_p(20)).matrix
        for scale in (0.1, 7.0):
            scaled_target = TargetMatrix.from_matrix(scale * np.eye(20) / 20.0)
            scaled = bona_fide_olse(stats, scaled_target).matrix
            np.testing.assert_allclose(scaled, base, rtol=1e-12, atol=1e-12 * np.max(np.abs(base)))

    def test_isotropic_consistency(self):
        # a consistent route to sigma^{-1} I when the population is isotropic
        sigma = 2.0
        p, n = 150, 450
        truth = CovarianceModel.isotropic(p, sigma)
        target = TargetMatrix.identity_over_p(p)
        rng = np.random.default_rng(14)
        errs = []
        for _ in range(10):
            stats = sample_covariance(observe(truth, rng.standard_normal((p, n))))
            estimate = bona_fide_olse(stats, target)
            errs.append(
                np.linalg.norm(estimate.matrix - np.eye(p) / sigma) / np.linalg.norm(np.eye(p) / sigma)
            )
        assert np.mean(errs) < 0.10

    def test_clamp_projects_alpha(self):
        rng = np.random.default_rng(15)
        truth, stats = random_instance(rng, 4, 40)
        # a target nearly proportional to the sample inverse drives alpha negative
        target = TargetMatrix.from_matrix(stats.inverse + 1e-3 * np.eye(4))
        raw = bona_fide_olse(stats, target)
        clamped = bona_fide_olse(stats, target, clamp=True)
        slack = 1.0 - stats.ratio
        assert 0.0 <= clamped.weights.alpha <= slack
        if 0.0 <= raw.weights.alpha <= slack:
            assert clamped.weights.alpha == raw.weights.alpha
        expected_beta = (
            np.sum(stats.inverse * target.matrix)
            / target.frobenius_sq
            * (slack - clamped.weights.alpha)
        )
        assert clamped.weights.beta == pytest.approx(expected_beta, rel=1e-12)

    def test_near_singular_band_rejected(self):
        rng = np.random.default_rng(16)
        truth = CovarianceModel.isotropic(48, 1.0)
        stats = sample_covariance(observe(truth, rng.standard_normal((48, 50))))
        with pytest.raises(NearSingularRegimeError):
            bona_fide_olse(stats, TargetMatrix.identity_over_p(48))

    def test_estimate_reconstructs_from_weights(self):
        rng = np.random.default_rng(17)
        truth, stats = random_instance(rng, 5, 25)
        target = TargetMatrix.identity_over_p(5)
        estimate = bona_fide_olse(stats, target)
        rebuilt = estimate.weights.alpha * stats.inverse + estimate.weights.beta * target.matrix
        np.testing.assert_allclose(estimate.matrix, rebuilt, atol=1e-12)

    def test_weights_match_plugin_functional_route(self):
        # the closed form must agree with assembling the weights from the
        # de-biased plug-in functionals directly
        rng = np.random.default_rng(18)
        truth, stats = random_instance(rng, 6, 36)
        target = random_target(rng, 6)
        estimate = bona_fide_olse(stats, target)
        p, r = stats.p, stats.ratio
        rho = precision_frobenius_estimate(stats)
        theta_target = trace_precision_estimate(stats, target.matrix)
        theta_identity = trace_precision_estimate(stats, np.eye(p))
        g = target.frobenius_sq
        denominator = (p * rho + r / (p * (1.0 - r)) * theta_identity**2) * g - theta_target**2
        alpha = (1.0 - r) * (p * rho * g - theta_target**2) / denominator
        beta = theta_target / g * (1.0 - alpha / (1.0 - r))
        assert estimate.weights.alpha == pytest.approx(alpha, rel=1e-10)
        assert estimate.weights.beta == pytest.approx(beta, rel=1e-10)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(p=st.integers(2, 12), extra=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
    def test_permutation_equivariance(self, p, extra, seed):
        """Permuting the observations leaves the estimate unchanged; permuting
        the variables, and the diagonal target with them, gives ``P est P'``.

        The permuted ``S`` differs from ``S`` only by summation order, so the
        estimates agree to 1e-9 relative in the Frobenius norm.
        """
        n = math.ceil(p / 0.9) + extra  # p/n stays below the near-singular band
        rng = np.random.default_rng(seed)
        y = rng.uniform(0.5, 3.0, size=(p, 1)) * rng.standard_normal((p, n))
        t = rng.uniform(0.2, 5.0, size=p)
        base = bona_fide_olse(sample_covariance(y), TargetMatrix.from_diagonal(t)).matrix
        observations, variables = rng.permutation(n), rng.permutation(p)
        shuffled = bona_fide_olse(sample_covariance(y[:, observations]),
                                  TargetMatrix.from_diagonal(t)).matrix
        relabeled = bona_fide_olse(sample_covariance(y[variables]),
                                   TargetMatrix.from_diagonal(t[variables])).matrix
        scale = np.linalg.norm(base)
        assert np.linalg.norm(shuffled - base) <= 1e-9 * scale
        assert np.linalg.norm(relabeled - base[np.ix_(variables, variables)]) <= 1e-9 * scale

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(p=st.integers(2, 12), extra=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
    def test_orthogonal_equivariance(self, p, extra, seed):
        """Rotating the variables by an orthogonal ``Q``, and the dense target
        with them, gives ``Q est Q'`` to 1e-9 relative in the Frobenius norm."""
        n = math.ceil(p / 0.9) + extra  # p/n stays below the near-singular band
        rng = np.random.default_rng(seed)
        y = rng.uniform(0.5, 3.0, size=(p, 1)) * rng.standard_normal((p, n))
        q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        a = rng.standard_normal((p, p))
        t = symmetrize(a @ a.T) + p * np.eye(p)
        base = bona_fide_olse(sample_covariance(y), TargetMatrix.from_matrix(t)).matrix
        rotated = bona_fide_olse(sample_covariance(q @ y),
                                 TargetMatrix.from_matrix(symmetrize(q @ t @ q.T))).matrix
        assert np.linalg.norm(rotated - q @ base @ q.T) <= 1e-9 * np.linalg.norm(base)


class TestIsotropicPrecisionEstimate:
    def test_exact_small_case(self):
        y = np.zeros((4, 2))
        y[0, 0] = 2.0
        y[1, 1] = 2.0
        stats = sample_covariance(y)  # S = diag(2, 2, 0, 0), trace of pinv = 1
        assert estimate_isotropic_precision(stats) == pytest.approx(0.5, rel=1e-12)

    def test_requires_more_variables_than_observations(self):
        rng = np.random.default_rng(18)
        _, stats = random_instance(rng, 4, 20)
        with pytest.raises(RegimeError):
            estimate_isotropic_precision(stats)
        stats_square = sample_covariance(rng.standard_normal((4, 4)))
        with pytest.raises(RegimeError):
            estimate_isotropic_precision(stats_square)

    def test_needs_data_rank_n(self):
        # Centered, 5 observations of 40 variables span 4 dimensions only.
        stats = sample_covariance(np.random.default_rng(40).standard_normal((40, 5)), center=True)
        with pytest.raises(SingularMatrixError, match=r"data rank 4 < n = 5$"):
            estimate_isotropic_precision(stats)

    def test_overflowing_scale_is_numeric_error(self):
        # r (r - 1) = 56 times a finite trace of 5e307.
        stats = SampleStats(np.zeros((40, 40)), np.r_[np.zeros(35), np.full(5, 1e-307)],
                            np.eye(40), np.r_[np.zeros(35), np.full(5, 1e307)], 5)
        with pytest.raises(NumericError, match="isotropic precision scale overflows"):
            estimate_isotropic_precision(stats)

    def test_monte_carlo_consistency(self):
        sigma, p, n = 2.0, 120, 60
        truth = CovarianceModel.isotropic(p, sigma)
        rng = np.random.default_rng(19)
        values = []
        for _ in range(100):
            stats = sample_covariance(observe(truth, rng.standard_normal((p, n))))
            values.append(estimate_isotropic_precision(stats))
        assert abs(np.mean(values) - 1.0 / sigma) / (1.0 / sigma) < 0.05


class TestOlseCovariance:
    def test_hand_values(self):
        stats = diag_sample([1.0, 2.0], 50)
        target = TargetMatrix.from_matrix(np.eye(2))
        result = olse_covariance(stats, target)
        assert result.weights.alpha == pytest.approx(0.64, rel=1e-12)
        assert result.weights.beta == pytest.approx(0.54, rel=1e-12)

    def test_large_n_recovers_sample(self):
        stats = diag_sample([1.0, 2.0], 1_000_000)
        result = olse_covariance(stats, TargetMatrix.from_matrix(np.eye(2)))
        assert result.weights.alpha > 0.999
        np.testing.assert_allclose(result.matrix, stats.matrix, rtol=1e-2)

    def test_inverse_contract(self):
        rng = np.random.default_rng(20)
        _, stats = random_instance(rng, 6, 30)
        result = olse_covariance(stats, TargetMatrix.identity_over_p(6))
        np.testing.assert_allclose(result.matrix @ result.inverse, np.eye(6), atol=1e-8)

    def test_pseudo_regime_supported(self):
        rng = np.random.default_rng(21)
        _, stats = random_instance(rng, 8, 4)
        result = olse_covariance(stats, TargetMatrix.identity_over_p(8))
        np.testing.assert_allclose(result.matrix @ result.inverse, np.eye(8), atol=1e-8)


class TestSymmetricInverse:
    def test_positive_definite_matches_inv(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((7, 20))
        a = x @ x.T / 20
        inverse = _symmetric_inverse(a)
        np.testing.assert_array_equal(inverse, inverse.T)
        np.testing.assert_allclose(inverse, np.linalg.inv(a), rtol=1e-12, atol=1e-13)

    def test_indefinite_falls_back_to_eigh(self, monkeypatch):
        a = np.array([[2.0, 1.0, 0.0], [1.0, -3.0, 0.5], [0.0, 0.5, 1.0]])
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        np.testing.assert_allclose(_symmetric_inverse(a), np.linalg.inv(a), rtol=1e-12)
        assert len(calls) == 1

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError, match="numerically singular"):
            _symmetric_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestOracleEquivariant:
    def test_commuting_case_exact(self):
        truth = CovarianceModel.from_eigenvalues([1.0, 1.0 / 3.0])
        stats = diag_sample([2.0, 5.0], 20)
        estimate = oracle_equivariant(stats, truth)
        np.testing.assert_allclose(estimate.matrix, truth.precision, atol=1e-12)
        assert frobenius_loss(estimate.matrix, truth.precision) < 1e-24

    def test_rotation_by_45_degrees(self):
        angle = np.pi / 4.0
        rotation = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        truth = CovarianceModel.from_eigenvalues([1.0, 1.0 / 3.0])  # precision diag(1, 3)
        base = diag_sample([2.0, 5.0], 20)
        y = rotation @ np.diag([np.sqrt(20 * 2.0), np.sqrt(20 * 5.0)]) @ np.eye(2, 20)
        stats = sample_covariance(y)
        estimate = oracle_equivariant(stats, truth)
        np.testing.assert_allclose(estimate.matrix, 2.0 * np.eye(2), atol=1e-10)

    def test_beats_random_diagonal_probes(self):
        rng = np.random.default_rng(22)
        truth, stats = random_instance(rng, 5, 10)
        estimate = oracle_equivariant(stats, truth)
        base_loss = frobenius_loss(estimate.matrix, truth.precision)
        u = stats.eigenvectors
        for _ in range(100):
            diag = rng.uniform(0.1, 5.0, size=5)
            probe = (u * diag) @ u.T
            assert base_loss <= frobenius_loss(probe, truth.precision) + 1e-12

    def test_works_in_pseudo_regime(self):
        rng = np.random.default_rng(23)
        truth, stats = random_instance(rng, 6, 3)
        estimate = oracle_equivariant(stats, truth)
        assert estimate.matrix.shape == (6, 6)
        assert estimate.weights is None

    @pytest.mark.parametrize("p, n", [(60, 180), (60, 40), (121, 300)])
    def test_matches_dense_precision_product(self, p, n):
        rng = np.random.default_rng(p + n)
        truth, stats = random_instance(rng, p, n)
        u = stats.eigenvectors
        dense = np.diag(1.0 / truth.eigenvalues)
        rotated_diag = np.einsum("ij,ij->j", u, dense @ u)
        expected = symmetrize((u * rotated_diag) @ u.T)
        np.testing.assert_array_equal(oracle_equivariant(stats, truth).matrix, expected)


class TestWeightHelper:
    def test_closed_form_matches_solve(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            f, g = rng.uniform(1.0, 10.0, size=2)
            c = rng.uniform(-0.9, 0.9) * np.sqrt(f * g)
            a, b = rng.uniform(-5.0, 5.0, size=2)
            alpha, beta = optimal_weights_from_functionals(a, b, c, f, g)
            expected = np.linalg.solve(np.array([[f, c], [c, g]]), np.array([a, b]))
            np.testing.assert_allclose([alpha, beta], expected, rtol=1e-10)

    def test_overflowing_squared_trace_is_numeric_error(self):
        # A Python float's square raises OverflowError; the determinant itself is finite.
        with pytest.raises(NumericError, match=r"squared trace 1.000e\+155 of the weights"):
            plug_in_weights(1e307, 1.0, 0.0, 1e155, 10, 0.5)


# Each dense function and the estimator ids whose domain it enforces, in order.
DENSE_DOMAINS = [
    (oracle_olse_lt1, (SAMPLE_INV, OLSE_PRECISION_ORACLE)),
    (oracle_olse_gt1, (SAMPLE_PINV,)),
    (lambda stats, truth, target: bona_fide_olse(stats, target), (OLSE_PRECISION,)),
    (lambda stats, truth, target: trace_precision_estimate(stats, np.eye(stats.p)),
     (OLSE_PRECISION,)),
    (lambda stats, truth, target: precision_frobenius_estimate(stats), (OLSE_PRECISION,)),
    (lambda stats, truth, target: olse_covariance(stats, target), (OLSE_COV_INV,)),
    (lambda stats, truth, target: oracle_equivariant(stats, truth), (EV_ORACLE,)),
    (lambda stats, truth, target: estimate_isotropic_precision(stats), (ISOTROPIC_PRECISION,)),
]


class TestDomain:
    """Where each estimator applies, at the edges of p = n and of the
    near-singular band (19 x 20 has p/n = 0.95 exactly, outside it)."""

    SHAPES = [(9, 10), (10, 10), (11, 10), (29, 30), (30, 30), (31, 30), (19, 20), (24, 25)]

    def test_band_edges(self):
        assert domain_error(OLSE_PRECISION, 19, 20) is None
        error = domain_error(OLSE_PRECISION_ORACLE, 24, 25)
        assert type(error) is NearSingularRegimeError
        assert str(error) == "p/n = 0.960 lies in the near-singular band"
        assert domain_error(OLSE_PRECISION_ORACLE, 25, 25) is None
        assert str(domain_error(ISOTROPIC_PRECISION, 25, 25)) == (
            "isotropic precision estimate needs p > n")

    @pytest.mark.parametrize("p, n", SHAPES)
    def test_plan_skips_exactly_outside_the_domain(self, p, n):
        config = ExperimentConfig(
            name="edges", spectrum=THREE_BLOCK, targets=(TargetSpec.identity_over_p(),),
            ratio=p / n, p_grid=(p,), distribution=DistributionSpec("gaussian"),
            replications=1, seed=0, estimators=tuple(_ESTIMATORS))
        truth = build_covariance(THREE_BLOCK, p)
        plan = _plan_estimators(config, n, truth, SAMPLE_INV)
        kinds = [row.row_id.split("[")[0] for row in plan]
        assert kinds == list(_ESTIMATORS)
        for kind, row in zip(kinds, plan):
            error = domain_error(kind, p, n)
            assert row.skip_reason == (None if error is None else str(error))

    @pytest.mark.parametrize("p, n", SHAPES)
    def test_dense_functions_raise_exactly_outside_the_domain(self, p, n):
        rng = np.random.default_rng(p * n)
        truth, stats = random_instance(rng, p, n)
        target = TargetMatrix.identity_over_p(p)
        for function, ids in DENSE_DOMAINS:
            errors = [domain_error(estimator_id, p, n) for estimator_id in ids]
            expected = next((error for error in errors if error is not None), None)
            if expected is None:
                function(stats, truth, target)
                continue
            with pytest.raises(type(expected)) as raised:
                function(stats, truth, target)
            assert type(raised.value) is type(expected)
            assert str(raised.value) == str(expected)
