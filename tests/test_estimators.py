"""Oracle and bona fide shrinkage estimators, benchmarks, and functionals."""

import numpy as np
import pytest

from precshrink import (
    CovarianceModel,
    DegenerateTargetError,
    NearSingularRegimeError,
    RegimeError,
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
from precshrink.estimators import optimal_weights_from_functionals
from precshrink.linalg import symmetrize
from precshrink.simulation import THREE_BLOCK


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
        with pytest.raises(ValueError, match="symmetric"):
            TargetMatrix.from_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            TargetMatrix.from_matrix(np.diag([1.0, -1.0]))

    def test_identity_over_p(self):
        target = TargetMatrix.identity_over_p(4)
        assert target.frobenius_sq == pytest.approx(0.25)
        assert target.trace_norm == pytest.approx(1.0)

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
