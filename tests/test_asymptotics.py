"""Deterministic equivalents: closed forms, solver contracts, Monte Carlo."""

import numpy as np
import pytest

from precshrink import (
    CovarianceModel,
    DistributionSpec,
    SpectrumSpec,
    TargetMatrix,
    build_covariance,
    compute_limit_functionals,
    dual_inverse_frobenius_limit,
    dual_inverse_trace_limit,
    generate_data,
    inverse_frobenius_limit,
    limit_weights_gt1,
    limit_weights_lt1,
    oracle_olse_gt1,
    oracle_olse_lt1,
    replication_rng,
    sample_covariance,
    weighted_dual_trace_limit,
)
from precshrink import asymptotics
from precshrink.asymptotics import pinv_bilinear_limit, pinv_weighted_trace_limit
from precshrink.simulation import THREE_BLOCK

GAUSSIAN = DistributionSpec("gaussian")


def draw_stats(truth, n, seed, replication=0):
    rng = replication_rng(seed, truth.p, replication)
    return sample_covariance(generate_data(truth, n, GAUSSIAN, rng))


class TestInverseFrobeniusLimit:
    def test_identity_half(self):
        assert inverse_frobenius_limit(SpectrumSpec.identity(), 0.5) == pytest.approx(8.0, rel=1e-14)

    def test_single_atom_two(self):
        assert inverse_frobenius_limit(SpectrumSpec(((1.0, 2.0),)), 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_small_ratio_tends_to_second_moment(self):
        spec = THREE_BLOCK
        m2 = 0.2 + 0.4 / 9.0 + 0.004
        assert inverse_frobenius_limit(spec, 1e-9) == pytest.approx(m2, rel=1e-6)

    def test_exceeds_second_moment(self):
        for ratio in (0.1, 0.5, 0.9):
            m2 = 0.2 + 0.4 / 9.0 + 0.004
            assert inverse_frobenius_limit(THREE_BLOCK, ratio) > m2

    def test_ratio_domain(self):
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                inverse_frobenius_limit(SpectrumSpec.identity(), bad)

    def test_matches_monte_carlo(self):
        p, ratio, reps = 120, 0.5, 100
        truth = build_covariance(THREE_BLOCK, p)
        n = round(p / ratio)
        values = [draw_stats(truth, n, 101, r).inverse_frobenius_sq / p for r in range(reps)]
        limit = inverse_frobenius_limit(THREE_BLOCK, ratio)
        assert abs(np.mean(values) - limit) / limit < 0.05


class TestDualTraceLimit:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("ratio", [1.1, 1.5, 2.0, 5.0])
    def test_isotropic_closed_form(self, sigma, ratio):
        truth = CovarianceModel.isotropic(30, sigma)
        expected = (1.0 / sigma) / (ratio - 1.0)
        value = dual_inverse_trace_limit(truth, ratio)
        assert abs(value - expected) / expected < 1e-10

    def test_residual_contract(self):
        truth = build_covariance(THREE_BLOCK, 60)
        for ratio in (1.2, 1.5, 3.0):
            x = dual_inverse_trace_limit(truth, ratio)
            rhs = ratio / truth.p * np.sum(1.0 / (1.0 / truth.eigenvalues + x))
            assert abs(1.0 / x - rhs) < 1e-10

    def test_matches_independent_bisection(self):
        truth = build_covariance(THREE_BLOCK, 60)
        ratio = 1.5
        d = 1.0 / truth.eigenvalues

        def g(x):
            return 1.0 / x - ratio / truth.p * np.sum(1.0 / (d + x))

        lo, hi = 1e-9, 1e9
        for _ in range(200):
            mid = 0.5 * (lo + hi) if hi / lo < 1e3 else np.sqrt(lo * hi)
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert dual_inverse_trace_limit(truth, ratio) == pytest.approx(0.5 * (lo + hi), rel=1e-9)

    def test_decreasing_in_ratio(self):
        truth = build_covariance(THREE_BLOCK, 60)
        values = [dual_inverse_trace_limit(truth, r) for r in (1.1, 1.5, 2.0, 3.0, 5.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_requires_ratio_above_one(self):
        truth = CovarianceModel.isotropic(10, 1.0)
        with pytest.raises(ValueError):
            dual_inverse_trace_limit(truth, 0.8)


class TestDualFrobeniusLimit:
    def test_isotropic_closed_form(self):
        truth = CovarianceModel.isotropic(20, 1.0)
        x = dual_inverse_trace_limit(truth, 2.0)
        assert x == pytest.approx(1.0, rel=1e-12)
        assert dual_inverse_frobenius_limit(truth, 2.0, x) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("ratio", [1.1, 1.5, 2.0, 5.0])
    def test_normalized_matches_spec1(self, sigma, ratio):
        truth = CovarianceModel.isotropic(25, sigma)
        value = dual_inverse_frobenius_limit(truth, ratio) / ratio
        expected = sigma**-2 / (ratio - 1.0) ** 3
        assert abs(value - expected) / expected < 1e-10

    def test_rejects_wrong_trace_limit(self):
        truth = CovarianceModel.isotropic(20, 1.0)
        with pytest.raises(ValueError, match="defining equation"):
            dual_inverse_frobenius_limit(truth, 2.0, 17.0)

    def test_matches_monte_carlo(self):
        p, ratio, reps = 200, 1.5, 100
        truth = build_covariance(THREE_BLOCK, p)
        n = round(p / ratio)
        values = [draw_stats(truth, n, 202, r).inverse_frobenius_sq / p for r in range(reps)]
        limit = dual_inverse_frobenius_limit(truth, ratio) / ratio
        assert abs(np.mean(values) - limit) / limit < 0.05


class TestWeightedDualTraceLimit:
    def test_theta_equal_sigma(self):
        truth = build_covariance(THREE_BLOCK, 30)
        for ratio in (1.5, 2.0):
            value = weighted_dual_trace_limit(truth, truth.sigma, ratio)
            assert value == pytest.approx(1.0 / (ratio - 1.0), rel=1e-10)

    def test_theta_identity_isotropic(self):
        sigma = 2.0
        truth = CovarianceModel.isotropic(20, sigma)
        value = weighted_dual_trace_limit(truth, np.eye(20), 2.0)
        assert value == pytest.approx((1.0 / sigma) / 1.0, rel=1e-10)

    def test_identity_over_p_matches_dual_trace(self):
        # the weighted equation applied to I/p collapses to the plain one
        truth = build_covariance(THREE_BLOCK, 40)
        ratio = 1.5
        x = dual_inverse_trace_limit(truth, ratio)
        y = weighted_dual_trace_limit(truth, np.eye(40) / 40.0, ratio)
        assert y == pytest.approx(x / 40.0, rel=1e-9)

    def test_rejects_asymmetric_theta(self):
        truth = CovarianceModel.isotropic(4, 1.0)
        theta = np.outer([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="symmetric"):
            weighted_dual_trace_limit(truth, theta, 2.0)

    def test_rejects_indefinite_theta(self):
        truth = CovarianceModel.isotropic(4, 1.0)
        with pytest.raises(ValueError, match="positive definite"):
            weighted_dual_trace_limit(truth, np.diag([1.0, 1.0, 1.0, -1.0]), 2.0)

    def test_residual_contract(self):
        truth = build_covariance(THREE_BLOCK, 30)
        theta = truth.sigma
        ratio = 1.5
        y = weighted_dual_trace_limit(truth, theta, ratio)
        s = 1.0 / np.sqrt(truth.eigenvalues)
        congruence = s[:, None] * theta * s[None, :]
        d = np.linalg.eigvalsh(congruence)
        rhs = ratio / truth.p * np.sum(1.0 / (d + y))
        assert abs(1.0 / y - rhs) < 1e-10


class TestRankOneLimit:
    """Bilinear forms eta' pinv(S) xi, the rank-one weighting of the trace limits."""

    def test_isotropic_matches_generic_path(self):
        # Classical isotropic limit (1/sigma) / (ratio (ratio - 1)) for a unit xi.
        truth = CovarianceModel.isotropic(15, 2.0)
        xi = np.ones(15) / np.sqrt(15.0)
        assert pinv_bilinear_limit(truth, xi, xi, 2.0) == pytest.approx(0.25, rel=1e-12)

    def test_wrong_length_rejected(self):
        truth = CovarianceModel.isotropic(5, 1.0)
        with pytest.raises(ValueError, match="length-p"):
            pinv_bilinear_limit(truth, np.ones(4), np.ones(5), 2.0)


class TestPinvEquivalents:
    def test_identity_weighting_consistent_with_trace(self):
        truth = build_covariance(THREE_BLOCK, 50)
        ratio = 1.5
        x = dual_inverse_trace_limit(truth, ratio)
        value = pinv_weighted_trace_limit(truth, np.eye(50), ratio)
        assert value == pytest.approx(50.0 / ratio * x, rel=1e-10)

    def test_isotropic_matches_symmetry_argument(self):
        # rotational invariance forces tr(theta pinv(S)) -> tr(theta) tr(pinv(S))/p,
        # and (1/p) tr(pinv(S)) tends to x/ratio
        sigma = 2.0
        truth = CovarianceModel.isotropic(30, sigma)
        ratio = 1.5
        theta = np.diag(np.linspace(0.5, 3.0, 30))
        per_entry = dual_inverse_trace_limit(truth, ratio) / ratio
        value = pinv_weighted_trace_limit(truth, theta, ratio)
        assert value == pytest.approx(np.trace(theta) * per_entry, rel=1e-10)

    def test_weighted_trace_matches_monte_carlo(self):
        p, ratio, reps = 200, 1.5, 100
        truth = build_covariance(THREE_BLOCK, p)
        n = round(p / ratio)
        values = []
        for r in range(reps):
            stats = draw_stats(truth, n, 303, r)
            values.append(np.sum(stats.inverse * truth.precision))
        limit = pinv_weighted_trace_limit(truth, truth.precision, ratio)
        assert abs(np.mean(values) - limit) / limit < 0.05

    def test_bilinear_matches_monte_carlo(self):
        p, ratio, reps = 200, 1.5, 100
        truth = build_covariance(THREE_BLOCK, p)
        n = round(p / ratio)
        e1 = np.eye(p)[0]
        values = [draw_stats(truth, n, 304, r).inverse[0, 0] for r in range(reps)]
        limit = pinv_bilinear_limit(truth, e1, e1, ratio)
        assert abs(np.mean(values) - limit) / limit < 0.05

    @pytest.mark.parametrize("p, ratio", [(60, 1.5), (200, 3.0)])
    def test_match_dense_equivalent_matrix(self, p, ratio):
        truth = build_covariance(THREE_BLOCK, p)
        tau = truth.eigenvalues
        x = dual_inverse_trace_limit(truth, ratio)
        x_prime = dual_inverse_frobenius_limit(truth, ratio, x)
        dense = np.diag(x_prime * tau / (x * tau + 1.0) ** 2)
        rng = np.random.default_rng(p)
        a = rng.standard_normal((p, p))
        theta = a @ a.T / p + np.eye(p)
        xi, eta = rng.standard_normal(p), rng.standard_normal(p)
        assert pinv_weighted_trace_limit(truth, theta, ratio) == pytest.approx(
            np.sum(dense * theta), rel=1e-14)
        assert pinv_bilinear_limit(truth, xi, eta, ratio) == pytest.approx(
            eta @ dense @ xi, rel=1e-14)


class TestLimitWeightsLt1:
    def test_true_precision_target_exact(self):
        truth = build_covariance(THREE_BLOCK, 30)
        target = TargetMatrix.from_matrix(truth.precision)
        weights = limit_weights_lt1(truth, target, 1.0 / 3.0)
        assert weights.alpha == 0.0
        assert weights.beta == 1.0

    def test_isotropic_identity_target(self):
        scale = 2.0  # precision is scale * I when sigma eigenvalues are 1/scale
        p = 40
        truth = CovarianceModel.isotropic(p, 1.0 / scale)
        weights = limit_weights_lt1(truth, TargetMatrix.identity_over_p(p), 0.5)
        assert weights.alpha == pytest.approx(0.0, abs=1e-12)
        assert weights.beta == pytest.approx(p * scale, rel=1e-12)

    def test_matches_direct_formula(self):
        p, ratio = 60, 1.0 / 3.0
        truth = build_covariance(THREE_BLOCK, p)
        target = TargetMatrix.identity_over_p(p)
        weights = limit_weights_lt1(truth, target, ratio)
        # independent evaluation of the limiting normal equations
        f = np.sum(truth.precision**2)
        t = np.trace(truth.precision)
        g = target.frobenius_sq
        b = np.trace(truth.precision @ target.matrix)
        alpha_expected = (
            (1.0 - ratio)
            * (f * g - b**2)
            / ((f + ratio / (p * (1.0 - ratio)) * t**2) * g - b**2)
        )
        beta_expected = b / g * (1.0 - alpha_expected / (1.0 - ratio))
        assert weights.alpha == pytest.approx(alpha_expected, rel=1e-12)
        assert weights.beta == pytest.approx(beta_expected, rel=1e-12)

    def test_alpha_within_support(self):
        for ratio in (0.1, 1.0 / 3.0, 0.5, 0.8):
            truth = build_covariance(THREE_BLOCK, 45)
            weights = limit_weights_lt1(truth, TargetMatrix.identity_over_p(45), ratio)
            assert 0.0 < weights.alpha < 1.0 - ratio
            assert weights.beta > 0.0

    def test_matches_averaged_oracle(self):
        p, ratio, reps = 120, 1.0 / 3.0, 100
        truth = build_covariance(THREE_BLOCK, p)
        target = TargetMatrix.identity_over_p(p)
        n = round(p / ratio)
        alphas, betas = [], []
        for r in range(reps):
            stats = draw_stats(truth, n, 404, r)
            estimate = oracle_olse_lt1(stats, truth, target)
            alphas.append(estimate.weights.alpha)
            betas.append(estimate.weights.beta)
        weights = limit_weights_lt1(truth, target, ratio)
        assert abs(np.mean(alphas) - weights.alpha) / weights.alpha < 0.05
        assert abs(np.mean(betas) - weights.beta) / weights.beta < 0.05


class TestLimitWeightsGt1:
    def test_true_precision_target_exact(self):
        truth = build_covariance(THREE_BLOCK, 30)
        target = TargetMatrix.from_matrix(truth.precision)
        weights = limit_weights_gt1(truth, target, 1.5)
        assert weights.alpha == 0.0
        assert weights.beta == 1.0

    def test_isotropic_identity_target(self):
        scale = 2.0
        p = 40
        truth = CovarianceModel.isotropic(p, 1.0 / scale)
        weights = limit_weights_gt1(truth, TargetMatrix.identity_over_p(p), 1.5)
        assert weights.alpha == pytest.approx(0.0, abs=1e-12)
        assert weights.beta / p == pytest.approx(scale, rel=1e-10)

    def test_matches_averaged_oracle(self):
        p, ratio, reps = 200, 1.5, 100
        truth = build_covariance(THREE_BLOCK, p)
        target = TargetMatrix.identity_over_p(p)
        n = round(p / ratio)
        alphas, betas = [], []
        for r in range(reps):
            stats = draw_stats(truth, n, 505, r)
            estimate = oracle_olse_gt1(stats, truth, target)
            alphas.append(estimate.weights.alpha)
            betas.append(estimate.weights.beta)
        weights = limit_weights_gt1(truth, target, ratio)
        assert abs(np.mean(betas) - weights.beta) / weights.beta < 0.05
        assert abs(np.mean(alphas) - weights.alpha) < 0.05


class TestLimitFunctionalsBundle:
    def test_low_ratio_branch(self):
        truth = build_covariance(THREE_BLOCK, 30)
        limits = compute_limit_functionals(
            truth, 0.5, spec=THREE_BLOCK, target=TargetMatrix.identity_over_p(30)
        )
        assert limits.inverse_frobenius == pytest.approx(inverse_frobenius_limit(THREE_BLOCK, 0.5))
        assert limits.dual_trace is None
        assert 0.0 < limits.alpha < 0.5

    def test_high_ratio_branch(self):
        truth = CovarianceModel.isotropic(20, 1.0)
        limits = compute_limit_functionals(
            truth, 2.0, target=TargetMatrix.identity_over_p(20)
        )
        assert limits.dual_trace == pytest.approx(1.0, rel=1e-10)
        assert limits.dual_frobenius == pytest.approx(2.0, rel=1e-10)
        assert limits.residuals["dual_trace"] < 1e-10
        assert limits.target_dual_trace is not None

    def test_ratio_one_rejected(self):
        truth = CovarianceModel.isotropic(10, 1.0)
        with pytest.raises(ValueError):
            compute_limit_functionals(truth, 1.0)

    @pytest.mark.parametrize("ratio", [float("inf"), float("nan"), float("-inf")])
    def test_non_finite_ratio_rejected(self, ratio):
        truth = build_covariance(THREE_BLOCK, 30)
        with pytest.raises(ValueError, match="finite"):
            compute_limit_functionals(truth, ratio, target=TargetMatrix.identity_over_p(30))

    def test_dual_fixed_point_solved_once(self, monkeypatch):
        truth = build_covariance(THREE_BLOCK, 30)
        target = TargetMatrix.identity_over_p(30)
        solved = []
        solve = asymptotics._solve_self_consistent

        def counting(*args):
            solved.append(args)
            return solve(*args)

        monkeypatch.setattr(asymptotics, "_solve_self_consistent", counting)
        limits = compute_limit_functionals(truth, 1.5, target=target)
        # One dual trace root and one target-weighted root, nothing solved twice.
        assert len(solved) == 2
        weights = limit_weights_gt1(truth, target, 1.5)
        assert (limits.alpha, limits.beta) == (weights.alpha, weights.beta)
