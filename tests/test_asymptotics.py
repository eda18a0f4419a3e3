"""Deterministic equivalents: closed forms, solver contracts, Monte Carlo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

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
    limit_weights,
    oracle_olse_gt1,
    oracle_olse_lt1,
    replication_rng,
    sample_covariance,
)
from precshrink import asymptotics
from precshrink.asymptotics import pinv_bilinear_limit, pinv_weighted_trace_limit
from precshrink.configio import BUILTIN_SPECTRA
from precshrink.errors import NumericError
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

    def test_overflowing_squared_trace_is_numeric_failure(self):
        # tr(inv(Sigma)) = 4e154 is finite, but its square in the norm limit is not.
        truth = CovarianceModel.isotropic(10, 2.5e-154)
        with pytest.raises(NumericError, match="inverse Frobenius limit overflows"):
            limit_weights(truth, TargetMatrix.identity_over_p(10), 0.5)

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

    @pytest.mark.parametrize("ratio", [0.8, float("inf"), float("nan")])
    @pytest.mark.parametrize("limit", [
        dual_inverse_trace_limit,
        dual_inverse_frobenius_limit,
        lambda truth, ratio: pinv_weighted_trace_limit(truth, np.eye(truth.p), ratio),
        lambda truth, ratio: pinv_bilinear_limit(truth, np.ones(truth.p), np.ones(truth.p), ratio),
    ], ids=["dual_trace", "dual_frobenius", "pinv_weighted_trace", "pinv_bilinear"])
    def test_requires_ratio_above_one(self, limit, ratio):
        truth = CovarianceModel.isotropic(10, 1.0)
        with pytest.raises(ValueError, match=f"finite concentration ratio above 1, got {ratio}"):
            limit(truth, ratio)


def brentq_root(d, ratio):
    """Reference root of h(x) = 1 - (ratio/p) sum(x / (d + x)) by Brent's method."""
    p = d.size

    def h(x):
        return 1.0 - ratio / p * np.sum(x / (d + x))

    lo, hi = 0.5 * np.min(d) / (ratio - 1.0), 2.0 * np.max(d) / (ratio - 1.0)
    return brentq(h, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)


class TestSelfConsistentSolver:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        log_d=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=300),
        ratio=st.floats(1.001, 50.0),
    )
    def test_matches_brentq(self, log_d, ratio):
        d = np.exp(np.array(log_d))
        info = asymptotics._solve_self_consistent(d, ratio)
        assert info.value == pytest.approx(brentq_root(d, ratio), rel=1e-12)
        assert info.iterations <= 50
        assert info.residual <= asymptotics.RESIDUAL_TOL

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        log_d=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=300),
        log_ratio=st.floats(1.0, 12.0),
    )
    def test_large_ratio_matches_brentq(self, log_d, log_ratio):
        # 1/x grows with the ratio, so an exact root has an absolute residual
        # far above RESIDUAL_TOL; the solver compares it at that scale.
        d = np.exp(np.array(log_d))
        ratio = 10.0**log_ratio
        info = asymptotics._solve_self_consistent(d, ratio)
        assert info.value == pytest.approx(brentq_root(d, ratio), rel=1e-12)
        assert info.iterations <= 50
        assert info.residual <= asymptotics.RESIDUAL_TOL * max(1.0, 1.0 / info.value)

    def test_equal_values_solved_in_one_step(self):
        info = asymptotics._solve_self_consistent(np.full(7, 2.0), 3.0)
        assert info.value == pytest.approx(1.0, rel=1e-15)
        assert (info.iterations, info.method) == (1, "newton")

    def test_two_values_closed_form(self):
        # With p = 2 and ratio 2 the equation reads x^2 = d1 d2.
        info = asymptotics._solve_self_consistent(np.array([1e-3, 1.0]), 2.0)
        assert info.value == pytest.approx(np.sqrt(1e-3), rel=1e-15)
        assert info.method == "newton"

    def test_safeguard_bisects(self):
        # Near the root of this spread spectrum, rounding in h pushes a Newton
        # step out of the bracket, and the safeguard bisects instead.
        d = np.geomspace(1.0, 10.0, 10)
        info = asymptotics._solve_self_consistent(d, 1.02)
        assert info.method == "bisection"
        assert info.value == pytest.approx(brentq_root(d, 1.02), rel=1e-12)


class TestDualFrobeniusLimit:
    def test_isotropic_closed_form(self):
        truth = CovarianceModel.isotropic(20, 1.0)
        x = dual_inverse_trace_limit(truth, 2.0)
        assert x == pytest.approx(1.0, rel=1e-12)
        assert dual_inverse_frobenius_limit(truth, 2.0) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("ratio", [1.1, 1.5, 2.0, 5.0])
    def test_normalized_matches_spec1(self, sigma, ratio):
        truth = CovarianceModel.isotropic(25, sigma)
        value = dual_inverse_frobenius_limit(truth, ratio) / ratio
        expected = sigma**-2 / (ratio - 1.0) ** 3
        assert abs(value - expected) / expected < 1e-10

    def test_root_without_representable_square_is_numeric_failure(self):
        # x = 1e-200 solves the equation, and x^2 underflows.
        truth = CovarianceModel.isotropic(10, 1e200)
        with pytest.raises(NumericError, match="square"):
            dual_inverse_frobenius_limit(truth, 2.0)

    def test_matches_monte_carlo(self):
        p, ratio, reps = 200, 1.5, 100
        truth = build_covariance(THREE_BLOCK, p)
        n = round(p / ratio)
        values = [draw_stats(truth, n, 202, r).inverse_frobenius_sq / p for r in range(reps)]
        limit = dual_inverse_frobenius_limit(truth, ratio) / ratio
        assert abs(np.mean(values) - limit) / limit < 0.05


def weighted_root(truth, theta, ratio):
    return asymptotics._weighted_dual_info(truth, TargetMatrix.from_matrix(theta), ratio).value


class TestWeightedDualTraceLimit:
    def test_theta_equal_sigma(self):
        truth = build_covariance(THREE_BLOCK, 30)
        for ratio in (1.5, 2.0):
            value = weighted_root(truth, np.diag(truth.eigenvalues), ratio)
            assert value == pytest.approx(1.0 / (ratio - 1.0), rel=1e-10)

    def test_theta_identity_isotropic(self):
        sigma = 2.0
        truth = CovarianceModel.isotropic(20, sigma)
        value = weighted_root(truth, np.eye(20), 2.0)
        assert value == pytest.approx((1.0 / sigma) / 1.0, rel=1e-10)

    def test_identity_over_p_matches_dual_trace(self):
        # the weighted equation applied to I/p collapses to the plain one
        truth = build_covariance(THREE_BLOCK, 40)
        ratio = 1.5
        x = dual_inverse_trace_limit(truth, ratio)
        y = weighted_root(truth, np.eye(40) / 40.0, ratio)
        assert y == pytest.approx(x / 40.0, rel=1e-9)

    def test_rejects_asymmetric_theta(self):
        truth = CovarianceModel.isotropic(4, 1.0)
        theta = np.outer([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="symmetric"):
            weighted_root(truth, theta, 2.0)

    def test_rejects_indefinite_theta(self):
        truth = CovarianceModel.isotropic(4, 1.0)
        with pytest.raises(ValueError, match="positive definite"):
            weighted_root(truth, np.diag([1.0, 1.0, 1.0, -1.0]), 2.0)

    def test_residual_contract(self):
        truth = build_covariance(THREE_BLOCK, 30)
        theta = np.diag(truth.eigenvalues)
        ratio = 1.5
        y = weighted_root(truth, theta, ratio)
        s = 1.0 / np.sqrt(truth.eigenvalues)
        congruence = s[:, None] * theta * s[None, :]
        d = np.linalg.eigvalsh(congruence)
        rhs = ratio / truth.p * np.sum(1.0 / (d + y))
        assert abs(1.0 / y - rhs) < 1e-10

    @pytest.mark.parametrize("p", [30, 300])
    @pytest.mark.parametrize("ratio", [1.5, 3.0])
    @pytest.mark.parametrize("kind", ["identity", "inverse_of_prior2", "true_precision"])
    def test_diagonal_target_matches_congruence_eigenvalues(self, p, ratio, kind):
        truth = build_covariance(THREE_BLOCK, p)
        target = {
            "identity": lambda: TargetMatrix.identity_over_p(p),
            "inverse_of_prior2": lambda: TargetMatrix.inverse_of_spectrum(
                BUILTIN_SPECTRA["prior2"], p),
            "true_precision": lambda: TargetMatrix.from_matrix(truth.precision),
        }[kind]()
        assert target.diagonal is not None
        s = 1.0 / np.sqrt(truth.eigenvalues)
        congruence = s[:, None] * target.matrix * s[None, :]
        d = np.linalg.eigvalsh(congruence)
        expected = asymptotics._solve_self_consistent(d, ratio).value
        value = compute_limit_functionals(truth, ratio, target=target).target_dual.value
        assert value == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("ratio", [1.5, 3.0])
    def test_rotated_dense_target_matches_its_diagonal(self, ratio):
        # Sigma = s I: the congruence of Q diag(d) Q' has the eigenvalues d / s,
        # so the dense branch must find the root of the diagonal branch.
        p = 40
        rng = np.random.default_rng(12)
        truth = CovarianceModel.isotropic(p, 2.5)
        d = rng.uniform(0.5, 4.0, p)
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        dense = (q * d) @ q.T
        assert TargetMatrix.from_matrix(dense).diagonal is None
        expected = weighted_root(truth, np.diag(d), ratio)
        assert weighted_root(truth, dense, ratio) == pytest.approx(expected, rel=1e-12)


class TestRankOneLimit:
    """Bilinear forms eta' pinv(S) xi, the rank-one weighting of the trace limits."""

    def test_isotropic_matches_generic_path(self):
        # Classical isotropic limit (1/sigma) / (ratio (ratio - 1)) for a unit xi.
        truth = CovarianceModel.isotropic(15, 2.0)
        xi = np.ones(15) / np.sqrt(15.0)
        assert pinv_bilinear_limit(truth, xi, xi, 2.0) == pytest.approx(0.25, rel=1e-12)


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
        x_prime = dual_inverse_frobenius_limit(truth, ratio)
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
        weights = limit_weights(truth, target, 1.0 / 3.0)
        assert weights.alpha == 0.0
        assert weights.beta == 1.0

    def test_isotropic_identity_target(self):
        scale = 2.0  # precision is scale * I when sigma eigenvalues are 1/scale
        p = 40
        truth = CovarianceModel.isotropic(p, 1.0 / scale)
        weights = limit_weights(truth, TargetMatrix.identity_over_p(p), 0.5)
        assert weights.alpha == pytest.approx(0.0, abs=1e-12)
        assert weights.beta == pytest.approx(p * scale, rel=1e-12)

    def test_matches_direct_formula(self):
        p, ratio = 60, 1.0 / 3.0
        truth = build_covariance(THREE_BLOCK, p)
        target = TargetMatrix.identity_over_p(p)
        weights = limit_weights(truth, target, ratio)
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
            weights = limit_weights(truth, TargetMatrix.identity_over_p(45), ratio)
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
        weights = limit_weights(truth, target, ratio)
        assert abs(np.mean(alphas) - weights.alpha) / weights.alpha < 0.05
        assert abs(np.mean(betas) - weights.beta) / weights.beta < 0.05


class TestLimitWeightsGt1:
    def test_true_precision_target_exact(self):
        truth = build_covariance(THREE_BLOCK, 30)
        target = TargetMatrix.from_matrix(truth.precision)
        weights = limit_weights(truth, target, 1.5)
        assert weights.alpha == 0.0
        assert weights.beta == 1.0

    def test_isotropic_identity_target(self):
        scale = 2.0
        p = 40
        truth = CovarianceModel.isotropic(p, 1.0 / scale)
        weights = limit_weights(truth, TargetMatrix.identity_over_p(p), 1.5)
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
        weights = limit_weights(truth, target, ratio)
        assert abs(np.mean(betas) - weights.beta) / weights.beta < 0.05
        assert abs(np.mean(alphas) - weights.alpha) < 0.05


class TestLimitFunctionalsBundle:
    def test_low_ratio_branch(self):
        truth = build_covariance(THREE_BLOCK, 30)
        limits = compute_limit_functionals(
            truth, 0.5, spec=THREE_BLOCK, target=TargetMatrix.identity_over_p(30)
        )
        assert limits.inverse_frobenius == pytest.approx(inverse_frobenius_limit(THREE_BLOCK, 0.5))
        assert limits.dual is None
        assert 0.0 < limits.weights.alpha < 0.5

    def test_high_ratio_branch(self):
        truth = CovarianceModel.isotropic(20, 1.0)
        limits = compute_limit_functionals(
            truth, 2.0, target=TargetMatrix.identity_over_p(20)
        )
        assert limits.dual.value == pytest.approx(1.0, rel=1e-10)
        assert limits.dual_frobenius == pytest.approx(2.0, rel=1e-10)
        assert limits.dual.residual < 1e-10
        assert limits.target_dual is not None

    @pytest.mark.parametrize("with_target", [False, True], ids=["no-target", "target"])
    @pytest.mark.parametrize("ratio", [0.5, 1.5])
    def test_fields_equal_their_definitions(self, ratio, with_target):
        truth = build_covariance(THREE_BLOCK, 30)
        prior = TargetMatrix.inverse_of_spectrum(BUILTIN_SPECTRA["prior2"], 30)
        target = prior if with_target else None
        equivalents = []
        equivalent = asymptotics._equivalent

        def counting(*args):
            equivalents.append(args)
            return equivalent(*args)

        def refuse(*args):
            raise AssertionError("limit_weights called")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(asymptotics, "_equivalent", counting)
            patch.setattr(asymptotics, "limit_weights", refuse)
            limits = compute_limit_functionals(truth, ratio, spec=THREE_BLOCK, target=target)
        assert len(equivalents) == with_target
        below, above = ratio < 1.0, ratio > 1.0
        assert limits.ratio == ratio
        assert limits.inverse_frobenius == (
            inverse_frobenius_limit(THREE_BLOCK, ratio) if below else None)
        assert getattr(limits.dual, "value", None) == (
            dual_inverse_trace_limit(truth, ratio) if above else None)
        assert limits.dual_frobenius == (
            dual_inverse_frobenius_limit(truth, ratio) if above else None)
        assert getattr(limits.target_dual, "value", None) == (
            weighted_root(truth, target.matrix, ratio) if above and with_target else None)
        assert limits.weights == (limit_weights(truth, target, ratio) if with_target else None)

    def test_ratio_one_rejected(self):
        truth = CovarianceModel.isotropic(10, 1.0)
        with pytest.raises(ValueError):
            compute_limit_functionals(truth, 1.0)

    @pytest.mark.parametrize("ratio", [float("inf"), float("nan"), float("-inf")])
    def test_non_finite_ratio_rejected(self, ratio):
        truth = build_covariance(THREE_BLOCK, 30)
        with pytest.raises(ValueError, match="finite"):
            compute_limit_functionals(truth, ratio, target=TargetMatrix.identity_over_p(30))

    @pytest.mark.parametrize("ratio", [1.0, 0.0, -1.0, float("nan"), float("inf")])
    def test_limit_weights_rejects_ratio(self, ratio):
        truth = build_covariance(THREE_BLOCK, 30)
        with pytest.raises(ValueError, match="finite, positive and different from 1"):
            limit_weights(truth, TargetMatrix.identity_over_p(30), ratio)

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
        weights = limit_weights(truth, target, 1.5)
        assert (limits.weights.alpha, limits.weights.beta) == (weights.alpha, weights.beta)

    def test_target_size_checked_once(self, monkeypatch):
        truth = build_covariance(THREE_BLOCK, 30)
        target = TargetMatrix.identity_over_p(30)
        checked = []
        check = asymptotics.require_shape

        def counting(value, *args):
            checked.append(value)
            check(value, *args)

        monkeypatch.setattr(asymptotics, "require_shape", counting)
        compute_limit_functionals(truth, 1.5, target=target)
        # Only the public entry checks the target; the private functions trust it.
        assert sum(value is target for value in checked) == 1
