"""Data generation, replication engine, and builtin experiments."""

import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precshrink import (
    CovarianceModel,
    DistributionSpec,
    ExperimentConfig,
    SpectrumSpec,
    TargetMatrix,
    TargetSpec,
    bona_fide_olse,
    build_covariance,
    builtin_experiments,
    frobenius_loss,
    generate_data,
    olse_covariance,
    oracle_equivariant,
    oracle_olse_gt1,
    oracle_olse_lt1,
    replication_rng,
    run_experiment,
    run_grid_point,
    sample_covariance,
)
from precshrink import metrics, prial, simulation
from precshrink.linalg import SampleStats
from precshrink.simulation import PRIOR_SPECTRA, THREE_BLOCK, with_overrides


def small_config(**overrides):
    base = dict(
        name="unit",
        spectrum=THREE_BLOCK,
        targets=(TargetSpec.identity_over_p(),),
        ratio=1.0 / 3.0,
        p_grid=(15, 30),
        distribution=DistributionSpec("gaussian"),
        replications=4,
        seed=99,
        estimators=("sample_inv", "olse_precision", "olse_precision_oracle", "ev_oracle"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestDistributionSpec:
    def test_gaussian_takes_no_df(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            DistributionSpec("gaussian", degrees_of_freedom=5.0)

    def test_student_requires_df(self):
        with pytest.raises(ValueError, match="degrees_of_freedom"):
            DistributionSpec("student_t")

    def test_df_at_most_two_always_rejected(self):
        with pytest.raises(ValueError, match="df > 2"):
            DistributionSpec("student_t", degrees_of_freedom=2.0, allow_low_df=True)

    def test_df_at_most_four_needs_override(self):
        with pytest.raises(ValueError, match="fourth-moment"):
            DistributionSpec("student_t", degrees_of_freedom=3.0)
        spec = DistributionSpec("student_t", degrees_of_freedom=3.0, allow_low_df=True)
        assert spec.degrees_of_freedom == 3.0

    @pytest.mark.parametrize("df", [float("nan"), float("inf")])
    def test_non_finite_df_rejected(self, df):
        with pytest.raises(ValueError, match="degrees_of_freedom must be finite"):
            DistributionSpec("student_t", degrees_of_freedom=df, allow_low_df=True)

    def test_labels(self):
        assert DistributionSpec("gaussian").label == "gaussian"
        assert DistributionSpec("student_t", degrees_of_freedom=10.0).label == "student_t(df=10)"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            DistributionSpec("laplace")


class TestGenerateData:
    def test_deterministic_for_fixed_stream(self):
        truth = build_covariance(THREE_BLOCK, 10)
        dist = DistributionSpec("gaussian")
        a = generate_data(truth, 30, dist, replication_rng(7, 10, 3)).values
        b = generate_data(truth, 30, dist, replication_rng(7, 10, 3)).values
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_across_replications(self):
        truth = build_covariance(THREE_BLOCK, 10)
        dist = DistributionSpec("gaussian")
        a = generate_data(truth, 30, dist, replication_rng(7, 10, 0)).values
        b = generate_data(truth, 30, dist, replication_rng(7, 10, 1)).values
        assert not np.array_equal(a, b)

    def test_identity_covariance_concentrates(self):
        truth = CovarianceModel.isotropic(10, 1.0)
        data = generate_data(truth, 1000, DistributionSpec("gaussian"), replication_rng(1, 10, 0))
        s = (data.values @ data.values.T) / 1000.0
        assert np.linalg.norm(s - np.eye(10), 2) < 0.3

    def test_student_t_unit_variance(self):
        truth = CovarianceModel.isotropic(1, 1.0)
        dist = DistributionSpec("student_t", degrees_of_freedom=10.0)
        data = generate_data(truth, 1_000_000, dist, replication_rng(2, 1, 0))
        variance = float(np.var(data.values))
        assert 0.99 <= variance <= 1.01

    @pytest.mark.parametrize("p", [1, 7, 60, 180])
    @pytest.mark.parametrize("dist", [DistributionSpec("gaussian"),
                                      DistributionSpec("student_t", degrees_of_freedom=6.0)])
    def test_matches_dense_square_root(self, p, dist):
        truth = build_covariance(THREE_BLOCK, p)
        n = 2 * p + 1
        rng = replication_rng(5, p, 2)
        if dist.kind == "gaussian":
            x = rng.standard_normal((p, n))
        else:
            df = dist.degrees_of_freedom
            x = rng.standard_t(df, size=(p, n)) * np.sqrt((df - 2.0) / df)
        data = generate_data(truth, n, dist, replication_rng(5, p, 2))
        np.testing.assert_array_equal(data.values, np.diag(np.sqrt(truth.eigenvalues)) @ x)

    def test_shape(self):
        truth = build_covariance(THREE_BLOCK, 5)
        data = generate_data(truth, 12, DistributionSpec("gaussian"), replication_rng(3, 5, 0))
        assert data.values.shape == (5, 12)


class TestRunExperiment:
    def test_baseline_prial_is_exactly_zero(self):
        reports = run_experiment(small_config())
        for report in reports:
            assert report.summary("sample_inv").prial_percent == 0.0

    @pytest.mark.parametrize("ratio", [1.0 / 3.0, 1.5])
    def test_true_precision_target_reaches_100(self, ratio):
        config = small_config(
            targets=(TargetSpec.true_precision(),),
            estimators=("olse_precision_oracle",),
            ratio=ratio,
            p_grid=(12,),
        )
        report, results = run_grid_point(config, 12)
        row = "olse_precision_oracle[true_precision]"
        entry = report.summary(row)
        assert entry.prial_percent == 100.0
        assert entry.mean_loss == 0.0
        assert all(res.weights[row] == (0.0, 1.0) and res.losses[row] == 0.0 for res in results)

    def test_threads_do_not_change_results(self):
        config = small_config(replications=8)
        serial = run_experiment(config, threads=1)
        parallel = run_experiment(config, threads=4)
        for a, b in zip(serial, parallel):
            for ea, eb in zip(a.summaries, b.summaries):
                assert ea == eb

    def test_replication_results_are_deterministic(self):
        config = small_config(p_grid=(15,))
        _, reps_a = run_grid_point(config, 15)
        _, reps_b = run_grid_point(config, 15, threads=3)
        for ra, rb in zip(reps_a, reps_b):
            assert ra.losses == rb.losses
            assert ra.weights == rb.weights

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            run_grid_point(small_config(), 15, threads=threads)

    def test_worker_pool_capped(self, monkeypatch):
        requested = []

        class RecordingExecutor:
            """Records the pool size asked for and maps serially: no threads start."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(simulation, "ThreadPoolExecutor", RecordingExecutor)
        config = small_config(replications=4)
        run_grid_point(config, 15, threads=64)
        assert requested == [min(64, simulation.usable_cpus(), 4)]
        requested.clear()
        monkeypatch.setattr(simulation, "usable_cpus", lambda: 8)
        for threads in (64, 3, 1):
            run_grid_point(config, 15, threads=threads)
        monkeypatch.setattr(simulation, "usable_cpus", lambda: 2)
        run_grid_point(config, 15, threads=64)
        run_grid_point(small_config(replications=1), 15, threads=64)
        assert requested == [4, 3, 1, 2, 1]

    def test_usable_cpus_follows_affinity(self):
        expected = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count())
        assert simulation.usable_cpus() == expected

    def test_regime_routing_low_ratio(self):
        report = run_experiment(small_config(p_grid=(15,)))[0]
        assert report.baseline_id == "sample_inv"
        ids = [e.estimator_id for e in report.summaries]
        assert "sample_pinv" not in ids

    def test_regime_routing_high_ratio(self):
        config = small_config(
            ratio=1.5,
            p_grid=(15,),
            estimators=("sample_pinv", "olse_precision", "olse_precision_oracle", "ev_oracle"),
        )
        report = run_experiment(config)[0]
        assert report.baseline_id == "sample_pinv"
        skipped = report.summary("olse_precision[identity_over_p]")
        assert skipped.status == "skipped: bona fide estimator is undefined for p >= n"
        assert report.summary("olse_precision_oracle[identity_over_p]").status == "ok"

    def test_losses_finite_and_nonnegative(self):
        _, replications = run_grid_point(small_config(p_grid=(15,)), 15)
        for result in replications:
            for loss in result.losses.values():
                assert np.isfinite(loss) and loss >= 0.0

    def test_weights_recorded_for_shrinkage_estimators(self):
        _, replications = run_grid_point(small_config(p_grid=(15,)), 15)
        assert "olse_precision[identity_over_p]" in replications[0].weights
        assert "sample_inv" not in replications[0].weights

    def test_baseline_added_when_missing(self):
        config = small_config(estimators=("ev_oracle",), p_grid=(15,))
        report = run_experiment(config)[0]
        assert report.summary("sample_inv").prial_percent == 0.0

    def test_rows_compute_only_the_target_scalars_they_read(self):
        # The squared norm of the precision target 1 / 2e-154 overflows, but
        # olse_cov_inv reads only the covariance target, so its row still runs.
        tiny = TargetSpec.from_cov_spectrum("tiny", SpectrumSpec(((1.0, 2e-154),)))
        config = small_config(estimators=("olse_cov_inv",), targets=(tiny,), p_grid=(15,),
                              replications=2)
        report, _ = run_grid_point(config, 15)
        assert report.summary("olse_cov_inv[tiny]").status == "ok"

    def test_replication_forms_no_dense_inverse_or_loss(self, monkeypatch):
        # Every row is scored from eigh(S): no replication evaluates the lazy
        # dense inverse or takes a dense Frobenius loss, in either regime.
        def refuse(*args, **kwargs):
            raise AssertionError("dense path used in a replication")

        monkeypatch.setattr(SampleStats, "inverse", property(refuse))
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "precshrink":
                for attr, value in list(vars(module).items()):
                    if value is metrics.frobenius_loss:
                        monkeypatch.setattr(module, attr, refuse)
        targets = (TargetSpec.identity_over_p(), TargetSpec.true_precision(),
                   TargetSpec.from_cov_spectrum("prior2", PRIOR_SPECTRA["prior2"]))
        for ratio in (1.0 / 3.0, 1.5):
            config = small_config(estimators=ALL_IDS, targets=targets, ratio=ratio,
                                  p_grid=(15,), replications=2)
            report, results = run_grid_point(config, 15)
            ran = [entry.estimator_id for entry in report.summaries if entry.status == "ok"]
            assert len(ran) == (11 if ratio < 1.0 else 8)
            assert all(set(result.losses) == set(ran) for result in results)


ALL_IDS = ("sample_inv", "sample_pinv", "olse_precision", "olse_precision_oracle",
           "olse_cov_inv", "ev_oracle")
ALL_ROWS = ["sample_inv", "sample_pinv",
            "olse_precision[identity_over_p]", "olse_precision[prior2]",
            "olse_precision_oracle[identity_over_p]", "olse_precision_oracle[prior2]",
            "olse_cov_inv[identity_over_p]", "olse_cov_inv[prior2]", "ev_oracle"]
PINV_ONLY = "pseudo-inverse baseline applies only for p >= n"
NEAR_SINGULAR = "p/n = 0.952 lies in the near-singular band"
BONA_FIDE_PSEUDO = "bona fide estimator is undefined for p >= n"


class TestGridPointSummaries:
    """One grid point's report rows against the replications they summarize."""

    def config(self, ratio, estimators=ALL_IDS):
        prior2 = TargetSpec.from_cov_spectrum("prior2", PRIOR_SPECTRA["prior2"])
        return small_config(ratio=ratio, p_grid=(20,), replications=3, seed=3,
                            targets=(TargetSpec.identity_over_p(), prior2),
                            estimators=estimators)

    @pytest.mark.parametrize("ratio, baseline, skipped", [
        (0.97, "sample_inv", {
            "sample_pinv": PINV_ONLY,
            "olse_precision[identity_over_p]": NEAR_SINGULAR,
            "olse_precision[prior2]": NEAR_SINGULAR,
            "olse_precision_oracle[identity_over_p]": NEAR_SINGULAR,
            "olse_precision_oracle[prior2]": NEAR_SINGULAR,
        }),
        (2.0, "sample_pinv", {
            "sample_inv": "sample inverse undefined for p >= n",
            "olse_precision[identity_over_p]": BONA_FIDE_PSEUDO,
            "olse_precision[prior2]": BONA_FIDE_PSEUDO,
        }),
        (0.5, "sample_inv", {"sample_pinv": PINV_ONLY}),
    ])
    def test_rows_skips_and_means(self, ratio, baseline, skipped):
        report, results = run_grid_point(self.config(ratio), 20)
        assert report.baseline_id == baseline
        assert [e.estimator_id for e in report.summaries] == ALL_ROWS
        assert [r.index for r in results] == [0, 1, 2]
        baseline_mean = np.mean(np.array([res.losses[baseline] for res in results]))
        for entry in report.summaries:
            row = entry.estimator_id
            assert (entry.experiment, entry.p, entry.n, entry.ratio, entry.distribution,
                    entry.seed) == ("unit", 20, report.n, ratio, "gaussian", 3)
            if row in skipped:
                assert (entry.status, entry.replications) == (f"skipped: {skipped[row]}", 0)
                assert np.isnan([entry.mean_loss, entry.prial_percent,
                                 entry.mean_alpha, entry.mean_beta]).all()
                assert all(row not in res.losses for res in results)
                continue
            assert (entry.status, entry.replications) == ("ok", 3)
            mean_loss = np.mean(np.array([res.losses[row] for res in results]))
            assert entry.mean_loss == mean_loss
            assert entry.prial_percent == prial(mean_loss, baseline_mean)
            if "[" in row:
                alphas, betas = zip(*(res.weights[row] for res in results))
                assert entry.mean_alpha == np.mean(np.array(alphas))
                assert entry.mean_beta == np.mean(np.array(betas))
            else:
                assert np.isnan(entry.mean_alpha) and np.isnan(entry.mean_beta)

    @pytest.mark.parametrize("ratio, baseline", [(0.5, "sample_inv"), (2.0, "sample_pinv")])
    def test_unrequested_baseline_comes_first(self, ratio, baseline):
        requested = tuple(kind for kind in ALL_IDS if kind != baseline)
        report, _ = run_grid_point(self.config(ratio, requested), 20)
        rows = [e.estimator_id for e in report.summaries]
        assert rows == [baseline] + [row for row in ALL_ROWS if row != baseline]
        assert report.summaries[0].prial_percent == 0.0


def close(actual, expected, atol):
    return abs(actual - expected) <= max(1e-12 * abs(expected), atol)


@st.composite
def spectra(draw):
    """A spectrum of one to three atoms with eigenvalues in [0.1, 20]."""
    values = draw(st.lists(st.floats(0.1, 20.0), min_size=1, max_size=3, unique=True))
    counts = draw(st.lists(st.integers(1, 5), min_size=len(values), max_size=len(values)))
    return SpectrumSpec(tuple((c / sum(counts), v) for c, v in zip(counts, values)))


class TestSpectralReplication:
    """The replication scores every row from eigh(S); the dense estimator
    functions and ``frobenius_loss`` are the reference.

    Agreement is 1e-12 relative. A quantity that is 0 in exact arithmetic is
    rounding noise on both routes, so it gets an absolute bound instead: 1e-14
    for an alpha that cancels (the true precision as target, or any
    multiple of it when Sigma is a multiple of I), and 1e-28 ||inv(Sigma)||^2
    for a loss, which is the square of a 1e-14 relative error.
    """

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(p=st.integers(3, 24), n=st.integers(2, 40), truth=spectra(), prior=spectra())
    def test_matches_dense_estimators(self, p, n, truth, prior):
        targets = (TargetSpec.identity_over_p(), TargetSpec.true_precision(),
                   TargetSpec.from_cov_spectrum("prior", prior))
        config = small_config(spectrum=truth, ratio=p / n, p_grid=(p,), replications=2,
                              targets=targets, estimators=ALL_IDS)
        report, results = run_grid_point(config, p)
        model = build_covariance(truth, p)
        matrices = {
            "identity_over_p": (TargetMatrix.identity_over_p(p),) * 2,
            "true_precision": (TargetMatrix.from_matrix(model.precision),
                               TargetMatrix.from_matrix(np.diag(model.eigenvalues))),
            "prior": (TargetMatrix.inverse_of_spectrum(prior, p),
                      TargetMatrix.from_spectrum(prior, p)),
        }
        ran = [entry.estimator_id for entry in report.summaries if entry.status == "ok"]
        loss_atol = 1e-28 * model.precision_frobenius_sq
        for result in results:
            data = generate_data(model, n, config.distribution,
                                 replication_rng(config.seed, p, result.index))
            stats = sample_covariance(data)
            for row in ran:
                kind, _, name = row.rstrip("]").partition("[")
                loss = result.losses[row]
                if kind in ("sample_inv", "sample_pinv"):
                    assert close(loss, frobenius_loss(stats.inverse, model.precision),
                                 loss_atol), row
                    continue
                if kind == "ev_oracle":
                    dense = oracle_equivariant(stats, model).matrix
                    assert close(loss, frobenius_loss(dense, model.precision), loss_atol), row
                    continue
                precision_target, covariance_target = matrices[name]
                if kind == "olse_precision":
                    dense = bona_fide_olse(stats, precision_target)
                elif kind == "olse_precision_oracle":
                    oracle = oracle_olse_lt1 if p < n else oracle_olse_gt1
                    dense = oracle(stats, model, precision_target)
                else:
                    dense = olse_covariance(stats, covariance_target)
                alpha, beta = result.weights[row]
                assert close(alpha, dense.weights.alpha, 1e-14), row
                assert close(beta, dense.weights.beta, 0.0), row
                # The loss at the row's own weights: a near-zero alpha that
                # cancels may differ in its last bits between the two routes.
                if kind == "olse_cov_inv":
                    sigma_hat = alpha * stats.matrix + beta * covariance_target.matrix
                    estimate = np.linalg.inv(sigma_hat)
                else:
                    estimate = alpha * stats.inverse + beta * precision_target.matrix
                assert close(loss, frobenius_loss(estimate, model.precision), loss_atol), row

    @pytest.mark.parametrize("ratio", [0.5, 1.5])
    def test_identity_truth_losses_stay_nonnegative(self, ratio):
        # With Sigma = I the ev_oracle and scalar-target covariance losses are
        # pure rounding; a loss that came out negative would raise here.
        config = small_config(spectrum=SpectrumSpec.identity(), ratio=ratio, p_grid=(30,),
                              estimators=("ev_oracle", "olse_cov_inv"), replications=8)
        report, results = run_grid_point(config, 30)
        assert [entry.status for entry in report.summaries] == ["ok"] * 3
        for result in results:
            assert 0.0 <= result.losses["ev_oracle"] < 1e-20
            assert result.losses["olse_cov_inv[identity_over_p]"] >= 0.0


class TestConfigValidation:
    def test_sample_size_floor(self):
        with pytest.raises(ValueError, match="n < 2"):
            small_config(p_grid=(1,), ratio=1.0)

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_ratio(self, ratio):
        with pytest.raises(ValueError, match="ratio must be finite and positive"):
            small_config(ratio=ratio)

    def test_unknown_estimator(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            small_config(estimators=("sample_inv", "magic"))

    def test_replication_floor(self):
        with pytest.raises(ValueError, match="replication"):
            small_config(replications=0)

    def test_replication_ceiling(self):
        assert small_config(replications=sys.maxsize).replications == sys.maxsize
        with pytest.raises(ValueError, match="replications must be at most"):
            small_config(replications=sys.maxsize + 1)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            small_config(seed=-3)

    def test_duplicate_estimator_ids(self):
        with pytest.raises(ValueError, match=r"duplicate estimator ids: \['olse_precision'\]"):
            small_config(estimators=("sample_inv", "olse_precision", "olse_precision"))

    def test_duplicate_p_values(self):
        with pytest.raises(ValueError, match=r"duplicate p values: \[15\]"):
            small_config(p_grid=(15, 30, 15))

    def test_duplicate_target_names(self):
        identity = TargetSpec.identity_over_p()
        with pytest.raises(ValueError, match=r"duplicate target names: \['identity_over_p'\]"):
            small_config(targets=(identity, identity))
        prior = TargetSpec.from_cov_spectrum("prior", THREE_BLOCK)
        other = TargetSpec.from_cov_spectrum("prior", SpectrumSpec.identity())
        with pytest.raises(ValueError, match="duplicate target names"):
            small_config(targets=(prior, other))

    @pytest.mark.parametrize("kind, message", [
        ("mystery", "unknown target kind 'mystery'"),
        ("cov_spectrum", "cov_spectrum target needs a spectrum"),
        ("precision_spectrum", "precision_spectrum target needs a spectrum"),
    ])
    def test_target_spec_rejects(self, kind, message):
        with pytest.raises(ValueError, match=message):
            TargetSpec("t", kind)

    def test_targeted_estimators_need_targets(self):
        with pytest.raises(ValueError, match="target spec"):
            small_config(targets=(), estimators=("sample_inv", "olse_precision"))

    def test_with_overrides(self):
        config = with_overrides(small_config(), replications=9, seed=5, p_grid=(20,))
        assert config.replications == 9
        assert config.seed == 5
        assert config.p_grid == (20,)


class TestBuiltinExperiments:
    def test_names(self):
        configs = builtin_experiments()
        assert set(configs) == {"fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5"}

    def test_fig1_spectrum(self):
        spectrum = builtin_experiments()["fig1"].spectrum
        assert spectrum.atoms == ((0.2, 1.0), (0.4, 3.0), (0.4, 10.0))

    def test_fig2_has_five_separation_priors(self):
        config = builtin_experiments()["fig2"]
        named = [t for t in config.targets if t.kind == "cov_spectrum"]
        assert [t.name for t in named] == ["prior1", "prior2", "prior3", "prior4", "prior5"]
        prior4 = named[3].spectrum
        assert prior4.atoms == ((0.2, 0.1), (0.4, 1.0), (0.4, 1000.0))

    def test_fig4_is_student_t(self):
        config = builtin_experiments()["fig4"]
        assert config.distribution.kind == "student_t"
        assert config.distribution.degrees_of_freedom == 10.0

    def test_fig5_ratio_and_baseline(self):
        config = builtin_experiments()["fig5"]
        assert config.ratio == 1.5
        assert "sample_pinv" in config.estimators
