"""Data generation, replication engine, and builtin experiments."""

import os

import numpy as np
import pytest

from precshrink import (
    CovarianceModel,
    DistributionSpec,
    ExperimentConfig,
    SpectrumSpec,
    TargetSpec,
    build_covariance,
    builtin_experiments,
    generate_data,
    replication_rng,
    run_experiment,
    run_grid_point,
)
from precshrink import prial, simulation
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

    def test_true_precision_target_reaches_100(self):
        config = small_config(
            targets=(TargetSpec.true_precision(),),
            estimators=("sample_inv", "olse_precision_oracle"),
            p_grid=(12,),
        )
        report = run_experiment(config)[0]
        entry = report.summary("olse_precision_oracle[true_precision]")
        assert entry.prial_percent == 100.0
        assert entry.mean_loss == 0.0

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
        workers = min(64, simulation.usable_cpus(), 4)
        assert requested == ([workers] if workers > 1 else [])
        requested.clear()
        monkeypatch.setattr(simulation, "usable_cpus", lambda: 8)
        for threads in (64, 3):
            run_grid_point(config, 15, threads=threads)
        monkeypatch.setattr(simulation, "usable_cpus", lambda: 2)
        run_grid_point(config, 15, threads=64)
        assert requested == [4, 3, 2]

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
        assert skipped.status == "skipped"
        assert "p >= n" in skipped.reason
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

    def test_estimators_looked_up_by_name_at_call_time(self, monkeypatch):
        # Rebinding a module-level name (as tracing does) must reach every row.
        calls = {}

        def counting(name):
            func = getattr(simulation, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return func(*args, **kwargs)

            monkeypatch.setattr(simulation, name, wrapper)

        names = ("frobenius_loss", "bona_fide_olse", "oracle_olse_lt1", "olse_covariance",
                 "oracle_equivariant")
        for name in names:
            counting(name)
        estimators = ("sample_inv", "olse_precision", "olse_precision_oracle", "olse_cov_inv",
                      "ev_oracle")
        run_grid_point(small_config(estimators=estimators, p_grid=(15,), replications=2), 15)
        assert calls == {"frobenius_loss": 10, "bona_fide_olse": 2, "oracle_olse_lt1": 2,
                         "olse_covariance": 2, "oracle_equivariant": 2}


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
            if row in skipped:
                assert (entry.status, entry.reason, entry.replications) == (
                    "skipped", skipped[row], 0)
                assert np.isnan([entry.mean_loss, entry.prial_percent,
                                 entry.mean_alpha, entry.mean_beta]).all()
                assert all(row not in res.losses for res in results)
                continue
            assert (entry.status, entry.reason, entry.replications) == ("ok", "", 3)
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
        prior4 = named[3].cov_spectrum
        assert prior4.atoms == ((0.2, 0.1), (0.4, 1.0), (0.4, 1000.0))

    def test_fig4_is_student_t(self):
        config = builtin_experiments()["fig4"]
        assert config.distribution.kind == "student_t"
        assert config.distribution.degrees_of_freedom == 10.0

    def test_fig5_ratio_and_baseline(self):
        config = builtin_experiments()["fig5"]
        assert config.ratio == 1.5
        assert "sample_pinv" in config.estimators
