"""CLI subcommands, config files, result CSVs, exit codes."""

import subprocess
import sys

import numpy as np
import pytest

from precshrink import CovarianceModel, generate_data, replication_rng, DistributionSpec
from precshrink.cli import main
from precshrink.configio import read_results


def write_gaussian_csv(path, p, n, seed=0, scale=1.0):
    truth = CovarianceModel.isotropic(p, scale)
    data = generate_data(truth, n, DistributionSpec("gaussian"), replication_rng(seed, p, 0))
    np.savetxt(path, data.values, delimiter=",")
    return path


class TestSimulate:
    def test_builtin_run_and_row_count(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = main(
            ["simulate", "fig1", "--reps", "3", "--p-grid", "15,30", "--seed", "42",
             "--out", str(out)]
        )
        assert code == 0
        rows = read_results(str(out))
        # 8 estimator rows (baseline + 2x3 targeted + ev) per grid point
        assert len(rows) == 16
        assert {row.p for row in rows} == {15, 30}
        assert all(row.seed == 42 and row.status == "ok" for row in rows)

    def test_repeat_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["simulate", "fig1", "--reps", "2", "--p-grid", "12", "--seed", "7"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_round_trip_preserves_floats(self, tmp_path):
        out = tmp_path / "results.csv"
        main(["simulate", "fig1", "--reps", "2", "--p-grid", "12", "--seed", "7",
              "--out", str(out)])
        rows = read_results(str(out))
        rewritten = tmp_path / "again.csv"
        from precshrink.configio import write_results

        write_results(str(rewritten), rows)
        assert out.read_bytes() == rewritten.read_bytes()

    def test_unknown_config_exits_2(self, capsys):
        assert main(["simulate", "no_such_config", "--seed", "1"]) == 2

    def test_config_file(self, tmp_path):
        config = tmp_path / "exp.yaml"
        config.write_text(
            """
name: custom1
spectrum:
  - {weight: 0.5, eigenvalue: 1.0}
  - {weight: 0.5, eigenvalue: 4.0}
targets: [identity_over_p]
ratio: 0.25
p_grid: [8]
distribution: {kind: gaussian}
replications: 3
seed: 11
estimators: [sample_inv, olse_precision]
"""
        )
        out = tmp_path / "custom.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 0
        rows = read_results(str(out))
        assert rows[0].experiment == "custom1"
        assert rows[0].n == 32

    def test_config_without_seed_needs_flag(self, tmp_path, capsys):
        config = tmp_path / "exp.yaml"
        config.write_text(
            """
spectrum: [{weight: 1.0, eigenvalue: 1.0}]
ratio: 0.5
p_grid: [6]
replications: 2
estimators: [sample_inv]
"""
        )
        assert main(["simulate", str(config)]) == 2
        assert "seed" in capsys.readouterr().err
        assert main(["simulate", str(config), "--seed", "3", "--out",
                     str(config.with_suffix(".csv"))]) == 0

    def test_duplicate_ids_and_targets_exit_2(self, tmp_path, capsys):
        config = tmp_path / "dup.yaml"
        body = """
spectrum: [{weight: 1.0, eigenvalue: 1.0}]
ratio: 0.25
p_grid: [8]
replications: 2
seed: 1
"""
        config.write_text(body + "targets: [identity_over_p, identity_over_p]\n"
                          "estimators: [sample_inv, olse_precision]\n")
        assert main(["simulate", str(config), "--out", str(tmp_path / "a.csv")]) == 2
        assert "duplicate target names" in capsys.readouterr().err
        config.write_text(body + "estimators: [sample_inv, olse_precision, olse_precision]\n")
        assert main(["simulate", str(config), "--out", str(tmp_path / "b.csv")]) == 2
        assert "duplicate estimator ids" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists() and not (tmp_path / "b.csv").exists()

    def test_nan_ratio_config_exit_2(self, tmp_path, capsys):
        config = tmp_path / "nan.yaml"
        config.write_text(
            """
spectrum: [{weight: 1.0, eigenvalue: 1.0}]
ratio: .nan
p_grid: [8]
replications: 2
seed: 1
estimators: [sample_inv]
"""
        )
        assert main(["simulate", str(config), "--out", str(tmp_path / "nan.csv")]) == 2
        assert "ratio must be finite and positive, got nan" in capsys.readouterr().err
        assert not (tmp_path / "nan.csv").exists()

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.yaml"
        config.write_text("spectrum: [{weight: 1.0}]\nratio: 0.5\n")
        assert main(["simulate", str(config), "--seed", "1"]) == 2

    def test_named_builtin_target(self, tmp_path):
        config = tmp_path / "exp.yaml"
        config.write_text(
            """
spectrum: threeblock
targets: [identity_over_p, prior2]
ratio: 0.25
p_grid: [10]
replications: 2
seed: 8
estimators: [sample_inv, olse_precision]
"""
        )
        out = tmp_path / "named.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 0
        ids = {row.estimator_id for row in read_results(str(out))}
        assert "olse_precision[prior2]" in ids

    def test_fig5_baseline_is_pseudo_inverse(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert main(["simulate", "fig5", "--reps", "3", "--p-grid", "15",
                     "--seed", "2", "--out", str(out)]) == 0
        rows = {row.estimator_id: row for row in read_results(str(out))}
        assert rows["sample_pinv"].prial_percent == 0.0
        assert "sample_inv" not in rows

    def test_skipped_estimator_marked(self, tmp_path):
        config = tmp_path / "exp.yaml"
        config.write_text(
            """
spectrum: [{weight: 1.0, eigenvalue: 1.0}]
targets: [identity_over_p]
ratio: 2.0
p_grid: [8]
replications: 2
seed: 5
estimators: [sample_pinv, olse_precision]
"""
        )
        out = tmp_path / "skip.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 0
        rows = read_results(str(out))
        skipped = [r for r in rows if r.status.startswith("skipped")]
        assert len(skipped) == 1
        assert skipped[0].estimator_id == "olse_precision[identity_over_p]"

    def test_threads_below_one_exits_2(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert main(["simulate", "fig1", "--reps", "2", "--p-grid", "12", "--seed", "7",
                     "--threads", "0", "--out", str(out)]) == 2
        assert "threads must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, p", [("fig5", "100"), ("fig1", "180")])
    def test_output_independent_of_blas_threads(self, tmp_path, child_env, experiment, p):
        outputs = []
        for setting in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}):
            out = tmp_path / f"{experiment}_{len(outputs)}.csv"
            subprocess.run(
                [sys.executable, "-m", "precshrink", "simulate", experiment, "--reps", "4",
                 "--p-grid", p, "--seed", "5", "--out", str(out)],
                env=child_env(**setting), capture_output=True, timeout=120, check=True,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


class TestEstimate:
    def test_invertible_regime(self, tmp_path, capsys):
        data = write_gaussian_csv(tmp_path / "data.csv", 10, 200, seed=1)
        out = tmp_path / "precision.csv"
        assert main(["estimate", str(data), "--out", str(out)]) == 0
        console = capsys.readouterr().out
        alpha = float(console.split("alpha=")[1].split()[0])
        beta = float(console.split("beta=")[1].split()[0])
        assert 0.0 < alpha < 0.95
        assert beta > 0.0
        matrix = np.loadtxt(out, delimiter=",")
        assert matrix.shape == (10, 10)

    def test_observation_rows_flag(self, tmp_path):
        truth = CovarianceModel.isotropic(6, 1.0)
        data = generate_data(truth, 80, DistributionSpec("gaussian"), replication_rng(2, 6, 0))
        path = tmp_path / "obs.csv"
        np.savetxt(path, data.values.T, delimiter=",")
        assert main(["estimate", str(path), "--rows", "observations",
                     "--out", str(tmp_path / "o.csv")]) == 0

    def test_identical_rows_exit_3(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("1,1,1\n1,1,1\n1,1,1\n")
        assert main(["estimate", str(path)]) == 3
        assert "singular" in capsys.readouterr().err.lower()

    def test_wide_matrix_requires_mode_flag(self, tmp_path, capsys):
        data = write_gaussian_csv(tmp_path / "wide.csv", 12, 6, seed=3)
        assert main(["estimate", str(data)]) == 2
        assert "identity-case" in capsys.readouterr().err

    def test_identity_case(self, tmp_path, capsys):
        data = write_gaussian_csv(tmp_path / "wide.csv", 40, 20, seed=4, scale=2.0)
        out = tmp_path / "iso.csv"
        assert main(["estimate", str(data), "--identity-case", "--out", str(out)]) == 0
        matrix = np.loadtxt(out, delimiter=",")
        scale = matrix[0, 0]
        assert abs(scale - 0.5) < 0.2
        np.testing.assert_allclose(matrix, scale * np.eye(40), atol=1e-12)

    def test_pseudo_inverse_flag(self, tmp_path):
        data = write_gaussian_csv(tmp_path / "wide.csv", 12, 6, seed=5)
        out = tmp_path / "pinv.csv"
        assert main(["estimate", str(data), "--pseudo-inverse", "--out", str(out)]) == 0
        assert np.loadtxt(out, delimiter=",").shape == (12, 12)

    def test_target_inverse_of_spectrum(self, tmp_path):
        data = write_gaussian_csv(tmp_path / "data.csv", 10, 200, seed=6)
        spec = tmp_path / "spec.json"
        spec.write_text('[{"weight": 0.5, "eigenvalue": 1.0}, {"weight": 0.5, "eigenvalue": 4.0}]')
        assert main(["estimate", str(data), "--target", f"inverse-of:{spec}",
                     "--out", str(tmp_path / "t.csv")]) == 0

    def test_ragged_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n4,5\n")
        assert main(["estimate", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_numeric_cell_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\nx,4\n")
        assert main(["estimate", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_near_singular_band_exit_3(self, tmp_path, capsys):
        data = write_gaussian_csv(tmp_path / "band.csv", 48, 50, seed=7)
        assert main(["estimate", str(data)]) == 3
        assert "near-singular" in capsys.readouterr().err


class TestLimits:
    def test_identity_low_ratio(self, capsys):
        assert main(["limits", "--spectrum", "identity", "--ratio", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "inverse_frobenius_limit=8" in out

    def test_identity_high_ratio(self, capsys):
        assert main(["limits", "--spectrum", "identity", "--c", "2"]) == 0
        out = capsys.readouterr().out
        assert "dual_trace_limit=1" in out
        assert "dual_frobenius_limit=2" in out

    def test_threeblock_with_target(self, capsys):
        assert main(
            ["limits", "--spectrum", "threeblock", "--ratio", "0.333",
             "--target", "identity_over_p", "--p", "60"]
        ) == 0
        out = capsys.readouterr().out
        alpha = float(out.split("alpha=")[1].splitlines()[0])
        assert 0.0 < alpha < 1.0 - 0.333

    def test_ratio_one_rejected(self, capsys):
        assert main(["limits", "--spectrum", "identity", "--ratio", "1.0"]) == 2

    @pytest.mark.parametrize("ratio", ["inf", "nan"])
    def test_non_finite_ratio_exit_2(self, ratio, capsys):
        assert main(["limits", "--spectrum", "threeblock", "--ratio", ratio, "--p", "60",
                     "--target", "identity_over_p"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err

    def test_unknown_spectrum_exit_2(self, capsys):
        assert main(["limits", "--spectrum", "mystery", "--ratio", "0.5"]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_nan_weight_spectrum_file_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.yaml"
        spec.write_text("- {weight: .nan, eigenvalue: 2.0}\n")
        assert main(["limits", "--spectrum", str(spec), "--ratio", "2.0"]) == 2
        assert "atom weights must lie in [0, 1]" in capsys.readouterr().err

    def test_spectrum_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.yaml"
        spec.write_text("- {weight: 1.0, eigenvalue: 2.0}\n")
        assert main(["limits", "--spectrum", str(spec), "--ratio", "0.5"]) == 0
        assert "inverse_frobenius_limit=2" in capsys.readouterr().out
