"""CLI subcommands, config files, result CSVs, exit codes."""

import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from precshrink import CovarianceModel, generate_data, replication_rng, DistributionSpec
from precshrink import TargetMatrix, bona_fide_olse, cli, configio, sample_covariance, simulation
from precshrink.cli import main
from precshrink.configio import BUILTIN_SPECTRA, read_results
from precshrink.errors import ConfigError
from precshrink.spectral import realize_eigenvalues


def write_gaussian_csv(path, p, n, seed=0, scale=1.0, factor=1.0):
    truth = CovarianceModel.isotropic(p, scale)
    data = generate_data(truth, n, DistributionSpec("gaussian"), replication_rng(seed, p, 0))
    np.savetxt(path, factor * data.values, delimiter=",")
    return path


def config_text(**overrides):
    """YAML text of a small valid experiment config with some lines replaced."""
    fields = {
        "spectrum": "threeblock",
        "ratio": "0.25",
        "p_grid": "[20]",
        "replications": "2",
        "seed": "3",
        "estimators": "[sample_inv, olse_precision]",
        "targets": "[identity_over_p]",
        **overrides,
    }
    return "".join(f"{k}: {v}\n" for k, v in fields.items())


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

    def test_result_header(self, tmp_path):
        out = tmp_path / "results.csv"
        main(["simulate", "fig1", "--reps", "2", "--p-grid", "12", "--seed", "7",
              "--out", str(out)])
        assert out.read_text().splitlines()[0] == (
            "experiment,p,n,ratio,distribution,estimator_id,mean_loss,prial_percent,"
            "mean_alpha,mean_beta,replications,seed,status")

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

    def test_duplicate_p_values_exit_2(self, tmp_path, capsys):
        out = tmp_path / "dup.csv"
        assert main(["simulate", "fig1", "--p-grid", "20,20", "--reps", "2",
                     "--out", str(out)]) == 2
        assert "duplicate p values: [20]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("p_grid: [20.9]", "p_grid entry must be an integer, got 20.9"),
        ("p_grid: 20", "p_grid must be a list, got 20"),
        ("replications: 2.7", "replications must be an integer, got 2.7"),
        ("replications: true", "replications must be an integer, got True"),
        ("seed: 3.9", "seed must be an integer, got 3.9"),
        ("seed: false", "seed must be an integer, got False"),
        ('clamp: "no"', "clamp must be true or false, got 'no'"),
        ("center: 1", "center must be true or false, got 1"),
        ("distribution: {kind: student_t, df: 3, allow_low_df: 'yes'}",
         "allow_low_df must be true or false, got 'yes'"),
        ("estimators: sample_inv", "estimators must be a list, got 'sample_inv'"),
        ("targets: identity_over_p", "targets must be a list, got 'identity_over_p'"),
        ("ratio: true", "ratio must be a number, got True"),
        ('ratio: "0.25"', "ratio must be a number, got '0.25'"),
        ("distribution: {kind: student_t, df: '10'}", "df must be a number, got '10'"),
        ("distribution: {kind: student_t, df: true}", "df must be a number, got True"),
        ("spectrum: [{weight: true, eigenvalue: 1.0}]",
         "spectrum entry 0: weight must be a number, got True"),
        ("spectrum: [{weight: 1.0, eigenvalue: '2'}]",
         "spectrum entry 0: eigenvalue must be a number, got '2'"),
    ])
    def test_config_values_are_not_coerced(self, tmp_path, capsys, line, message):
        fields = {
            "spectrum": "threeblock",
            "ratio": "0.25",
            "p_grid": "[20]",
            "replications": "2",
            "seed": "3",
            "estimators": "[sample_inv, olse_precision]",
            "targets": "[identity_over_p]",
        }
        key, value = line.split(": ", 1)
        fields[key] = value
        config = tmp_path / "typed.yaml"
        config.write_text("".join(f"{k}: {v}\n" for k, v in fields.items()))
        out = tmp_path / "typed.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"clmap": "true"}, "unknown config fields: ['clmap']"),
        ({"clamp": "true", "centre": "true", "Seed": "4"},
         "unknown config fields: ['Seed', 'centre']"),
        ({"distribution": "{kind: student_t, df: 10, allow_low: true}"},
         "unknown distribution fields: ['allow_low']"),
        ({"targets": "[{name: mine, cov_spectrum: [{weight: 1.0, eigenvalue: 2.0}], scale: 2}]"},
         "unknown target fields: ['scale']"),
        ({"distribution": "{kind: gaussian, df: 3}"}, "invalid distribution {'kind': 'gaussian', "
         "'df': 3}: gaussian distribution takes no degrees of freedom"),
    ])
    def test_unknown_config_keys_exit_2(self, tmp_path, capsys, overrides, message):
        config = tmp_path / "keys.yaml"
        config.write_text(config_text(**overrides))
        out = tmp_path / "keys.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_yaml_booleans_accepted(self, tmp_path):
        config = tmp_path / "flags.yaml"
        config.write_text(
            """
spectrum: threeblock
ratio: 0.25
p_grid: [20]
replications: 2
seed: 3
estimators: [sample_inv, olse_precision]
clamp: yes
center: false
distribution: {kind: student_t, df: 3, allow_low_df: true}
"""
        )
        out = tmp_path / "flags.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 0
        assert [row.replications for row in read_results(str(out))] == [2, 2]

    def test_exponent_numbers_accepted(self, tmp_path):
        # YAML 1.1 alone would read these plain exponents as strings.
        config = tmp_path / "exponents.yaml"
        config.write_text(
            """
spectrum: [{weight: 1e0, eigenvalue: 2e0}]
ratio: 25e-2
p_grid: [20]
replications: 2
seed: 3
estimators: [sample_inv]
distribution: {kind: student_t, df: 1e1}
"""
        )
        out = tmp_path / "exponents.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 0
        assert [(row.n, row.distribution) for row in read_results(str(out))] == [
            (80, "student_t(df=10)")]

    def test_exponents_with_fraction_accepted(self, tmp_path, capsys):
        # YAML 1.1 alone reads a fraction with an unsigned exponent as a string.
        spec = tmp_path / "s.json"
        spec.write_text('[{"weight": 1.0, "eigenvalue": 2.5e3}]')
        assert configio.load_spectrum(str(spec)).atoms == ((1.0, 2500.0),)
        assert main(["limits", "--spectrum", str(spec), "--ratio", "0.5"]) == 0
        assert "inverse_frobenius_limit=" in capsys.readouterr().out
        spec.write_text('[{"weight": 1.0, "eigenvalue": 1.0e300}]')
        assert configio.load_spectrum(str(spec)).atoms == ((1.0, 1e300),)
        config = tmp_path / "exp.yaml"
        body = """
spectrum: [{{weight: 1.0, eigenvalue: 2.0}}]
ratio: {ratio}
p_grid: [33]
replications: 2
seed: 3
estimators: [sample_inv]
"""
        config.write_text(body.format(ratio="3.3e-1"))
        out = tmp_path / "exp.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 0
        assert [(row.ratio, row.n) for row in read_results(str(out))] == [(0.33, 100)]
        config.write_text(body.format(ratio="-4.5E-2"))
        assert main(["simulate", str(config), "--out", str(out)]) == 2
        assert "ratio must be finite and positive, got -0.045" in capsys.readouterr().err

    def test_config_target_mapping_and_true_precision(self, tmp_path):
        config = tmp_path / "exp.yaml"
        config.write_text(
            """
spectrum: threeblock
targets:
  - true_precision
  - {name: mine, cov_spectrum: [{weight: 1.0, eigenvalue: 2.0}]}
ratio: 0.25
p_grid: [12]
replications: 3
seed: 5
estimators: [sample_inv, olse_precision_oracle]
"""
        )
        out = tmp_path / "targets.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 0
        rows = {row.estimator_id: row for row in read_results(str(out))}
        assert set(rows) == {"sample_inv", "olse_precision_oracle[true_precision]",
                             "olse_precision_oracle[mine]"}
        exact = rows["olse_precision_oracle[true_precision]"]
        assert (exact.mean_alpha, exact.mean_beta, exact.mean_loss) == (0.0, 1.0, 0.0)
        assert rows["olse_precision_oracle[mine]"].mean_loss > 0.0

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_spectrum_exit_3(self, tmp_path, capsys, threads):
        config = tmp_path / "huge.yaml"
        config.write_text(
            """
spectrum: [{weight: 1.0, eigenvalue: 1.0e+160}]
ratio: 0.5
p_grid: [10]
replications: 2
seed: 1
estimators: [olse_cov_inv]
"""
        )
        out = tmp_path / "huge.csv"
        assert main(["simulate", str(config), "--threads", threads, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and "overflows" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_loss_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(simulation._ESTIMATORS, "sample_inv",
                            lambda spectra, row: (math.nan, None))
        assert main(["simulate", "fig1", "--reps", "1", "--p-grid", "10", "--seed", "1",
                     "--out", str(tmp_path / "nan.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: loss for 'sample_inv' must be finite")

    def test_allocation_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        def refuse(spec, p):
            raise MemoryError(f"Unable to allocate the spectrum at p={p}")

        monkeypatch.setattr(simulation, "build_covariance", refuse)
        out = tmp_path / "huge.csv"
        assert main(["simulate", "fig1", "--reps", "1", "--p-grid", "10000000000000",
                     "--out", str(out)]) == 3
        assert (capsys.readouterr().err
                == "numeric failure: Unable to allocate the spectrum at p=10000000000000\n")
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["10,x", ",", "1.5"])
    def test_invalid_p_grid_exit_2(self, tmp_path, capsys, grid):
        assert main(["simulate", "fig1", "--reps", "1", "--p-grid", grid,
                     "--out", str(tmp_path / "grid.csv")]) == 2
        assert "invalid --p-grid" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_huge_p_grid_exit_2(self, tmp_path, capsys, sign):
        assert main(["simulate", "fig1", "--reps", "1", "--p-grid", sign + HUGE_INT,
                     "--out", str(tmp_path / "grid.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: p={sign}{HUGE_INT} with ratio=")
        assert err.endswith("gives n beyond the float range\n")
        assert not (tmp_path / "grid.csv").exists()

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
        assert skipped[0].status == "skipped: bona fide estimator is undefined for p >= n"
        # The CSV holds the report rows themselves, NaN fields included.
        reports = simulation.run_experiment(configio.load_experiment_config(str(config)))
        reported = [row for report in reports for row in report.summaries]
        np.testing.assert_equal([dataclasses.astuple(row) for row in rows],
                                [dataclasses.astuple(row) for row in reported])

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


HUGE_INT = "9" * 400  # an int that no float can hold


class TestRejectedInput:
    """Malformed configs, spectrum files and data files exit 2 with a message."""

    @pytest.mark.parametrize("command, text, message", [
        pytest.param("simulate", config_text(ratio=HUGE_INT),
                     "ratio must be a number within the float range", id="huge-ratio"),
        pytest.param("simulate", config_text(distribution=f"{{kind: student_t, df: {HUGE_INT}}}"),
                     "df must be a number within the float range", id="huge-df"),
        pytest.param("simulate", config_text(spectrum=f"[{{weight: 1.0, eigenvalue: {HUGE_INT}}}]"),
                     "spectrum entry 0: eigenvalue must be a number within the float range",
                     id="huge-config-eigenvalue"),
        pytest.param("limits", f"- {{weight: 1.0, eigenvalue: {HUGE_INT}}}\n",
                     "spectrum entry 0: eigenvalue must be a number within the float range",
                     id="huge-spectrum-file-eigenvalue"),
        pytest.param("simulate", config_text(p_grid=f"[{HUGE_INT}]"),
                     f"invalid experiment config: p={HUGE_INT} with ratio=0.25 gives n beyond "
                     "the float range", id="huge-p"),
        ("simulate", config_text(p_grid="[]"), "p_grid must not be empty"),
        ("simulate", config_text(targets="[bogus]"), "unknown target 'bogus'"),
        ("simulate", config_text(targets="[{name: mine}]"),
         "target mapping is missing keys: ['cov_spectrum']"),
        ("simulate", config_text(distribution="student_t"),
         "student_t requires degrees_of_freedom"),
        ("simulate", config_text(distribution="{kind: cauchy}"),
         "unknown distribution kind 'cauchy'"),
        ("simulate", "spectrum: threeblock\nratio: [0.25\np_grid: [20]\n",
         "invalid YAML at line 3, column 7"),
        ("simulate", "- spectrum: threeblock\n", "experiment config must be a mapping"),
        ("limits", "- {weight: 1.0, eigenvalue: [\n", "invalid YAML/JSON"),
        ("estimate", "", "empty matrix file"),
        ("estimate", None, "cannot read matrix"),
    ])
    def test_exit_2_with_message(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "input.txt"
        if text is not None:
            path.write_text(text)
        argv = {
            "simulate": ["simulate", str(path), "--out", str(tmp_path / "out.csv")],
            "limits": ["limits", "--spectrum", str(path), "--ratio", "0.5"],
            "estimate": ["estimate", str(path), "--out", str(tmp_path / "out.csv")],
        }[command]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("field, text, value", [
        ("spectrum", "5", 5),
        ("spectrum", "null", None),
        ("spectrum", "true", True),
        ("spectrum", "{weight: 1.0, eigenvalue: 1.0}", {"weight": 1.0, "eigenvalue": 1.0}),
        ("targets", "[{name: mine, cov_spectrum: null}]", None),
        ("targets", "[{name: mine, cov_spectrum: 5}]", 5),
    ])
    def test_spectrum_that_is_no_string_or_list_exit_2(self, tmp_path, capsys, monkeypatch,
                                                       field, text, value):
        # Valid spectrum files named like the value must not be read in its place.
        monkeypatch.chdir(tmp_path)
        for name in ("5", "None", "True"):
            (tmp_path / name).write_text(yaml.safe_dump(PRIOR2_ATOMS))
        (tmp_path / "config.yaml").write_text(config_text(**{field: text}))
        assert main(["simulate", "config.yaml", "--out", "out.csv"]) == 2
        assert capsys.readouterr().err == (
            "error: spectrum must be a builtin name, a file name or a list of "
            f"{{weight, eigenvalue}} pairs, got {value!r}\n")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    @pytest.mark.parametrize("where, reason", [("missing/x.csv", "No such file or directory"),
                                               (".", "Is a directory")],
                             ids=["missing-folder", "folder"])
    def test_unwritable_out_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch, command,
                                                   where, reason):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(simulation, "run_grid_point", refuse)
        monkeypatch.setattr("precshrink.cli.sample_covariance", refuse)
        out = str(tmp_path / where)
        argv = {"simulate": ["simulate", "fig1", "--reps", "2", "--p-grid", "6"],
                "estimate": ["estimate", str(write_gaussian_csv(tmp_path / "a.csv", 6, 20))],
                }[command]
        assert main([*argv, "--out", out]) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {out!r}: {reason}\n")

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_failing_write_exit_2(self, tmp_path, capsys, monkeypatch, command):
        real_open = open

        def full_disk(path, mode="r", *args, **kwargs):
            if "w" in mode:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_open(path, mode, *args, **kwargs)

        data = str(write_gaussian_csv(tmp_path / "a.csv", 6, 20))
        monkeypatch.setattr("builtins.open", full_disk)
        out = str(tmp_path / "x.csv")
        argv = {"simulate": ["simulate", "fig1", "--reps", "2", "--p-grid", "6"],
                "estimate": ["estimate", data]}[command]
        assert main([*argv, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out!r}: No space left on device\n"

    def test_result_file_with_wrong_header(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("experiment,p,n\nfig1,10,30\n")
        with pytest.raises(ConfigError, match="unexpected result header"):
            read_results(str(path))


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
        path.write_text("1,1,1,1\n1,1,1,1\n1,1,1,1\n")
        assert main(["estimate", str(path)]) == 3
        assert "singular" in capsys.readouterr().err.lower()
        # Square, the same file is out of the bona fide domain before its rank matters.
        path.write_text("1,1,1\n1,1,1\n1,1,1\n")
        assert main(["estimate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: p >= n: no feasible shrinkage")

    @pytest.mark.parametrize("p, n, advice", [
        (12, 6, "pass --identity-case (isotropic population) or --pseudo-inverse (raw)"),
        (10, 10, "pass --pseudo-inverse (raw)"),
        (40, 5, "pass --identity-case (isotropic population) or --pseudo-inverse (raw)"),
        (6, 6, "pass --pseudo-inverse (raw)")], ids=["wide", "square", "wide-40x5", "square-6x6"])
    def test_wide_matrix_requires_mode_flag(self, tmp_path, capsys, monkeypatch, p, n, advice):
        # Refused from p and n alone, centered or not, before any linear algebra.
        def refuse(*args, **kwargs):
            raise AssertionError("sample_covariance called")

        data = write_gaussian_csv(tmp_path / "wide.csv", p, n, seed=3)
        monkeypatch.setattr("precshrink.cli.sample_covariance", refuse)
        monkeypatch.setattr("precshrink.linalg.sample_covariance", refuse)
        out = tmp_path / "out.csv"
        for center in ([], ["--center"]):
            assert main(["estimate", str(data), *center, "--out", str(out)]) == 2
            assert capsys.readouterr() == ("", "error: p >= n: no feasible shrinkage estimator "
                                               f"exists for a general covariance; {advice}\n")
            assert not out.exists()

    def test_identity_case_needs_data_rank_n(self, tmp_path, capsys):
        data = write_gaussian_csv(tmp_path / "wide.csv", 40, 5, seed=40)
        out = tmp_path / "iso.csv"
        assert main(["estimate", str(data), "--identity-case", "--center", "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", "numeric failure: isotropic precision estimate needs "
                                           "data rank n: data rank 4 < n = 5\n")
        assert not out.exists()

    def test_identity_case_needs_more_variables(self, tmp_path, capsys):
        data = write_gaussian_csv(tmp_path / "square.csv", 10, 10, seed=6)
        out = tmp_path / "iso.csv"
        assert main(["estimate", str(data), "--identity-case", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --identity-case does not apply at p = 10, n = 10: "
            "isotropic precision estimate needs p > n\n")
        assert not out.exists()

    # Exit codes without a flag, with --identity-case and with --pseudo-inverse. At a data
    # magnitude of 1e-158 the sample covariance is subnormal and has no finite inverse.
    @pytest.mark.parametrize("p, n, factor, codes", [
        (6, 20, 1.0, (0, 2, 2)), (10, 10, 1.0, (2, 2, 0)), (12, 6, 1.0, (2, 0, 0)),
        (48, 50, 1.0, (3, 2, 2)), (40, 5, 1e-158, (2, 3, 3)), (5, 40, 1e-158, (3, 2, 2))],
        ids=["tall", "square", "wide", "band", "tiny-wide", "tiny-tall"])
    @pytest.mark.parametrize("column, flag", enumerate([None, "--identity-case",
                                                        "--pseudo-inverse"]),
                             ids=["no-flag", "identity-case", "pseudo-inverse"])
    def test_exit_code_matrix(self, tmp_path, capsys, p, n, factor, codes, column, flag):
        data = write_gaussian_csv(tmp_path / "data.csv", p, n, seed=p, factor=factor)
        out = tmp_path / "out.csv"
        code = codes[column]
        assert main(["estimate", str(data), *([flag] if flag else []), "--out", str(out)]) == code
        assert out.exists() == (code == 0)
        err = capsys.readouterr().err
        if flag and code == 2:
            assert err.startswith(f"error: {flag} does not apply at p = {p}, ")
        if factor != 1.0 and code == 3:
            assert re.fullmatch(r"numeric failure: sample covariance is too small to invert: "
                                r"kept eigenvalue \S+, largest data magnitude \S+\n", err)

    @pytest.mark.parametrize("flag", ["--identity-case", "--pseudo-inverse"])
    @pytest.mark.parametrize("extra", [["--target", "mystery"], ["--target", "true_precision"],
                                       ["--target", "identity_over_p"], ["--clamp"]])
    def test_mode_flags_take_no_target_or_clamp(self, tmp_path, capsys, flag, extra):
        # Both flags apply to this 12 x 6 file, where they would write a file.
        data = write_gaussian_csv(tmp_path / "data.csv", 12, 6, seed=12)
        out = tmp_path / "out.csv"
        assert main(["estimate", str(data), flag, *extra, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {flag} takes no --target or --clamp\n")
        assert not out.exists()

    def test_true_precision_target_exit_2(self, tmp_path, capsys):
        data = write_gaussian_csv(tmp_path / "data.csv", 10, 200, seed=1)
        out = tmp_path / "t.csv"
        assert main(["estimate", str(data), "--target", "true_precision", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: target 'true_precision' needs the true "
                                           "covariance, which estimate does not have\n")
        assert not out.exists()

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

    def test_conflicting_pseudo_flags_exit_2(self, tmp_path, capsys):
        data = write_gaussian_csv(tmp_path / "wide.csv", 12, 6, seed=5)
        out = tmp_path / "both.csv"
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(data), "--identity-case", "--pseudo-inverse",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_target_inverse_of_spectrum(self, tmp_path):
        data = write_gaussian_csv(tmp_path / "data.csv", 10, 200, seed=6)
        spec = tmp_path / "spec.json"
        spec.write_text('[{"weight": 0.5, "eigenvalue": 1.0}, {"weight": 0.5, "eigenvalue": 4.0}]')
        assert main(["estimate", str(data), "--target", f"inverse-of:{spec}",
                     "--out", str(tmp_path / "t.csv")]) == 0

    def test_target_spectrum_is_the_precision_target(self, tmp_path, capsys):
        data = write_gaussian_csv(tmp_path / "data.csv", 10, 200, seed=6)
        spec = tmp_path / "spec.json"
        spec.write_text('[{"weight": 0.5, "eigenvalue": 1.0}, {"weight": 0.5, "eigenvalue": 4.0}]')
        out = tmp_path / "t.csv"
        assert main(["estimate", str(data), "--target", str(spec), "--out", str(out)]) == 0
        assert f"target={spec} " in capsys.readouterr().out
        expected = bona_fide_olse(sample_covariance(np.loadtxt(data, delimiter=",")),
                                  TargetMatrix.from_spectrum(configio.load_spectrum(str(spec)), 10))
        np.testing.assert_array_equal(np.loadtxt(out, delimiter=","), expected.matrix)

    def test_overflowing_data_exit_3(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        np.savetxt(path, 1e160 * np.random.default_rng(4).uniform(1.0, 2.0, size=(5, 20)),
                   delimiter=",")
        out = tmp_path / "huge.precision.csv"
        assert main(["estimate", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: sample covariance overflows")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_eigensolver_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        # numpy's LinAlgError subclasses ValueError, which would read as exit 2.
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        data = write_gaussian_csv(tmp_path / "data.csv", 10, 200, seed=1)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert main(["estimate", str(data), "--out", str(tmp_path / "e.csv")]) == 3
        assert capsys.readouterr().err == "numeric failure: Eigenvalues did not converge\n"

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

    def test_non_utf8_file_names_the_path(self, tmp_path, capsys):
        path = tmp_path / "utf16.csv"
        path.write_bytes("1,2\n3,4\n".encode("utf-16"))
        assert main(["estimate", str(path)]) == 2
        assert f"cannot read matrix {str(path)!r}: 'utf-8' codec" in capsys.readouterr().err

    def test_cells_parse_as_python_float(self, tmp_path):
        spellings = ["1_000", "١", " 1 ", "nan", "-Infinity", "1e400"]
        path = tmp_path / "spellings.csv"
        path.write_text(",".join(spellings) + "\n")
        loaded = configio.load_matrix(str(path))
        expected = np.array([[float(cell) for cell in spellings]])
        assert loaded.tobytes() == expected.tobytes()
        path.write_text("1,2\n3,x\n")
        with pytest.raises(ConfigError, match=re.escape(
                "line 2: non-numeric cell (could not convert string to float: 'x')")):
            configio.load_matrix(str(path))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Spreadsheet "CSV UTF-8" exports start with a byte-order mark.
        plain = write_gaussian_csv(tmp_path / "plain.csv", 10, 200, seed=8)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for path in (plain, marked):
            assert main(["estimate", str(path)]) == 0
        assert ((tmp_path / "marked.precision.csv").read_bytes()
                == (tmp_path / "plain.precision.csv").read_bytes())

    def test_rank_deficient_wide_data(self, tmp_path, capsys):
        # 8 variables, 5 observations of which the last repeats the first: rank 4.
        values = np.random.default_rng(9).standard_normal((8, 5))
        values[:, 4] = values[:, 0]
        path = tmp_path / "deficient.csv"
        np.savetxt(path, values, delimiter=",")
        assert main(["estimate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: p >= n: no feasible shrinkage")
        assert main(["estimate", str(path), "--identity-case"]) == 3
        assert "data rank 4 < n = 5" in capsys.readouterr().err
        assert main(["estimate", str(path), "--pseudo-inverse"]) == 0
        assert np.loadtxt(tmp_path / "deficient.precision.csv", delimiter=",").shape == (8, 8)

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

    @pytest.mark.parametrize("value", ["1e-310", "1e-160"])
    @pytest.mark.parametrize("ratio", ["0.5", "1.5"])
    def test_tiny_eigenvalue_exit_2(self, tmp_path, capsys, value, ratio):
        spec = tmp_path / "tiny.yaml"
        spec.write_text(f"- {{weight: 0.5, eigenvalue: {value}}}\n"
                        "- {weight: 0.5, eigenvalue: 1.0}\n")
        for argv in (["--spectrum", str(spec)],
                     ["--spectrum", "identity", "--target", f"inverse-of:{spec}"]):
            assert main(["limits", "--ratio", ratio, *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"eigenvalue {value}" in err

    def test_huge_ratio_is_numeric_failure(self, capsys):
        assert main(["limits", "--spectrum", "threeblock", "--ratio", "1e300", "--p", "10"]) == 3
        assert capsys.readouterr().err.startswith("numeric failure: ")

    @pytest.mark.parametrize("message, printed", [
        ("Unable to allocate 72.8 TiB", "Unable to allocate 72.8 TiB"), ("", "out of memory")],
        ids=["numpy", "bare"])
    def test_allocation_failure_exit_3(self, monkeypatch, capsys, message, printed):
        def refuse(spec, p):
            raise MemoryError(message)

        monkeypatch.setattr("precshrink.cli.build_covariance", refuse)
        assert main(["limits", "--spectrum", "identity", "--ratio", "0.5",
                     "--p", "10000000000000"]) == 3
        assert capsys.readouterr().err == f"numeric failure: {printed}\n"

    def test_ratio_just_above_one(self, capsys):
        assert main(["limits", "--spectrum", "threeblock", "--ratio", "1.0000001",
                     "--p", "10"]) == 0
        assert "dual_trace_limit=" in capsys.readouterr().out

    def test_diagonal_target_needs_no_eigensolve(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert main(["limits", "--spectrum", "threeblock", "--ratio", "1.5", "--p", "300",
                     "--target", "inverse-of:prior2"]) == 0
        assert "target_dual_trace_limit=" in capsys.readouterr().out

    @pytest.mark.parametrize("ratio", ["0.5", "1.5"])
    @pytest.mark.parametrize("p", ["300", "1000"])
    def test_true_precision_weights_are_exactly_zero_and_one(self, capsys, ratio, p):
        assert main(["limits", "--spectrum", "threeblock", "--ratio", ratio, "--p", p,
                     "--target", "true_precision"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["alpha=0", "beta=1"]

    def test_builtin_targets_form_no_dense_array(self, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("dense p x p array built")

        monkeypatch.setattr(CovarianceModel, "precision", property(refuse))
        monkeypatch.setattr(TargetMatrix, "matrix", property(refuse))
        for ratio in ("0.5", "1.5"):
            for target in ("identity_over_p", "inverse-of:prior2", "prior2", "true_precision"):
                assert main(["limits", "--spectrum", "threeblock", "--ratio", ratio,
                             "--p", "300", "--target", target]) == 0
                assert "beta=" in capsys.readouterr().out

    def test_spectrum_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.yaml"
        spec.write_text("- {weight: 1.0, eigenvalue: 2.0}\n")
        assert main(["limits", "--spectrum", str(spec), "--ratio", "0.5"]) == 0
        assert "inverse_frobenius_limit=2" in capsys.readouterr().out

    @pytest.mark.parametrize("ratio, keys", [
        ("0.5", ["ratio", "inverse_frobenius_limit", "alpha", "beta"]),
        ("1.5", ["ratio", "dual_trace_limit", "dual_frobenius_limit", "pinv_trace_limit",
                 "pinv_frobenius_limit", "target_dual_trace_limit", "alpha", "beta"]),
    ])
    def test_output_keys_and_root_lines(self, capsys, ratio, keys):
        # perfbench/workloads.py::parse_limits reads these lines.
        assert main(["limits", "--spectrum", "threeblock", "--ratio", ratio, "--p", "60",
                     "--target", "inverse-of:prior2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("=", 1)[0] for line in lines] == keys
        roots = [line for line in lines if line.split("=", 1)[0].endswith("dual_trace_limit")]
        assert len(roots) == (2 if ratio == "1.5" else 0)
        root_line = r"\w+=\S+ \(residual=\d\.\d{3}e[-+]\d+, iterations=[1-9]\d*\)"
        assert all(re.fullmatch(root_line, line) for line in roots)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        spectrum=st.sampled_from(sorted(BUILTIN_SPECTRA)),
        target=st.sampled_from([None, "identity_over_p", "true_precision",
                                "inverse-of:prior2", "prior2"]),
        p=st.integers(1, 2000),
        ratio=st.one_of(st.floats(1e-6, 1.0 - 1e-6), st.floats(1.0 + 1e-6, 1e12),
                        st.sampled_from(["nan", "inf", "0", "-1", "1"])),
    )
    def test_fuzz_exit_codes(self, spectrum, target, p, ratio):
        # Every float drawn lies in the ratio's domain; every string lies outside it.
        argv = ["limits", "--spectrum", spectrum, "--ratio", str(ratio), "--p", str(p)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + (["--target", target] if target else []))
        if isinstance(ratio, str):
            assert (code, out.getvalue()) == (2, "")
            assert err.getvalue().startswith("error: ratio must be finite")
        else:
            assert (code, err.getvalue()) == (0, "")
            assert float(out.getvalue().split()[0].removeprefix("ratio=")) == ratio

    @pytest.mark.parametrize("target, code", [(None, 0), ("identity_over_p", 3)])
    def test_eigenvalue_with_overflowing_square(self, tmp_path, capsys, target, code):
        # 1 / 1e300^2 lies below the smallest normal double: the moment is 0, with no warning.
        spec = tmp_path / "s.json"
        spec.write_text('[{"weight": 1.0, "eigenvalue": 1.0e300}]')
        argv = ["limits", "--spectrum", str(spec), "--ratio", "0.5"]
        assert main(argv + (["--target", target] if target else [])) == code
        captured = capsys.readouterr()
        if target:
            assert captured.err.startswith("numeric failure: ")
        else:
            assert "inverse_frobenius_limit=0\n" in captured.out


IMPORT_PROBE = r"""
import json, sys

import numpy as np

import precshrink

loaded = {"import": "scipy.linalg" in sys.modules}
from precshrink import cli, simulation

assert cli.main(["limits", "--spectrum", "threeblock", "--ratio", "1.5", "--p", "300",
                 "--target", "identity_over_p"]) == 0
np.savetxt(sys.argv[1], np.random.default_rng(0).standard_normal((20, 60)), delimiter=",")
assert cli.main(["estimate", sys.argv[1], "--target", "inverse-of:prior2",
                 "--out", sys.argv[2]]) == 0
loaded["limits_and_estimate"] = "scipy.linalg" in sys.modules
config = simulation.with_overrides(simulation.builtin_experiments()["fig1"], replications=2)
simulation.run_grid_point(config, 12)
loaded["grid_point"] = "scipy.linalg" in sys.modules
print(json.dumps(loaded))
"""


class TestColdStart:
    def test_scipy_linalg_loads_only_for_the_covariance_inverse(self, tmp_path, child_env):
        # A fresh process, since this one has imported scipy.linalg long ago.
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(tmp_path / "data.csv"),
             str(tmp_path / "precision.csv")],
            env=child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        loaded = json.loads(done.stdout.strip().splitlines()[-1])
        # fig1's olse_cov_inv[prior2] row inverts a dense matrix through LAPACK.
        assert loaded == {"import": False, "limits_and_estimate": False, "grid_point": True}


def _realized(name, p):
    return realize_eigenvalues(BUILTIN_SPECTRA[name], p)


GRAMMAR_P = 10
IDENTITY = np.full(GRAMMAR_P, 1.0 / GRAMMAR_P)
INVERSE_TRUTH = 1.0 / _realized("threeblock", GRAMMAR_P)  # config and limits use threeblock
PRIOR2_PRECISION = _realized("prior2", GRAMMAR_P)
PRIOR2_INVERSE = 1.0 / PRIOR2_PRECISION
PRIOR2_ATOMS = [{"weight": w, "eigenvalue": v} for w, v in BUILTIN_SPECTRA["prior2"].atoms]
NO_TRUTH = "target 'true_precision' needs the true covariance, which estimate does not have"

# spelling -> (precision-target diagonal in a config file, in estimate, in limits);
# None: the place has no such spelling. "{file}" is a spectrum file holding prior2.
TARGET_GRAMMAR = {
    "identity_over_p": (IDENTITY, IDENTITY, IDENTITY),
    "true_precision": (INVERSE_TRUTH, NO_TRUTH, INVERSE_TRUTH),
    "inverse-of:prior2": (PRIOR2_INVERSE, PRIOR2_INVERSE, PRIOR2_INVERSE),
    "prior2": (PRIOR2_INVERSE, PRIOR2_PRECISION, PRIOR2_PRECISION),
    "{file}": (PRIOR2_INVERSE, PRIOR2_PRECISION, PRIOR2_PRECISION),
    "inverse-of:{file}": (PRIOR2_INVERSE, PRIOR2_INVERSE, PRIOR2_INVERSE),
    "{name: mine, cov_spectrum: prior2}": (PRIOR2_INVERSE, None, None),
    "{name: mine, cov_spectrum: {file}}": (PRIOR2_INVERSE, None, None),
    "{name: mine, cov_spectrum: [inline]}": (PRIOR2_INVERSE, None, None),
}
MAPPINGS = {
    "{name: mine, cov_spectrum: prior2}": {"name": "mine", "cov_spectrum": "prior2"},
    "{name: mine, cov_spectrum: {file}}": {"name": "mine", "cov_spectrum": "{file}"},
    "{name: mine, cov_spectrum: [inline]}": {"name": "mine", "cov_spectrum": PRIOR2_ATOMS},
}
PLACES = ("config", "estimate", "limits")


def _with_file(entry, path):
    if isinstance(entry, dict):
        return {key: _with_file(value, path) for key, value in entry.items()}
    return entry.replace("{file}", str(path)) if isinstance(entry, str) else entry


def _run_target(place, entry, tmp_path):
    """Run ``entry`` as the one target of a config file, of estimate or of
    limits, all at p = GRAMMAR_P; return the exit code and the precision
    target the run resolved (None when it resolved none)."""
    seen = []
    if place == "config":
        config = tmp_path / "grammar.yaml"
        config.write_text(yaml.safe_dump({
            "spectrum": "threeblock", "ratio": 0.25, "p_grid": [GRAMMAR_P], "replications": 1,
            "seed": 1, "estimators": ["sample_inv", "olse_precision"], "targets": [entry]}))
        plan = simulation._plan_estimators

        def record(*args):
            rows = plan(*args)
            seen.extend(row.precision_target for row in rows if row.precision_target)
            return rows

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulation, "_plan_estimators", record)
            code = main(["simulate", str(config), "--out", str(tmp_path / "out.csv")])
        return code, seen[0] if seen else None
    if place == "estimate":
        data = write_gaussian_csv(tmp_path / "data.csv", GRAMMAR_P, 4 * GRAMMAR_P, seed=2)
        argv = ["estimate", str(data), f"--target={entry}", "--out", str(tmp_path / "out.csv")]
        name = "bona_fide_olse"  # called as (stats, target, clamp=...)
    else:
        argv = ["limits", "--spectrum", "threeblock", "--ratio", "0.5", "--p", str(GRAMMAR_P),
                f"--target={entry}"]
        name = "compute_limit_functionals"  # called with target=...
    real = getattr(cli, name)

    def record(*args, **kwargs):
        seen.append(kwargs["target"] if "target" in kwargs else args[1])
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, name, record)
        code = main(argv)
    return code, seen[0] if seen else None


class TestTargetGrammar:
    """One parser and one resolver read every target, wherever it is given."""

    @pytest.mark.parametrize("spelling, column, place", [
        (spelling, column, place) for spelling, expected in TARGET_GRAMMAR.items()
        for column, place in enumerate(PLACES) if expected[column] is not None])
    def test_spelling_resolves_to_its_precision_target(self, tmp_path, capsys, spelling,
                                                       column, place):
        spec = tmp_path / "prior2.yaml"
        spec.write_text(yaml.safe_dump(PRIOR2_ATOMS))
        entry = _with_file(MAPPINGS.get(spelling, spelling), spec)
        expected = TARGET_GRAMMAR[spelling][column]
        code, target = _run_target(place, entry, tmp_path)
        if isinstance(expected, str):
            assert (code, capsys.readouterr()) == (2, ("", f"error: {expected}\n"))
            assert not (tmp_path / "out.csv").exists()
        else:
            assert code == 0
            np.testing.assert_array_equal(target.diagonal, expected)

    def test_bare_and_inverse_of_prior_give_equal_rows(self, tmp_path):
        config = tmp_path / "priors.yaml"
        config.write_text(config_text(
            estimators="[sample_inv, olse_precision, olse_precision_oracle, olse_cov_inv]",
            targets='[prior2, "inverse-of:prior2", {name: mine, cov_spectrum: prior2}]'))
        out = tmp_path / "priors.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == 0
        rows = {row.estimator_id: row for row in read_results(str(out))}
        for kind in ("olse_precision", "olse_precision_oracle", "olse_cov_inv"):
            same = [(row.mean_loss, row.mean_alpha, row.mean_beta) for name, row in rows.items()
                    if name.startswith(f"{kind}[")]
            assert len(same) == 3 and len(set(same)) == 1, kind

    @pytest.mark.parametrize("name", ["identity_over_p", "true_precision", "prior1", "prior2",
                                      "threeblock", "identity", "inverse-of:prior2",
                                      "inverse-of:bogus", "", None, 7, ["mine"]])
    def test_mapping_name_that_is_a_spelling_or_no_string_exit_2(self, tmp_path, capsys, name):
        # A row id names its target, so a mapping may not borrow another target's spelling.
        entry = {"cov_spectrum": "prior2", "name": name}  # the key order YAML reads back
        code, target = _run_target("config", entry, tmp_path)
        out, err = capsys.readouterr()
        assert (code, target, out) == (2, None, "")
        assert err == (f"error: target mapping {entry!r}: name must be a non-empty string that "
                       "is not itself a target spelling (identity_over_p, true_precision, a "
                       "builtin spectrum or inverse-of:<spectrum>)\n")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("text", ["", "bogus", "inverse-of:", "inverse-of:inverse-of:prior2",
                                      "inverse-of:identity_over_p", " prior2"])
    @pytest.mark.parametrize("place", PLACES)
    def test_unknown_target_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch, place,
                                                   text):
        def refuse(*args):
            raise AssertionError("work done before the target was read")

        monkeypatch.setattr(configio, "load_matrix", refuse)
        monkeypatch.setattr(cli, "build_covariance", refuse)
        monkeypatch.setattr(simulation, "build_covariance", refuse)
        code, target = _run_target(place, text, tmp_path)
        out, err = capsys.readouterr()
        assert (code, target, out) == (2, None, "")
        assert err.startswith(f"error: unknown target {text!r}: expected identity_over_p, ")
        assert not (tmp_path / "out.csv").exists()


_WORDS = st.sampled_from(["", "identity_over_p", "true_precision", "prior2", "threeblock",
                          "bogus", "inverse-of:", "inverse-of:prior2"])
_STRINGS = st.one_of(_WORDS, st.text(max_size=12), st.builds(
    lambda depth, tail: "inverse-of:" * depth + tail, st.integers(0, 3),
    st.one_of(_WORDS, st.text(max_size=8))))
_MAPPINGS = st.dictionaries(
    st.sampled_from(["name", "cov_spectrum", "scale"]),
    st.one_of(st.none(), st.integers(), _WORDS, st.lists(st.dictionaries(
        st.sampled_from(["weight", "eigenvalue"]), st.floats(0.0, 2.0)), max_size=2)),
    max_size=3)
TARGET_ENTRIES = st.one_of(_STRINGS, st.none(), st.booleans(), st.integers(),
                           st.floats(allow_nan=True), st.lists(_WORDS, max_size=2), _MAPPINGS)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestTargetFuzz:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(entry=TARGET_ENTRIES)
    def test_any_target_entry_exits_cleanly(self, fuzz_dir, entry):
        places = PLACES if isinstance(entry, str) else ("config",)
        for place in places:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code, _ = _run_target(place, entry, fuzz_dir)
            assert code in (0, 2, 3), (place, entry)


class TestEstimateFuzz:
    """Bad data for estimate: any magnitude, constant rows, both sides of p = n."""

    @pytest.mark.filterwarnings("ignore:all eigenvalues below rank tolerance:RuntimeWarning")
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(p=st.integers(1, 60), n=st.integers(2, 60), exponent=st.floats(-170.0, 160.0),
           constant_rows=st.integers(0, 60), seed=st.integers(0, 2**16), center=st.booleans(),
           rows=st.sampled_from(["variables", "observations"]),
           mode=st.sampled_from([[], ["--identity-case"], ["--pseudo-inverse"]]))
    @example(p=40, n=5, exponent=-158.0, constant_rows=0, seed=0, center=False, rows="variables",
             mode=["--pseudo-inverse"])
    def test_any_data_exits_cleanly(self, fuzz_dir, p, n, exponent, constant_rows, seed, center,
                                    rows, mode):
        values = 10.0**exponent * np.random.default_rng(seed).standard_normal((p, n))
        values[:constant_rows] = 10.0**exponent
        data, out = fuzz_dir / "data.csv", fuzz_dir / "out.csv"
        np.savetxt(data, values if rows == "variables" else values.T, delimiter=",")
        out.unlink(missing_ok=True)
        argv = ["estimate", str(data), *mode, *(["--center"] if center else []), "--rows", rows,
                "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3)
        if code == 0:
            assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", ndmin=2)))
        else:
            assert not out.exists()
