"""tools/pairs.py on stub trees whose run.py prints fixed results; no benchmark runs."""

import importlib.util
import json
import os
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

# Prints what perfbench/run.py prints, with setup_s = 0.1 * seed, logs the
# call as "<tree> <seed>" to calls.log next to the trees, and its bytecode
# settings as "<tree> <pycache prefix> <dont_write_bytecode>" to bytecode.log.
STUB = """
import json, os, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
tree = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(os.path.dirname(tree), "calls.log"), "a") as log:
    log.write(f"{os.path.basename(tree)} {seed}\\n")
with open(os.path.join(os.path.dirname(tree), "bytecode.log"), "a") as log:
    log.write(f"{os.path.basename(tree)} {sys.pycache_prefix} {sys.dont_write_bytecode}\\n")
print("precshrink benchmark: stub")
print("meta: " + json.dumps({"commit": None, "source_sha256": "stub", "nproc": 2,
                             "blas_threads": {"libstub.so": 2}, "blas_env": {}}))
for name, value in dict(VALUES, setup_s=0.1 * seed).items():
    print(f"  {name:48s} {value:14.6g} unit")
print(json.dumps({"correct": FAILED == 0, "attempted": 10, "failed": FAILED, "metrics": {}}))
"""
PARENT = {"wall_s": 0.4, "cpu_s": 0.5, "ops_per_s": 50.0, "peak_rss_mb": 100.0, "estimate_s": 0.3}
CHANGE = {"wall_s": 0.2, "cpu_s": 0.5, "ops_per_s": 100.0, "peak_rss_mb": 120.0, "estimate_s": 0.1}


def stub_tree(path: Path, values: dict, failed: int = 0) -> str:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(f"VALUES = {values!r}\nFAILED = {failed}\n" + STUB)
    return str(path)


@pytest.fixture
def trees(tmp_path, monkeypatch):
    monkeypatch.setattr(pairs, "ROOT", str(tmp_path))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return stub_tree(tmp_path / "parent", PARENT), stub_tree(tmp_path / "change", CHANGE)


def table(out: str) -> dict:
    """Metric -> (parent, change, ratio, won, q1, q3, verdict) from the printed table."""
    rows = {}
    for line in out.splitlines():
        parts = line.replace("[", " ").replace("]", " ").replace(",", " ").split()
        if parts and parts[0] in ("setup_s", "wall_s", "cpu_s", "ops_per_s", "peak_rss_mb"):
            rows[parts[0]] = (*map(float, parts[1:4]), parts[4], *map(float, parts[5:7]),
                              " ".join(parts[7:]))
    return rows


def test_pairs_alternate_and_compare(trees, tmp_path, capsys):
    parent, change = trees
    assert pairs.main([parent, change, "--workload", "analysis", "--pairs", "3", "--seconds", "1",
                       "--record"]) == 0
    assert (tmp_path / "calls.log").read_text().split("\n") == [
        "parent 1", "change 1", "change 2", "parent 2", "parent 3", "change 3", ""]
    assert table(capsys.readouterr().out) == {
        # The parent's quartiles [0.15, 0.25] spread wider than the 0.25 bound of 0.2.
        "setup_s": (0.2, 0.2, 1.0, "0/3", 0.15, 0.25, "unresolved"),
        "wall_s": (0.4, 0.2, 0.5, "3/3", 0.4, 0.4, "better"),
        "cpu_s": (0.5, 0.5, 1.0, "0/3", 0.5, 0.5, "within bound"),
        "ops_per_s": (50.0, 100.0, 2.0, "3/3", 50.0, 50.0, "better"),
        "peak_rss_mb": (100.0, 120.0, 1.2, "0/3", 100.0, 100.0, "worse"),
    }
    entries = json.loads((tmp_path / "BENCH_analysis.json").read_text())
    assert [(e["pair"], e["side"], e["seed"]) for e in entries] == [
        (0, "parent", 1), (0, "change", 1), (1, "change", 2), (1, "parent", 2),
        (2, "parent", 3), (2, "change", 3)]
    assert entries[1]["end_to_end"] == {"setup_s": 0.1, "wall_s": 0.2, "cpu_s": 0.5,
                                        "ops_per_s": 100.0, "peak_rss_mb": 120.0}
    assert entries[1]["extras"] == {"estimate_s": 0.1}
    assert {(e["trace"], e["seconds"], e["nproc"], e["gate_passed"]) for e in entries} == {
        (0, 1.0, 2, True)}

    # Without --record nothing is appended.
    assert pairs.main([parent, change, "--workload", "analysis", "--pairs", "1",
                       "--seconds", "1"]) == 0
    assert len(json.loads((tmp_path / "BENCH_analysis.json").read_text())) == 6


def test_each_side_caches_bytecode_apart(trees, tmp_path, monkeypatch):
    parent, change = trees
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert pairs.main([parent, change, "--workload", "mc_lt1", "--pairs", "2",
                       "--seconds", "1"]) == 0
    logged = [line.split(" ") for line in (tmp_path / "bytecode.log").read_text().splitlines()]
    # Each side's runs share one prefix of their own, and every run writes bytecode.
    (parent_prefix,), (change_prefix,) = (
        {prefix for tree, prefix, _ in logged if tree == side} for side in ("parent", "change"))
    assert parent_prefix != change_prefix
    assert {dont_write for *_, dont_write in logged} == {"False"}
    for prefix in (parent_prefix, change_prefix):
        assert os.path.isabs(prefix)
        for tree in (parent, change):
            assert os.path.commonpath([prefix, tree]) != tree
        assert not os.path.exists(os.path.dirname(prefix))  # removed at exit


def test_failed_operation_exits_1(trees, tmp_path):
    parent, _ = trees
    failing = stub_tree(tmp_path / "failing", CHANGE, failed=1)
    assert pairs.main([parent, failing, "--workload", "mc_gt1", "--pairs", "1",
                       "--seconds", "1"]) == 1


def test_unknown_workload_exits_2(trees, tmp_path, capsys):
    parent, change = trees
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    spec["workloads"] = [w for w in spec["workloads"] if w["name"] != "mc_gt1"]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    for workload in ("mystery", "mc_gt1"):
        with pytest.raises(SystemExit) as exited:
            pairs.main([parent, change, "--workload", workload, "--pairs", "1", "--seconds", "1"])
        assert exited.value.code == 2
        assert f"invalid choice: '{workload}'" in capsys.readouterr().err
    assert not (tmp_path / "calls.log").exists()


def test_run_without_result_exits_2(trees, tmp_path, capsys):
    parent, _ = trees
    broken = tmp_path / "broken"
    (broken / "perfbench").mkdir(parents=True)
    (broken / "perfbench" / "run.py").write_text("import sys\nsys.exit(3)\n")
    assert pairs.main([parent, str(broken), "--workload", "mc_lt1", "--pairs", "1",
                       "--seconds", "1", "--record"]) == 2
    assert "exit 3, no result line" in capsys.readouterr().err
    # The parent's completed run is still recorded.
    assert [e["side"] for e in json.loads((tmp_path / "BENCH_mc_lt1.json").read_text())] == [
        "parent"]
