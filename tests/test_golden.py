"""tools/golden.py --compare on small stub output folders; nothing is simulated."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def stub_outputs(root: Path) -> Path:
    """A folder laid out as ``tools/golden.py OUT_DIR`` writes it, with tiny files."""
    (root / "estimate").mkdir(parents=True)
    (root / "threads1").mkdir()
    (root / "limits.txt").write_text("$ limits\nexit 0\nratio=0.5\n")
    (root / "estimate" / "estimate.txt").write_text("$ estimate tall.csv\nexit 0\n")
    (root / "estimate" / "tall.csv").write_text("1,2\n3,4\n")
    (root / "estimate" / "prior2.csv").write_text("2,0.5\n0.5,4\n")
    (root / "threads1" / "fig1.csv").write_text("p,loss\n10,0.25\n")
    return root


@pytest.fixture
def sides(tmp_path):
    parent = stub_outputs(tmp_path / "parent")
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    return parent, change


def compare(capsys, parent, change):
    code = golden.main(["--compare", str(parent), str(change)])
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    return code, {words[1]: words[0] for words in lines}


def test_identical_folders(capsys, sides):
    code, verdicts = compare(capsys, *sides)
    assert code == 0
    assert verdicts == dict.fromkeys(["limits.txt", "estimate/estimate.txt", "estimate/tall.csv",
                                      "estimate/prior2.csv", "threads1/fig1.csv"], "identical")


def test_matrix_difference_is_reported_not_refused(capsys, sides):
    parent, change = sides
    (change / "estimate" / "prior2.csv").write_text("2,0.5\n0.5,4.000000000000002\n")
    code, verdicts = compare(capsys, parent, change)
    assert code == 0
    assert float(verdicts["estimate/prior2.csv"]) == pytest.approx(2e-15 / 4, rel=0.5)
    assert verdicts["estimate/estimate.txt"] == "identical"


@pytest.mark.parametrize("path, text, verdict", [
    ("limits.txt", "$ limits\nexit 0\nratio=0.50\n", "DIFFERS"),
    ("estimate/estimate.txt", "$ estimate tall.csv\nexit 3\n", "DIFFERS"),
    ("threads1/fig1.csv", "p,loss\n10,0.250\n", "DIFFERS"),
    ("threads1/fig2.csv", "p,loss\n", "missing"),
    ("estimate/prior2.csv", "2,0.5,1\n0.5,4,1\n", "SHAPE")])
def test_exact_output_that_differs_exits_1(capsys, sides, path, text, verdict):
    parent, change = sides
    (change / path).write_text(text)
    code, verdicts = compare(capsys, parent, change)
    assert code == 1
    assert verdicts[path] == verdict


def test_missing_folder_exits_2(capsys, tmp_path, sides):
    assert golden.main(["--compare", str(sides[0]), str(tmp_path / "absent")]) == 2
    assert "is not a folder" in capsys.readouterr().err
