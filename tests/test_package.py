"""The package's public surface: what ``import precshrink`` exports, the
distributions it declares, and the names the benchmark's traced run wraps."""

import ast
import importlib.metadata
import importlib.util
import re
import sys
import tomllib
import types
from pathlib import Path

import precshrink
from precshrink import simulation

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_all_lists_each_public_name_once():
    exported = precshrink.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert getattr(precshrink, name) is not None
    # A function deleted from its module must not leave a stale export behind,
    # and a name imported into the package must be exported.
    defined = {name for name, value in vars(precshrink).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(exported) == defined


def _normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def test_declared_dependencies_cover_imports():
    """Every third-party package that a module imports, at its top or inside a
    function, belongs to a distribution in ``[project] dependencies``."""
    imported = set()
    for module in (ROOT / "src" / "precshrink").glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"precshrink"}
    assert {"numpy", "orjson", "scipy", "yaml"} <= third_party
    with open(ROOT / "pyproject.toml", "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    declared = {_normalized(re.match(r"[A-Za-z0-9._-]+", line)[0]) for line in requirements}
    distributions = importlib.metadata.packages_distributions()
    for name in sorted(third_party):
        assert {_normalized(d) for d in distributions[name]} & declared, name


def test_no_module_imports_a_private_name_of_another():
    """A name that starts with an underscore stays inside its module: no
    precshrink module imports one from another."""
    private = []
    for module in (ROOT / "src" / "precshrink").glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "precshrink"
                                                     or node.module.startswith("precshrink.")):
                private += [f"{module.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def load_by_path(monkeypatch, path: Path) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracing_hooks_resolve(monkeypatch):
    """``perfbench/run.py --trace 1`` wraps precshrink functions by name; a
    renamed or deleted one fails here, not only in a traced benchmark run."""
    run = load_by_path(monkeypatch, PERFBENCH / "run.py")
    tracer = load_by_path(monkeypatch, PERFBENCH / "spans.py").Tracer()
    original = simulation.run_grid_point
    try:
        run.install_tracing(tracer)
        assert simulation.run_grid_point is not original
    finally:
        tracer.restore()
    assert simulation.run_grid_point is original


def test_traced_grid_point_closes_one_span_per_replication(monkeypatch):
    """A traced replication's span opens at ``replication_rng`` and closes when
    the replication builds its result through ``simulation.ReplicationResult``."""
    run = load_by_path(monkeypatch, PERFBENCH / "run.py")
    tracer = load_by_path(monkeypatch, PERFBENCH / "spans.py").Tracer()
    hooked = (simulation.replication_rng, simulation.ReplicationResult)
    config = simulation.with_overrides(simulation.builtin_experiments()["fig5"], replications=3)
    try:
        run.install_tracing(tracer)
        _, results = simulation.run_grid_point(config, 100)
    finally:
        tracer.restore()
    assert (simulation.replication_rng, simulation.ReplicationResult) == hooked
    spans = [span for span in tracer.spans if span.name == "simulation.replication"]
    assert [(span.attrs, span.end is not None) for span in spans] == [
        ({"p": 100, "index": r}, True) for r in range(3)]
    assert [type(result) for result in results] == [simulation.ReplicationResult] * 3
