"""The package's public surface: what ``import precshrink`` exports, and the
names the benchmark's traced run wraps."""

import importlib.util
import sys
import types
from pathlib import Path

import precshrink
from precshrink import simulation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
