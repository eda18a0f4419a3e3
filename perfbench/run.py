"""precshrink benchmark: one workload per process, metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_lt1 --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout this script sits in;
the script fails (exit 2, no result) when that source tree is missing.

Workloads (all closed-loop with one caller; each round is one unit of work
at a fixed size, repeated until ``--seconds`` have passed):

- ``mc_lt1``: ``simulate fig1`` (ratio 1/3, p in {60, 120, 180}, Gaussian,
  five estimators x two targets) at ``--threads 2``, 4 replications per grid
  point and round. An operation is one replication.
- ``mc_gt1``: ``simulate fig5`` (ratio 1.5, p in {100, 200}, pseudo-inverse
  regime) at ``--threads 1``, 10 replications per grid point and round.
- ``analysis``: one session through ``precshrink.cli.main``: ``estimate`` on
  a 400 x 1200 CSV with target ``inverse-of:prior2``, then ``limits`` over
  {identity, threeblock, prior4} x ratio {0.5, 1.5, 3} x p {300, 1000}. An
  operation is one command.

Worker threads never exceed the CPU count. The benchmark sets no BLAS thread
variable: it records the BLAS thread count and environment it finds, so an
oversubscribed default stays visible.

``--trace 0`` prints the end-to-end metrics (medians over rounds):
``setup_s`` (fresh process until ``import precshrink`` completes, median of
several), ``wall_s`` and ``cpu_s`` (wall and user+sys time of one round),
``ops_per_s`` (operations per second of a round) and ``peak_rss_mb``.
``--trace 1`` alternates untraced rounds, traced rounds and, for a
multi-threaded workload, traced rounds at one thread; it prints the per-layer
metrics and the tracing overhead, and writes every span to ``perfbench/out``.

Every run checks its outputs against ``reference.py`` and counts each
mismatch as a failed operation. The last line of standard output is the
result object; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SPAWNS = 7
MIN_ROUNDS = 3
BLAS_ENV_PREFIXES = ("OPENBLAS", "OMP_", "MKL_", "GOTO", "BLIS", "VECLIB", "SCIPY_OPENBLAS")

# Per-layer metric -> (unit, better, the end-to-end metric and workload it
# should move). A layer a workload never calls reads 0 there.
PER_LAYER = {
    "simulation.generate_data.ms": ("ms", "lower", "ops_per_s on mc_lt1; little on mc_gt1"),
    "simulation.replication.ms": ("ms", "lower", "ops_per_s, wall_s on mc_lt1 and mc_gt1"),
    "simulation.replication.self_ms": ("ms", "lower", "ops_per_s on mc_lt1 and mc_gt1"),
    "simulation.pool.efficiency": ("ratio", "higher", "ops_per_s, cpu_s on mc_lt1; about 1 on mc_gt1"),
    "linalg.sample_covariance.ms": ("ms", "lower", "ops_per_s on mc_lt1, mc_gt1; wall_s on analysis"),
    "linalg.sample_covariance.gflops": ("GFLOP/s", "higher", "ops_per_s on mc_lt1, mc_gt1"),
    "linalg.sample_covariance.computed_gflop_per_round": ("GFLOP", "lower", "count; changes only with the algorithm"),
    "linalg.sample_covariance.computed_mb_per_round": ("MB", "lower", "count; changes only with the algorithm"),
    "estimators.olse_covariance.ms": ("ms", "lower", "ops_per_s on mc_lt1 and mc_gt1"),
    "estimators.oracle_equivariant.ms": ("ms", "lower", "ops_per_s on mc_lt1 and mc_gt1"),
    "estimators.oracle_olse.ms": ("ms", "lower", "ops_per_s on mc_lt1 and mc_gt1"),
    "estimators.bona_fide_olse.ms": ("ms", "lower", "ops_per_s on mc_lt1; wall_s on analysis (estimate)"),
    "estimators.target_matrix.ms": ("ms", "lower", "wall_s on analysis (limits)"),
    "estimators.target_matrix.calls_per_round": ("count", "lower", "wall_s on analysis"),
    "estimators.alpha_out_of_support": ("count", "lower", "none; must not move"),
    "metrics.frobenius_loss.ms": ("ms", "lower", "ops_per_s on mc_lt1 and mc_gt1"),
    "metrics.frobenius_loss.calls_per_rep": ("count", "lower", "ops_per_s on mc_lt1 (8) and mc_gt1 (4)"),
    "spectral.build_covariance.ms": ("ms", "lower", "wall_s on analysis (limits); setup share on mc"),
    "spectral.build_covariance.calls_per_round": ("count", "lower", "wall_s on analysis"),
    "asymptotics.compute_limit_functionals.ms": ("ms", "lower", "wall_s on analysis (limits)"),
    "asymptotics.dual_trace.iterations": ("count", "lower", "wall_s on analysis; exact count"),
    "asymptotics.target_dual_trace.iterations": ("count", "lower", "wall_s on analysis; exact count"),
    "configio.load_matrix.ms": ("ms", "lower", "wall_s on analysis (estimate)"),
    "configio.load_matrix.mb_per_s": ("MB/s", "higher", "wall_s on analysis (estimate)"),
    "configio.write_results.ms": ("ms", "lower", "wall_s on mc_lt1, mc_gt1; predicted not to move"),
    "cli.estimate.ms": ("ms", "lower", "wall_s on analysis; the estimate part of a session"),
    "cli.limits.ms": ("ms", "lower", "wall_s on analysis; the limits part of a session"),
    "cli.estimate.write.ms": ("ms", "lower", "wall_s on analysis (estimate)"),
    "trace.overhead_s": ("s", "lower", "none; traced minus untraced wall_s"),
    "trace.overhead_frac": ("ratio", "lower", "none; overhead over untraced wall_s"),
}


@dataclass
class Round:
    index: int
    kind: str  # "plain" (untraced), "traced", or "serial" (traced at one thread)
    wall: float
    cpu: float
    ops: int
    failed: int


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def setup_seconds() -> list[float]:
    """Fresh interpreter until ``import precshrink`` completes, timed by the
    monotonic clock both processes share."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import precshrink; "
            "print(repr(time.monotonic()))")
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip()) - start)
    return times


def blas_threads() -> dict[str, int | None]:
    """Thread count reported by each OpenBLAS build that numpy and scipy load."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs_dir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                                f"{package.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                func = getattr(lib, symbol, None)
                if func is not None:
                    func.restype = ctypes.c_int
                    func.argtypes = []
                    found[os.path.basename(path)] = int(func())
                    break
    return found


def source_digest() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(os.path.join(SRC, "precshrink")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def metadata(args, threads: int) -> dict:
    import numpy
    import precshrink
    import scipy

    commit = None
    try:
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10).stdout.split()
    except OSError:
        lines = []
    if len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
        commit = lines[1]  # only when this checkout is itself the git work tree
    config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": threads,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": source_digest(),
        "precshrink": precshrink.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": config.get("version"),
        "blas_threads": blas_threads(),
        "blas_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(BLAS_ENV_PREFIXES)},
        "platform": platform.platform(),
    }


def kernel_counts(p: int, n: int) -> dict:
    """Computed (not measured) work of sample_covariance at one (p, n).

    Gram product S = Y Y'/n as a symmetric rank-n update: p (p + 1) n flops.
    Symmetric eigendecomposition with eigenvectors: 9 p^3 flops (Golub and
    Van Loan's count for symmetric QR). Inverse as (U / lambda) U': 2 p^3.
    Bytes are the compulsory traffic of 8-byte operands read and written once.
    """
    return {
        "p": p, "n": n,
        "gram": {"flops": p * (p + 1) * n, "bytes": 8 * (p * n + p * p)},
        "eigh": {"flops": 9 * p**3, "bytes": 8 * (2 * p * p + p)},
        "inverse": {"flops": 2 * p**3, "bytes": 8 * (3 * p * p + p)},
    }


def install_tracing(tracer) -> None:
    """Wrap each public layer call of precshrink in a span."""
    import numpy

    from precshrink import asymptotics, configio, estimators, linalg, metrics, simulation, spectral

    def wrap_all(module, func_name, span_name, attrs=None):
        func = getattr(module, func_name)
        tracer.replace_everywhere(func, tracer.wrap(span_name, func, attrs))

    def data_shape(data, *args, **kwargs):
        return {"p": data.p, "n": data.n} if hasattr(data, "p") else {}

    wrap_all(simulation, "run_grid_point", "simulation.run_grid_point",
             lambda config, p, *a, **k: {"p": p})
    wrap_all(simulation, "generate_data", "simulation.generate_data")
    wrap_all(linalg, "sample_covariance", "linalg.sample_covariance", data_shape)
    wrap_all(estimators, "olse_covariance", "estimators.olse_covariance")
    wrap_all(estimators, "oracle_equivariant", "estimators.oracle_equivariant")
    wrap_all(estimators, "oracle_olse_lt1", "estimators.oracle_olse")
    wrap_all(estimators, "oracle_olse_gt1", "estimators.oracle_olse")
    wrap_all(estimators, "bona_fide_olse", "estimators.bona_fide_olse")
    wrap_all(metrics, "frobenius_loss", "metrics.frobenius_loss")
    wrap_all(spectral, "build_covariance", "spectral.build_covariance")
    wrap_all(asymptotics, "compute_limit_functionals", "asymptotics.compute_limit_functionals")
    wrap_all(configio, "load_matrix", "configio.load_matrix",
             lambda path, *a, **k: {"bytes": os.path.getsize(path)})
    wrap_all(configio, "write_results", "configio.write_results")
    tracer.replace(numpy, "savetxt", tracer.wrap("cli.estimate.write", numpy.savetxt))
    target_cls = estimators.TargetMatrix
    for name in ("from_matrix", "identity_over_p", "from_spectrum", "inverse_of_spectrum"):
        func = target_cls.__dict__[name].__func__
        tracer.replace(target_cls, name, classmethod(tracer.wrap("estimators.target_matrix", func)))

    # A replication has no public entry of its own: its span runs from the
    # call that seeds it to the construction of its result.
    replication_rng = simulation.replication_rng
    result_cls = simulation.ReplicationResult

    def close_replication():
        top = tracer.current()
        if top is not None and top.name == "simulation.replication":
            tracer.close(top)

    def seeded(seed, p, replication):
        close_replication()  # left open when the previous replication raised
        tracer.open("simulation.replication", p=p, index=replication)
        return replication_rng(seed, p, replication)

    def finished(*args, **kwargs):
        result = result_cls(*args, **kwargs)
        close_replication()
        return result

    tracer.replace(simulation, "replication_rng", seeded)
    tracer.replace(simulation, "ReplicationResult", finished)


def build_workload(name: str, seed: int, out_dir: str, threads: int):
    from workloads import Analysis, MonteCarlo

    # Rounds of about half a second give some fifty rounds per 30 s run, which
    # keeps the median steady; 4 replications split evenly over 2 workers.
    if name == "mc_lt1":
        return MonteCarlo("fig1", threads, reps=4, seed=seed, out_dir=out_dir)
    if name == "mc_gt1":
        return MonteCarlo("fig5", 1, reps=10, seed=seed, out_dir=out_dir)
    return Analysis(seed, out_dir)


def measure(workload, seconds: float, tracer=None) -> list[Round]:
    """Run rounds until ``seconds`` have passed (at least MIN_ROUNDS of each kind)."""
    kinds = ["plain"]
    if tracer is not None:
        kinds.append("traced")
        if workload.serial_rounds:
            kinds.append("serial")
    rounds: list[Round] = []
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds or len(rounds) < MIN_ROUNDS * len(kinds):
        kind = kinds[k % len(kinds)]
        traced = kind != "plain"
        if traced:
            tracer.run_id = k
            install_tracing(tracer)
            workload.tracer = tracer
        try:
            c0, t0 = cpu_seconds(), time.perf_counter()
            with workload.span("round", kind=kind):
                ops, failed = workload.run_round(k, threads=1 if kind == "serial" else None)
            t1, c1 = time.perf_counter(), cpu_seconds()
        finally:
            workload.tracer = None
            if traced:
                tracer.restore()
        rounds.append(Round(k, kind, t1 - t0, c1 - c0, ops, failed))
        k += 1
    return rounds


def end_to_end(rounds: list[Round], setup: list[float], peak_rss_mb: float) -> dict:
    plain = [r for r in rounds if r.kind == "plain"]
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (median(r.wall for r in plain), "s"),
        "cpu_s": (median(r.cpu for r in plain), "s"),
        "ops_per_s": (median(r.ops / r.wall for r in plain), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, rounds: list[Round], workload) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of traced rounds, plus the computed
    kernel counts and the median self time of every span name."""
    from spans import self_seconds

    traced = {r.index for r in rounds if r.kind == "traced"}
    serial = {r.index for r in rounds if r.kind == "serial"} or traced
    spans = [s for s in tracer.spans if s.end is not None]
    selfs = self_seconds(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        if span.run_id in traced:
            by_name.setdefault(span.name, []).append(span)

    def ms(name):
        return 1e3 * median(s.seconds for s in by_name.get(name, ()))

    def per_round(name):
        return len(by_name.get(name, ())) / len(traced)

    replications = by_name.get("simulation.replication", [])
    covariances = by_name.get("linalg.sample_covariance", [])
    counts = [kernel_counts(s.attrs["p"], s.attrs["n"]) for s in covariances]
    flops = [sum(c[k]["flops"] for k in ("gram", "eigh", "inverse")) for c in counts]
    moved = [sum(c[k]["bytes"] for k in ("gram", "eigh", "inverse")) for c in counts]
    cov_seconds = sum(s.seconds for s in covariances)
    loads = by_name.get("configio.load_matrix", [])
    load_seconds = sum(s.seconds for s in loads)

    serial_rep = {}
    for span in spans:
        if span.name == "simulation.replication" and span.run_id in serial:
            serial_rep[span.run_id] = serial_rep.get(span.run_id, 0.0) + span.seconds
    traced_wall = median(r.wall for r in rounds if r.kind == "traced")
    plain_wall = median(r.wall for r in rounds if r.kind == "plain")
    efficiency = (median(serial_rep.values()) / (traced_wall * workload.threads)
                  if serial_rep else 0.0)
    iterations = getattr(workload, "iterations", {})
    values = {
        "simulation.generate_data.ms": ms("simulation.generate_data"),
        "simulation.replication.ms": ms("simulation.replication"),
        "simulation.replication.self_ms": 1e3 * median(selfs[s.id] for s in replications),
        "simulation.pool.efficiency": efficiency,
        "linalg.sample_covariance.ms": ms("linalg.sample_covariance"),
        "linalg.sample_covariance.gflops": sum(flops) / cov_seconds / 1e9 if cov_seconds else 0.0,
        "linalg.sample_covariance.computed_gflop_per_round": sum(flops) / len(traced) / 1e9,
        "linalg.sample_covariance.computed_mb_per_round": sum(moved) / len(traced) / 1e6,
        "estimators.olse_covariance.ms": ms("estimators.olse_covariance"),
        "estimators.oracle_equivariant.ms": ms("estimators.oracle_equivariant"),
        "estimators.oracle_olse.ms": ms("estimators.oracle_olse"),
        "estimators.bona_fide_olse.ms": ms("estimators.bona_fide_olse"),
        "estimators.target_matrix.ms": ms("estimators.target_matrix"),
        "estimators.target_matrix.calls_per_round": per_round("estimators.target_matrix"),
        "estimators.alpha_out_of_support": workload.out_of_support,
        "metrics.frobenius_loss.ms": ms("metrics.frobenius_loss"),
        "metrics.frobenius_loss.calls_per_rep": (
            len(by_name.get("metrics.frobenius_loss", ())) / len(replications)
            if replications else 0.0),
        "spectral.build_covariance.ms": ms("spectral.build_covariance"),
        "spectral.build_covariance.calls_per_round": per_round("spectral.build_covariance"),
        "asymptotics.compute_limit_functionals.ms": ms("asymptotics.compute_limit_functionals"),
        "asymptotics.dual_trace.iterations": iterations.get("dual_trace", 0),
        "asymptotics.target_dual_trace.iterations": iterations.get("target_dual_trace", 0),
        "configio.load_matrix.ms": ms("configio.load_matrix"),
        "configio.load_matrix.mb_per_s": (sum(s.attrs["bytes"] for s in loads) / load_seconds / 1e6
                                          if load_seconds else 0.0),
        "configio.write_results.ms": ms("configio.write_results"),
        "cli.estimate.ms": ms("cli.estimate"),
        "cli.limits.ms": ms("cli.limits"),
        "cli.estimate.write.ms": ms("cli.estimate.write"),
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
    }
    shapes = sorted({(c["p"], c["n"]) for c in counts})
    extras = {
        "kernels": {"label": "computed from (p, n), not measured",
                    "per_call": [kernel_counts(p, n) for p, n in shapes]},
        "self_ms": {name: 1e3 * median(selfs[s.id] for s in group)
                    for name, group in sorted(by_name.items())},
    }
    return {name: (value, PER_LAYER[name][0]) for name, value in values.items()}, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("mc_lt1", "mc_gt1", "analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    if not os.path.isfile(os.path.join(SRC, "precshrink", "__init__.py")):
        print(f"error: no precshrink source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import precshrink

    if not os.path.abspath(precshrink.__file__).startswith(SRC + os.sep):
        print(f"error: precshrink imported from {precshrink.__file__}, not {SRC}", file=sys.stderr)
        return 2

    threads = min(2 if args.workload == "mc_lt1" else 1, os.cpu_count() or 1)
    setup = setup_seconds()
    meta = metadata(args, threads)
    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"tmp-{args.workload}-{os.getpid()}")
    os.makedirs(scratch)
    tracer = None
    try:
        workload = build_workload(args.workload, args.seed, scratch, threads)
        workload.warmup()
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        rounds = measure(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        extra_attempted, check_failed = workload.check()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(r.ops for r in rounds) + extra_attempted
    failed = min(attempted, sum(r.failed for r in rounds) + check_failed)
    e2e = end_to_end(rounds, setup, peak_rss_mb)
    report = {
        "ops_failed_frac": (failed / attempted, "ratio"),
        "rounds": (len(rounds), "count"),
        "ops_per_round": (rounds[0].ops, "count"),
    }
    if args.workload.startswith("mc_"):
        report["reps_per_s"] = e2e["ops_per_s"]
    else:
        plain = [workload.split[r.index] for r in rounds if r.kind == "plain" and r.index in workload.split]
        report["estimate_s"] = (median(e for e, _ in plain), "s")
        report["limits_s"] = (median(l for _, l in plain), "s")
    record = {"meta": meta, "end_to_end": e2e, "report": report, "setup_samples_s": setup,
              "rounds": [r.__dict__ for r in rounds], "errors": workload.errors}
    if tracer is not None:
        layers, extras = per_layer(tracer, rounds, workload)
        record.update(per_layer=layers, **extras, layer_targets={
            name: target for name, (_, _, target) in PER_LAYER.items()})
        spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl")
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in tracer.dump():
                handle.write(json.dumps(span) + "\n")
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    result_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"precshrink benchmark: workload={args.workload} seed={args.seed} "
          f"threads={threads} nproc={meta['nproc']} trace={args.trace}")
    print(f"meta: {json.dumps(meta)}")
    shown = dict(e2e, **report)
    if tracer is not None:
        shown.update(layers)
    for name, (value, unit) in shown.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    if tracer is not None:
        for kernel in extras["kernels"]["per_call"]:
            print(f"  kernels (computed) p={kernel['p']} n={kernel['n']}: " + ", ".join(
                f"{k} {kernel[k]['flops'] / 1e6:.1f} MFLOP {kernel[k]['bytes'] / 1e6:.2f} MB"
                for k in ("gram", "eigh", "inverse")))
    for error in workload.errors:
        print(f"  FAILED: {error}")
    print(f"record written to {os.path.relpath(result_path, ROOT)}")
    metrics = layers if tracer is not None else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
