"""Run the benchmark in alternating parent/change pairs and compare the two sides.

Usage, from anywhere:

    python3 tools/pairs.py PARENT_TREE CHANGE_TREE --workload analysis --pairs 3 \
        --seconds 30 [--trace 0|1] [--seed FIRST] [--record]

Each tree is a checkout with its own ``perfbench/run.py``, which imports that
tree's ``src/``. Pair ``i`` runs both trees at seed ``FIRST + i``, one
process at a time; the parent runs first in even pairs and the change first
in odd ones, so that neither side always meets the machine in the same state.
Each side's runs write their bytecode to one fresh ``PYTHONPYCACHEPREFIX``
folder of its own, outside both trees and removed at exit, even where
``PYTHONDONTWRITEBYTECODE`` is set; so a ``__pycache__`` left in one tree
favours neither side, and no file in either tree is touched.
``perfbench/run.py`` imports the package before it times anything, so the
spawns it times find that side's cache warm.

The workloads and the end-to-end metrics come from ``BENCHMARK.json``, read
from the checkout this script sits in. For each metric it prints both
medians, the median of the per-pair ratios change / parent, the pairs the
change won (ties count for neither side), the parent's quartiles and a
verdict:

- ``unresolved``: the parent's quartile spread, relative to its median, is
  wider than the metric's bound, and not every change run beats every parent
  run;
- ``worse``: the change's median is worse than the parent's by more than the
  bound;
- ``better``: the change won at least nine pairs in ten and its median is
  better than the parent's by more than the parent's quartile spread;
- ``within bound``: anything else.

With ``--record`` one entry per run is appended to ``BENCH_<workload>.json``
at the root of this checkout; without it nothing is written. The exit code is
1 when a run of either side reports a failed operation, 2 when a run exits
nonzero or prints no result, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# Readable per-workload extras that run.py prints next to the end-to-end metrics.
EXTRAS = ("estimate_s", "limits_s", "reps_per_s")
METRIC_LINE = re.compile(r"^  ([a-z_]+) +(\S+) \S+$")  # "  name value unit"


class RunError(Exception):
    """A benchmark run that exited nonzero or printed no result."""


def benchmark() -> dict:
    """This checkout's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(tree: str, args, seed: int, names, cache: str) -> dict:
    """Run ``tree``'s perfbench/run.py once, with its bytecode cached under
    ``cache``, and parse what it prints; every metric in ``names`` must be
    among the printed ones."""
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=4 * args.seconds + 600)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{tree}: seed {seed}: no result after {exc.timeout:.0f} s") from exc
    lines = done.stdout.splitlines()
    results = [line for line in lines if line.startswith("{")]
    metas = [line.removeprefix("meta: ") for line in lines if line.startswith("meta: ")]
    if done.returncode != 0 or not results or not metas:
        raise RunError(f"{tree}: seed {seed}: exit {done.returncode}, no result line\n"
                       f"{done.stderr.strip()}")
    values = {}
    for line in lines:
        match = METRIC_LINE.match(line)
        if match:
            values[match[1]] = float(match[2])
    missing = [name for name in names if name not in values]
    if missing:
        raise RunError(f"{tree}: seed {seed}: no value printed for {', '.join(missing)}")
    return {"meta": json.loads(metas[-1]), "result": json.loads(results[-1]), "values": values}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple:
    """Compare the runs of one metric; return (ratio, won, quartiles, verdict)."""
    sign = 1.0 if better == "higher" else -1.0
    ratio = statistics.median(c / p for p, c in zip(parent, change))
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, q3 = quartiles(parent)
    base, moved = statistics.median(parent), statistics.median(change)
    gain = sign * (moved - base)
    if q3 - q1 > bound * abs(base) and not min(sign * c for c in change) > max(
            sign * p for p in parent):
        label = "unresolved"
    elif -gain > bound * abs(base):
        label = "worse"
    elif won >= 0.9 * len(parent) and gain > q3 - q1:
        label = "better"
    else:
        label = "within bound"
    return ratio, won, (q1, q3), label


def entry(run: dict, args, stamp: str, pair: int, side: str, seed: int,
          names: list[str]) -> dict:
    """One BENCH_<workload>.json entry for one run."""
    meta = run["meta"]
    return {
        "recorded": stamp, "workload": args.workload, "pair": pair, "side": side,
        "commit": meta.get("commit"), "source_sha256": meta.get("source_sha256"),
        "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "end_to_end": {name: run["values"][name] for name in names},
        "extras": {name: run["values"][name] for name in EXTRAS if name in run["values"]},
        "nproc": meta.get("nproc"), "blas_threads": meta.get("blas_threads"),
        "blas_env": meta.get("blas_env"), "gate_passed": bool(run["result"].get("correct")),
        "failed": run["result"].get("failed"), "attempted": run["result"].get("attempted"),
    }


def record(workload: str, entries: list[dict]) -> str:
    path = os.path.join(ROOT, f"BENCH_{workload}.json")
    previous = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            previous = json.load(handle)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(previous + entries, handle, indent=1)
        handle.write("\n")
    return path


def main(argv=None) -> int:
    spec = benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--record", action="store_true",
                        help="append one entry per run to BENCH_<workload>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        parser.error("--pairs must be positive, --seconds positive and --seed nonnegative")
    trees = dict(zip(SIDES, (os.path.abspath(args.parent), os.path.abspath(args.change))))
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error(f"{tree} has no perfbench/run.py")
    # Metric name -> (better, bound).
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    runs = {side: [] for side in SIDES}
    entries = []
    failed = False
    caches = tempfile.mkdtemp(prefix="pairs-pycache-")
    try:
        for pair in range(args.pairs):
            seed = args.seed + pair
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                run = run_once(trees[side], args, seed, metrics, os.path.join(caches, side))
                runs[side].append(run)
                entries.append(entry(run, args, stamp, pair, side, seed, list(metrics)))
                failed |= bool(run["result"].get("failed"))
                print(f"pair {pair} seed {seed} {side}: " + " ".join(
                    f"{name}={run['values'][name]:.6g}" for name in metrics)
                      + f" failed={run['result'].get('failed')}", flush=True)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(caches, ignore_errors=True)
        if args.record and entries:
            print(f"{len(entries)} entries appended to {record(args.workload, entries)}")

    print(f"workload={args.workload} pairs={args.pairs} seconds={args.seconds:g} "
          f"trace={args.trace} seeds={args.seed}..{args.seed + args.pairs - 1}")
    print(f"{'metric':12s} {'parent':>10s} {'change':>10s} {'ratio':>7s} {'won':>6s} "
          f"{'parent quartiles':>21s}  verdict")
    for name, (better, bound) in metrics.items():
        parent = [run["values"][name] for run in runs["parent"]]
        change = [run["values"][name] for run in runs["change"]]
        ratio, won, (q1, q3), label = verdict(parent, change, better, bound)
        print(f"{name:12s} {statistics.median(parent):10.4g} {statistics.median(change):10.4g} "
              f"{ratio:7.3f} {won:>2d}/{args.pairs:<3d} [{q1:9.4g}, {q3:9.4g}]  {label}")
    if failed:
        print("error: a run reported failed operations", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
