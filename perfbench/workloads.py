"""Benchmark workloads: Monte Carlo rounds and a one-shot analysis session.

A workload runs in rounds. ``run_round`` is the timed unit of work and
returns (operations attempted, operations failed); ``check`` runs after the
timed loop and compares what the rounds produced with the plain-numpy
reference in ``reference.py``. Every call goes through precshrink's public
functions or its command-line entry point, looked up on the module at call
time so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import time
import traceback

import numpy as np

import reference

from precshrink import cli, configio, simulation


WARMUP_ROUND = 2**31


def round_seed(seed: int, k: int) -> int:
    """Seed the program receives for round k of a run at benchmark seed ``seed``."""
    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``precshrink <argv>`` in-process; return its exit code and stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


class Workload:
    """Shared bookkeeping: failure messages and the optional span recorder."""

    threads = 1
    serial_rounds = False

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.tracer = None
        self.errors: list[str] = []

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


class MonteCarlo(Workload):
    """``precshrink simulate <experiment>``: every grid point, then the CSV.

    A round does what ``simulate`` does, through the public functions it
    calls, so the per-replication results stay available for the gate.
    """

    def __init__(self, experiment, threads, reps, seed, out_dir):
        super().__init__(out_dir)
        self.experiment = experiment
        self.threads = threads
        self.serial_rounds = threads > 1
        self.reps = reps
        self.seed = seed
        self.base = simulation.builtin_experiments()[experiment]
        self.results: list[tuple[int, int, list]] = []
        self.csv_paths: dict[int, str] = {}
        self.out_of_support = 0

    def config(self, k: int):
        return simulation.with_overrides(self.base, replications=self.reps,
                                         seed=round_seed(self.seed, k))

    def warmup(self) -> None:
        """One untimed round: BLAS threads and allocations settle before timing."""
        cfg = simulation.with_overrides(self.base, replications=self.reps,
                                        seed=round_seed(self.seed, WARMUP_ROUND))
        for p in cfg.p_grid:
            simulation.run_grid_point(cfg, p, threads=self.threads)

    def run_round(self, k: int, threads: int | None = None) -> tuple[int, int]:
        cfg = self.config(k)
        ops = self.reps * len(cfg.p_grid)
        path = os.path.join(self.out_dir, f"round-{k}.csv")
        try:
            reports = []
            for p in cfg.p_grid:
                report, results = simulation.run_grid_point(cfg, p, threads=threads or self.threads)
                reports.append(report)
                self.results.append((cfg.seed, p, results))
            configio.write_results(path, configio.rows_from_reports(cfg, reports))
        except Exception:  # a failed round is counted, and the run goes on
            self.fail(f"round {k}: {traceback.format_exc(limit=3)}")
            return ops, ops
        if threads is None:
            self.csv_paths[k] = path
        return ops, 0

    def check(self) -> tuple[int, int]:
        """Reference-check one replication per grid point of every round and
        the CSV bytes at another thread count.

        The replications were counted as attempted by the rounds; the CSV
        comparison adds one attempt. Returns (attempted, failed).
        """
        picker = np.random.default_rng(self.seed)
        ratio = self.base.ratio
        failed = 0
        for seed, p, results in self.results:
            slack = 1.0 - p / simulation.grid_sample_size(p, ratio)
            for res in results:
                for row, (alpha, _) in res.weights.items():
                    if row.startswith("olse_precision[") and not 0.0 < alpha < slack:
                        self.out_of_support += 1
            res = results[int(picker.integers(len(results)))]
            targets = {}
            for spec in self.base.targets:
                if spec.kind == simulation.TARGET_IDENTITY:
                    targets[spec.name] = (np.full(p, 1.0 / p), np.full(p, 1.0 / p))
                else:
                    cov = reference.realize(reference.SPECTRA[spec.name], p)
                    targets[spec.name] = (1.0 / cov, cov)
            losses, weights = reference.mc_replication(seed, p, res.index, ratio, targets)
            bad = [row for row in losses if row not in res.losses
                   or not reference.close(res.losses[row], losses[row])]
            bad += [f"weights of {row}" for row in weights if row not in res.weights
                    or not all(map(reference.close, res.weights[row], weights[row]))]
            if set(losses) != set(res.losses):
                bad.append(f"rows {sorted(res.losses)} != {sorted(losses)}")
            if bad:
                failed += 1
                self.fail(f"seed {seed} p={p} replication {res.index}: mismatch in {bad}")
        return 1, failed + self._check_csv()

    def _check_csv(self) -> int:
        if not self.csv_paths:
            self.fail("no round wrote a CSV")
            return 1
        k = min(self.csv_paths)
        cfg = self.config(k)
        other = 1 if self.threads > 1 else min(2, os.cpu_count() or 1)
        path = os.path.join(self.out_dir, "simulate-cli.csv")
        code, _ = run_cli(["simulate", self.experiment, "--reps", str(cfg.replications),
                           "--seed", str(cfg.seed), "--threads", str(other), "--out", path])
        same = False
        if code == 0:
            with open(self.csv_paths[k], "rb") as a, open(path, "rb") as b:
                same = a.read() == b.read()
        if not same:
            self.fail(f"simulate --threads {other} exit {code}; CSV identical: {same}")
            return 1
        return 0


ESTIMATE_TARGET = "inverse-of:prior2"
LIMIT_SPECTRA = ("identity", "threeblock", "prior4")
LIMIT_RATIOS = (0.5, 1.5, 3.0)
LIMIT_DIMS = (300, 1000)
_NUMBER = r"[-+0-9.eEinfa]+"


def parse_limits(text: str) -> tuple[dict[str, float], dict[str, int]]:
    """Values and solver iteration counts from ``precshrink limits`` output."""
    values, iterations = {}, {}
    for line in text.splitlines():
        match = re.match(rf"(\w+)=({_NUMBER})", line)
        if not match:
            continue
        values[match[1]] = float(match[2])
        count = re.search(r"iterations=(\d+)", line)
        if count:
            iterations[match[1]] = int(count[1])
    return values, iterations


class Analysis(Workload):
    """One user session: ``estimate`` on a CSV, then a sweep of ``limits``.

    The data file holds a p x n = 400 x 1200 Gaussian sample with the
    three-block covariance spectrum, drawn from the benchmark seed.
    """

    P, N = 400, 1200

    def __init__(self, seed, out_dir):
        super().__init__(out_dir)
        rng = np.random.default_rng(seed)
        tau = reference.realize(reference.THREE_BLOCK, self.P)
        self.data = np.sqrt(tau)[:, None] * rng.standard_normal((self.P, self.N))
        self.csv = os.path.join(out_dir, "data.csv")
        np.savetxt(self.csv, self.data, delimiter=",", fmt="%.17g")
        self.out = os.path.join(out_dir, "data.precision.csv")
        self.calls = [(s, r, p) for s in LIMIT_SPECTRA for r in LIMIT_RATIOS for p in LIMIT_DIMS]
        self.sessions: list[tuple[str, list[str]]] = []
        self.split: dict[int, tuple[float, float]] = {}  # round -> (estimate, limits) seconds
        self.iterations: dict[str, int] = {}
        self.out_of_support = 0

    def _estimate(self) -> tuple[int, str]:
        return run_cli(["estimate", self.csv, "--target", ESTIMATE_TARGET, "--out", self.out])

    def _limits(self, spectrum, ratio, p) -> tuple[int, str]:
        return run_cli(["limits", "--spectrum", spectrum, "--ratio", repr(ratio),
                        "--p", str(p), "--target", ESTIMATE_TARGET])

    def warmup(self) -> None:
        self._estimate()
        for ratio in LIMIT_RATIOS:
            self._limits("threeblock", ratio, max(LIMIT_DIMS))

    def run_round(self, k: int, threads: int | None = None) -> tuple[int, int]:
        failed = 0
        texts = []
        try:
            t0 = time.perf_counter()
            with self.span("cli.estimate"):
                code, estimate_text = self._estimate()
            failed += code != 0
            t1 = time.perf_counter()
            for call in self.calls:
                with self.span("cli.limits"):
                    code, text = self._limits(*call)
                failed += code != 0
                texts.append(text)
            t2 = time.perf_counter()
        except Exception:  # a failed session is counted, and the run goes on
            self.fail(f"session {k}: {traceback.format_exc(limit=3)}")
            return 1 + len(self.calls), 1 + len(self.calls)
        self.split[k] = (t1 - t0, t2 - t1)
        self.sessions.append((estimate_text, texts))
        return 1 + len(self.calls), failed

    def check(self) -> tuple[int, int]:
        """Compare every session's output with the reference; the operations
        themselves were counted by the rounds, so this adds no attempts."""
        target = 1.0 / reference.realize(reference.PRIOR2, self.P)
        alpha, beta, matrix = reference.bona_fide(self.data, target)
        slack = 1.0 - self.P / self.N
        expected = {call: reference.limits(call[0], call[1], call[2], "prior2")
                    for call in self.calls}
        failed = 0
        first_iterations = None
        for index, (estimate_text, texts) in enumerate(self.sessions):
            match = re.search(rf"alpha=({_NUMBER}) beta=({_NUMBER})", estimate_text)
            if not match or not (reference.close(float(match[1]), alpha)
                                 and reference.close(float(match[2]), beta)):
                failed += 1
                self.fail(f"session {index}: estimate weights {match and match.groups()} "
                          f"!= reference ({alpha!r}, {beta!r})")
            elif not 0.0 < float(match[1]) < slack:
                self.out_of_support += 1
            iterations = {}
            for call, text in zip(self.calls, texts):
                values, counts = parse_limits(text)
                bad = [key for key, value in expected[call].items()
                       if key not in values or not reference.close(values[key], value, 1e-9)]
                if bad:
                    failed += 1
                    self.fail(f"session {index}: limits {call} mismatch in {bad}")
                for key, count in counts.items():
                    iterations[key, call] = count
            if first_iterations is None:
                first_iterations = iterations
            elif iterations != first_iterations:
                failed += 1
                self.fail(f"session {index}: solver iteration counts differ from session 0")
        if first_iterations:
            for (key, _), count in first_iterations.items():
                name = key.removesuffix("_limit")
                self.iterations[name] = self.iterations.get(name, 0) + count
        written = np.loadtxt(self.out, delimiter=",") if os.path.exists(self.out) else matrix + np.inf
        if not np.max(np.abs(written - matrix)) <= reference.RTOL * np.max(np.abs(matrix)):
            failed += 1
            self.fail("estimate output matrix differs from the reference")
        return 0, failed
