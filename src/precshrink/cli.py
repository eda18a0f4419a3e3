"""Command-line entry point: simulate, estimate, limits.

Exit codes: 0 success, 2 usage/config error, 3 numeric failure (out of
memory included).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import configio
from .asymptotics import RootInfo, compute_limit_functionals
from .errors import ConfigError, NumericError, RegimeError
from .estimators import ISOTROPIC_PRECISION, OLSE_PRECISION, SAMPLE_PINV, domain_error
from .estimators import bona_fide_olse, estimate_isotropic_precision
from .linalg import DataMatrix, release_blas_threads, sample_inverse
from .simulation import TARGET_IDENTITY, TARGET_PRECISION_SPECTRUM, ExperimentConfig
from .simulation import builtin_experiments, run_experiment, with_overrides
from .spectral import build_covariance

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

TARGET_HELP = ("identity_over_p, true_precision (limits only), a spectrum (builtin name or file) "
               "as the precision target, or inverse-of:<spectrum> for its inverse")


def _parse_p_grid(text: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"invalid --p-grid {text!r}: {exc}") from exc
    if not grid:
        raise ConfigError(f"invalid --p-grid {text!r}: empty")
    return grid


def _resolve_config(args) -> ExperimentConfig:
    builtins = builtin_experiments()
    if args.config in builtins:
        config = builtins[args.config]
    else:
        config = configio.load_experiment_config(args.config, seed_override=args.seed)
    return with_overrides(
        config,
        replications=args.reps,
        seed=args.seed,
        p_grid=None if args.p_grid is None else _parse_p_grid(args.p_grid),
    )


def cmd_simulate(args) -> int:
    config = _resolve_config(args)
    out = f"{config.name}_results.csv" if args.out is None else args.out
    configio.check_writable(out)
    reports = run_experiment(config, threads=args.threads)
    configio.write_results(out, configio.rows_from_reports(config, reports))
    print(f"experiment {config.name}: ratio={config.ratio:g}, "
          f"reps={config.replications}, seed={config.seed}")
    for report in reports:
        print(f"p={report.p} n={report.n} baseline={report.baseline_id}")
        for entry in report.summaries:
            if entry.status != "ok":
                print(f"  {entry.estimator_id}: skipped ({entry.status.removeprefix('skipped: ')})")
            else:
                print(f"  {entry.estimator_id}: PRIAL={entry.prial_percent:.2f}% "
                      f"mean_loss={entry.mean_loss:.6g}")
    print(f"results written to {out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    flag, mode = (("--identity-case", ISOTROPIC_PRECISION) if args.identity_case else
                  ("--pseudo-inverse", SAMPLE_PINV) if args.pseudo_inverse else
                  (None, OLSE_PRECISION))
    if flag and (args.target is not None or args.clamp):
        raise ConfigError(f"{flag} takes no --target or --clamp")
    spec = None if flag else configio.parse_target(
        TARGET_IDENTITY if args.target is None else args.target, bare=TARGET_PRECISION_SPECTRUM)
    matrix = configio.load_matrix(args.data)
    if args.rows == "observations":
        matrix = matrix.T
    data = DataMatrix(matrix)
    outside = domain_error(mode, data.p, data.n)
    if flag and outside:
        outside = RegimeError(f"{flag} does not apply at p = {data.p}, n = {data.n}: {outside}")
    elif isinstance(outside, RegimeError) and data.p >= data.n:
        isotropic = ("--identity-case (isotropic population) or "
                     if domain_error(ISOTROPIC_PRECISION, data.p, data.n) is None else "")
        outside = RegimeError("p >= n: no feasible shrinkage estimator exists for a general "
                              f"covariance; pass {isotropic}--pseudo-inverse (raw)")
    if outside:  # exit 2, or 3 for the near-singular band's NearSingularRegimeError
        raise outside
    target = spec.resolve(data.p)[0] if spec else None
    out = f"{os.path.splitext(args.data)[0]}.precision.csv" if args.out is None else args.out
    configio.check_writable(out)
    # The two flags are refused below p = n, so there stats is a SampleStats.
    stats = sample_inverse(data, center=args.center)
    if mode == ISOTROPIC_PRECISION:
        scale = estimate_isotropic_precision(stats)
        result = scale * np.eye(stats.p)
        message = f"isotropic precision scale estimate: {scale:.10g}"
    elif mode == SAMPLE_PINV:
        result = stats.inverse
        message = "raw pseudo-inverse written (no shrinkage applies for p >= n)"
    else:
        estimate = bona_fide_olse(stats, target, clamp=args.clamp)
        result = estimate.matrix
        message = (f"target={spec.name} "
                   f"alpha={estimate.weights.alpha:.10g} beta={estimate.weights.beta:.10g}")
    release_blas_threads()  # the linear algebra is done; writing needs no BLAS workers
    configio.write_matrix(out, result)
    print(f"p={stats.p} n={stats.n} ratio={stats.ratio:.6g} "
          f"regime={'pseudo' if flag else 'invertible'}")
    print(message)
    print(f"precision estimate written to {out}")
    return EXIT_OK


def _print_root(name: str, root: RootInfo) -> None:
    print(f"{name}={root.value:.17g} "
          f"(residual={root.residual:.3e}, iterations={root.iterations})")


def cmd_limits(args) -> int:
    spec = configio.load_spectrum(args.spectrum)
    target_spec = None if args.target is None else configio.parse_target(
        args.target, bare=TARGET_PRECISION_SPECTRUM)
    truth = build_covariance(spec, args.p)
    target = target_spec.resolve(args.p, truth)[0] if target_spec else None
    limits = compute_limit_functionals(truth, args.ratio, spec=spec, target=target)
    print(f"ratio={limits.ratio:.17g} (evaluated at p={args.p})")
    if limits.inverse_frobenius is not None:
        print(f"inverse_frobenius_limit={limits.inverse_frobenius:.17g}")
    if limits.dual is not None:
        _print_root("dual_trace_limit", limits.dual)
        print(f"dual_frobenius_limit={limits.dual_frobenius:.17g}")
        print(f"pinv_trace_limit={limits.dual.value / limits.ratio:.17g}")
        print(f"pinv_frobenius_limit={limits.dual_frobenius / limits.ratio:.17g}")
    if limits.target_dual is not None:
        _print_root("target_dual_trace_limit", limits.target_dual)
    if limits.weights is not None:
        print(f"alpha={limits.weights.alpha:.17g}")
        print(f"beta={limits.weights.beta:.17g}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="precshrink",
        description="Linear shrinkage estimation of large-dimensional precision matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment and write a CSV")
    sim.add_argument("config", help="builtin experiment name or config file path")
    sim.add_argument("--reps", type=int, default=None, help="override replication count")
    sim.add_argument("--seed", type=int, default=None, help="override the random seed")
    sim.add_argument("--p-grid", default=None, help="comma-separated dimensions, e.g. 20,40,60")
    sim.add_argument("--threads", type=int, default=1,
                     help="worker threads for replications (at least 1; capped at the usable CPUs)")
    sim.add_argument("--out", default=None, help="output CSV path")
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="estimate a precision matrix from a data file")
    est.add_argument("data", help="CSV matrix file")
    est.add_argument(
        "--rows",
        choices=("variables", "observations"),
        default="variables",
        help="what the file rows represent (default: variables)",
    )
    est.add_argument("--target", default=None,
                     help=f"{TARGET_HELP} (default: identity_over_p; bona fide path only)")
    est.add_argument("--center", action="store_true", help="subtract variable means")
    est.add_argument("--clamp", action="store_true",
                     help="project the shrinkage weight onto its support")
    pseudo = est.add_mutually_exclusive_group()
    pseudo.add_argument("--identity-case", action="store_true",
                        help="p > n: assume an isotropic population covariance")
    pseudo.add_argument("--pseudo-inverse", action="store_true",
                        help="p >= n: emit the raw pseudo-inverse")
    est.add_argument("--out", default=None, help="output CSV path")
    est.set_defaults(func=cmd_estimate)

    lim = sub.add_parser("limits", help="print deterministic equivalents for a spectrum")
    lim.add_argument("--spectrum", required=True, help="builtin spectrum name or file")
    lim.add_argument("--ratio", "--c", dest="ratio", type=float, required=True,
                     help="concentration ratio p/n (must differ from 1)")
    lim.add_argument("--target", default=None,
                     help=f"{TARGET_HELP}; with one, the limiting alpha and beta are printed")
    lim.add_argument("--p", type=int, default=100,
                     help="dimension at which finite-p quantities are realized")
    lim.set_defaults(func=cmd_limits)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # numpy names the size it could not allocate
        print(f"numeric failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # ConfigError and RegimeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
