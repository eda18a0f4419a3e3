"""Write the outputs that an arithmetic-preserving change must keep byte for byte.

Usage, from anywhere:

    python3 tools/golden.py OUT_DIR

The package is imported from ``src/`` of the checkout this script sits in,
and every command runs in-process through ``precshrink.cli.main``:

1. ``estimate/``: fixed-seed data files (``tall.csv``, 40 x 120; its
   transpose ``tall-observations.csv``; ``wide.csv``, 60 x 30), then seven
   ``estimate`` calls run inside that folder: the bona fide estimator with
   ``--target inverse-of:prior2``, with ``--clamp``, with ``--center`` and with
   ``--rows observations``; ``--identity-case`` and ``--pseudo-inverse`` on the
   wide file; and the wide file with no flag, which is refused. For each,
   ``estimate.txt`` holds its argv, exit code and stdout, and the folder its
   output file.
2. ``limits.txt``: 90 ``limits`` calls, spectra {identity, threeblock, prior4}
   x ratios {0.5, 1.5, 3} x p {300, 1000} x targets {none, identity_over_p,
   inverse-of:prior2, prior2, true_precision}; for each, its argv, exit code
   and stdout.
3. ``threads<k>/<fig>.csv``: ``simulate <fig> --reps 20 --seed 11
   --threads <k>`` for fig1, fig2, fig3a, fig3b, fig4 and fig5, at k = 1 and 2.

``estimate`` and ``limits`` run first, at the default BLAS thread count,
because ``simulate`` sets BLAS to one thread for the rest of the process.

Run it on two checkouts with the same environment, then compare with
``diff -r OUT_A OUT_B``; no output means the outputs are identical.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import sys

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SPECTRA = ("identity", "threeblock", "prior4")
RATIOS = ("0.5", "1.5", "3")
DIMENSIONS = ("300", "1000")
TARGETS = (None, "identity_over_p", "inverse-of:prior2", "prior2", "true_precision")
FIGURES = ("fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5")
THREADS = (1, 2)
ESTIMATES = (
    ("tall.csv", "--target", "inverse-of:prior2", "--out", "prior2.csv"),
    ("tall.csv", "--clamp", "--out", "clamp.csv"),
    ("tall.csv", "--center", "--out", "center.csv"),
    ("tall-observations.csv", "--rows", "observations", "--out", "observations.csv"),
    ("wide.csv", "--identity-case", "--out", "identity-case.csv"),
    ("wide.csv", "--pseudo-inverse", "--out", "pseudo-inverse.csv"),
    ("wide.csv", "--out", "refused.csv"),
)


def run_logged(cli, args: list[str], log) -> None:
    """Run one command in-process and log its argv, exit code and stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    log.write(f"$ {' '.join(args)}\nexit {code}\n{stdout.getvalue()}\n")


def write_estimates(cli, folder: str) -> None:
    """Write the fixed-seed data files and run every ``estimate`` call in ``folder``."""
    os.makedirs(folder, exist_ok=True)
    tall = np.random.default_rng(7).standard_normal((40, 120))
    wide = np.random.default_rng(8).standard_normal((60, 30))
    with contextlib.chdir(folder), open("estimate.txt", "w", encoding="utf-8") as log:
        for name, values in (("tall.csv", tall), ("tall-observations.csv", tall.T),
                             ("wide.csv", wide)):
            np.savetxt(name, values, delimiter=",", fmt="%.17g")
        for args in ESTIMATES:
            run_logged(cli, ["estimate", *args], log)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/golden.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = argv[0]
    sys.path.insert(0, SRC)
    import precshrink
    from precshrink import cli

    if not os.path.abspath(precshrink.__file__).startswith(SRC + os.sep):
        print(f"error: precshrink imported from {precshrink.__file__}, not {SRC}", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    write_estimates(cli, os.path.join(out_dir, "estimate"))
    with open(os.path.join(out_dir, "limits.txt"), "w", encoding="utf-8") as log:
        for spectrum, ratio, p, target in itertools.product(SPECTRA, RATIOS, DIMENSIONS, TARGETS):
            args = ["limits", "--spectrum", spectrum, "--ratio", ratio, "--p", p]
            if target is not None:
                args += ["--target", target]
            run_logged(cli, args, log)
    for threads in THREADS:
        folder = os.path.join(out_dir, f"threads{threads}")
        os.makedirs(folder, exist_ok=True)
        for figure in FIGURES:
            args = ["simulate", figure, "--reps", "20", "--seed", "11", "--threads", str(threads),
                    "--out", os.path.join(folder, f"{figure}.csv")]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(args)
            if code != 0:
                print(f"error: {' '.join(args)} exited {code}", file=sys.stderr)
                return 1
    print(f"golden outputs written to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
