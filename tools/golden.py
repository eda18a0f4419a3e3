"""Write the outputs that an arithmetic-preserving change must keep byte for byte.

Usage, from anywhere:

    python3 tools/golden.py OUT_DIR

The package is imported from ``src/`` of the checkout this script sits in,
and every command runs in-process through ``precshrink.cli.main``:

1. ``limits.txt``: 90 ``limits`` calls, spectra {identity, threeblock, prior4}
   x ratios {0.5, 1.5, 3} x p {300, 1000} x targets {none, identity_over_p,
   inverse-of:prior2, prior2, true_precision}; for each, its argv, exit code
   and stdout. These run first, because ``simulate`` sets BLAS to one
   thread for the rest of the process.
2. ``threads<k>/<fig>.csv``: ``simulate <fig> --reps 20 --seed 11
   --threads <k>`` for fig1, fig2, fig3a, fig3b, fig4 and fig5, at k = 1 and 2.

Run it on two checkouts with the same environment, then compare with
``diff -r OUT_A OUT_B``; no output means the outputs are identical.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SPECTRA = ("identity", "threeblock", "prior4")
RATIOS = ("0.5", "1.5", "3")
DIMENSIONS = ("300", "1000")
TARGETS = (None, "identity_over_p", "inverse-of:prior2", "prior2", "true_precision")
FIGURES = ("fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5")
THREADS = (1, 2)


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
    with open(os.path.join(out_dir, "limits.txt"), "w", encoding="utf-8") as log:
        for spectrum, ratio, p, target in itertools.product(SPECTRA, RATIOS, DIMENSIONS, TARGETS):
            args = ["limits", "--spectrum", spectrum, "--ratio", ratio, "--p", p]
            if target is not None:
                args += ["--target", target]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(args)
            log.write(f"$ {' '.join(args)}\nexit {code}\n{stdout.getvalue()}\n")
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
