"""Write the outputs that an arithmetic-preserving change must keep byte for byte.

Usage, from anywhere:

    python3 tools/golden.py OUT_DIR
    python3 tools/golden.py --compare OUT_A OUT_B

The package is imported from ``src/`` of the checkout this script sits in,
and every command runs in-process through ``precshrink.cli.main``:

1. ``estimate/``: fixed-seed data files (``tall.csv``, 40 x 120; its
   transpose ``tall-observations.csv``; ``wide.csv``, 60 x 30; and
   ``spellings.csv``, 40 x 120 with a byte-order mark and CRLF endings, whose
   cells mix integers, exact zeros, ``-0``, ``+x``, ``.5`` and ``5.``
   spellings and padding, so that every line is read cell by cell), then
   eight ``estimate`` calls run inside that folder: the bona fide estimator
   with ``--target inverse-of:prior2``, with ``--clamp``, with ``--center``
   and with ``--rows observations``; ``--identity-case`` and
   ``--pseudo-inverse`` on the wide file; the wide file with no flag, which is
   refused; and the bona fide estimator on the spellings file. For each,
   ``estimate.txt`` holds its argv, exit code and stdout, and the folder its
   output file. The output files hold ``configio.write_matrix``'s shortest
   round-trip text; when that writer replaced ``np.savetxt(fmt="%.17g")``
   their text changed once, with the same doubles, and the new text is the
   one to keep.
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

A change that alters the arithmetic of ``estimate`` compares with
``--compare OUT_A OUT_B`` instead. It requires byte identity for
``limits.txt``, ``estimate/estimate.txt`` and every file under
``threads*/``. For each ``estimate/*.csv`` matrix whose bytes differ it
prints the largest entrywise difference relative to the largest magnitude
of OUT_A's matrix, ``max|B - A| / max|A|``, both read with
``configio.load_matrix``. It exits 1 when a file that must be
byte-identical differs, when a file is missing on either side or when a
matrix changes shape, and 0 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import re
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
    ("spellings.csv", "--out", "spellings.precision.csv"),
)


def spelled(value: float, style: int) -> str:
    """One cell of ``spellings.csv``: ``value`` written in spelling ``style``."""
    whole = round(4 * value)
    text = (f"{value:.17g}", str(whole), "0", "-0", f"+{abs(value):.17g}",
            re.sub(r"\b0\.", ".", f"{value:.6f}"), f"{whole}.")[style]
    return f" {text}\t" if style % 2 else text


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
        styles = np.random.default_rng(9).integers(0, 7, size=tall.shape)
        with open("spellings.csv", "w", encoding="utf-8-sig", newline="\r\n") as handle:
            for values, row in zip(tall, styles):
                handle.write(",".join(map(spelled, values, row)) + "\n")
        for args in ESTIMATES:
            run_logged(cli, ["estimate", *args], log)


def _files(root: str, folder: str) -> set[str]:
    """Paths of the files under ``root/folder``, relative to ``root``."""
    return {os.path.relpath(os.path.join(where, name), root)
            for where, _, names in os.walk(os.path.join(root, folder)) for name in names}


def compare(out_a: str, out_b: str) -> int:
    """Print the byte identity of the exact outputs and the largest relative
    difference of each estimate matrix; 1 if an exact output differs."""
    from precshrink import configio

    for root in (out_a, out_b):
        if not os.path.isdir(root):
            print(f"error: {root} is not a folder", file=sys.stderr)
            return 2
    exact = {"limits.txt", os.path.join("estimate", "estimate.txt")}
    for root in (out_a, out_b):
        exact |= {path for folder in os.listdir(root) if folder.startswith("threads")
                  for path in _files(root, folder)}
    matrices = {path for root in (out_a, out_b) for path in _files(root, "estimate")
                if path.endswith(".csv")}
    failed = 0
    for path in sorted(exact | matrices):
        sides = [os.path.join(root, path) for root in (out_a, out_b)]
        if not all(map(os.path.isfile, sides)):
            failed += 1
            print(f"{'missing':9s}  {path}")
            continue
        with open(sides[0], "rb") as a, open(sides[1], "rb") as b:
            if a.read() == b.read():
                print(f"{'identical':9s}  {path}")
                continue
        if path in exact:
            failed += 1
            print(f"{'DIFFERS':9s}  {path}")
            continue
        a, b = (configio.load_matrix(side) for side in sides)
        if a.shape != b.shape:
            failed += 1
            print(f"{'SHAPE':9s}  {path}  {a.shape} -> {b.shape}")
            continue
        scale = float(np.max(np.abs(a)))
        relative = float(np.max(np.abs(b - a))) / (scale or 1.0)
        print(f"{relative:9.2e}  {path}")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if not (len(argv) == 1 or len(argv) == 3 and argv[0] == "--compare"):
        print("usage: python3 tools/golden.py OUT_DIR | --compare OUT_A OUT_B", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import precshrink
    from precshrink import cli

    if not os.path.abspath(precshrink.__file__).startswith(SRC + os.sep):
        print(f"error: precshrink imported from {precshrink.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if argv[0] == "--compare":
        return compare(*argv[1:])
    out_dir = argv[0]
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
