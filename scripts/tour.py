#!/usr/bin/env python3
"""Write every deterministic output of the simplex-spectra CLI into OUTDIR.

    python3 scripts/tour.py OUTDIR

The package is imported from the ``src/`` of the checkout that holds this
script, so the tours of two checkouts compare with ``diff -r``. Every
command runs in process, from inside OUTDIR, with ``--no-timestamp`` where
it has one; ``stdout.txt`` logs each command line, its exit code and what
it printed. The tour runs the 24 ``conjecture`` cells n = 2..4, m = 3..6,
seeds 0 and 1, ``sweep`` as CSV and JSON, ``eig solve`` and ``eig
classify`` on the simplex and odeco (3,4) tensors, ``eig enumerate2d`` on
the simplex (2,3), (2,4) and (2,5) tensors, and ``frame build`` and
``frame certify`` on the simplex and orthonormal frames in R^3.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from simplex_spectra.cli import main  # noqa: E402


def commands():
    for n in (2, 3, 4):
        for m in (3, 4, 5, 6):
            for seed in (0, 1):
                yield ["conjecture", "--n", str(n), "--m", str(m),
                       "--seed", str(seed), "--no-timestamp",
                       "--out", f"conjecture_{n}_{m}_seed{seed}.json"]
    for fmt in ("csv", "json"):
        yield ["sweep", "--format", fmt, "--no-timestamp",
               "--out", f"sweep.{fmt}"]
    for kind in ("simplex", "odeco"):
        tensor, pairs = f"{kind}_3_4.json", f"{kind}_3_4_pairs.json"
        yield ["tensor", "build", "--kind", kind, "--n", "3", "--m", "4",
               "--out", tensor]
        yield ["eig", "solve", "--tensor", tensor, "--starts", "200",
               "--seed", "0", "--out", pairs]
        yield ["eig", "classify", "--tensor", tensor, "--pairs", pairs,
               "--out", f"{kind}_3_4_reports.json"]
    for m in (3, 4, 5):
        tensor = f"simplex_2_{m}.json"
        yield ["tensor", "build", "--n", "2", "--m", str(m), "--out", tensor]
        yield ["eig", "enumerate2d", "--tensor", tensor,
               "--out", f"simplex_2_{m}_pairs.json"]
    for kind in ("simplex", "orthonormal"):
        frame = f"frame_{kind}_3.json"
        yield ["frame", "build", "--kind", kind, "--n", "3", "--out", frame]
        yield ["frame", "certify", "--in", frame]


def tour(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    with open("stdout.txt", "w", encoding="utf-8") as log:
        for argv in commands():
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed), \
                    contextlib.redirect_stderr(printed):
                code = main(argv)
            log.write(f"$ {' '.join(argv)}\n{printed.getvalue()}"
                      f"exit {code}\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    tour(Path(sys.argv[1]))
