"""The benchmark's workloads and the checks on every output they produce.

A workload is a setup step, run once per process, and a list of cells. One
pass runs every cell in order through ``simplex_spectra.cli.main``. Each
cell names the file the CLI writes and a check that reads it back with the
standard ``json`` module and compares it with references computed here, apart
from the program: the closed forms at a simplex frame vector and a frame whose
Gram matrix is verified.

``found_pairs`` is never checked. The (4,6) inventory counts points of a
non-isolated family of eigenvectors (546 today, above the Cartwright-Sturmfels
bound of 156 isolated pairs), and a fix is expected to change it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

from simplex_spectra import cli
from simplex_spectra.frames import regular_simplex_frame
from simplex_spectra.harness import FRAME_ALIGNMENT_TOL

# CLI defaults of ``conjecture`` that the count self-checks rely on.
CONJECTURE_STARTS = 2000
NEWTON_SEEDS = 2000

LAMBDA_TOL = 1e-10
RHO_TOL = 1e-8

SWEEP_N = range(2, 7)
SWEEP_M = range(3, 7)


@dataclass(frozen=True)
class Cell:
    """One CLI call of a pass and the check of the file it writes."""

    name: str
    argv: List[str]
    out: Path
    check: Callable[[int, Path], List[str]]


@dataclass(frozen=True)
class ClosedForm:
    """Closed forms at a simplex frame vector, derived apart from the
    package: lambda = 1 + n/(-n)^m and rho = (n+1)(m-1)/(n^{m-1} -+ 1)."""

    lam: Fraction
    rho: Fraction

    @classmethod
    def at(cls, n: int, m: int) -> "ClosedForm":
        sign = -1 if m % 2 else 1
        return cls(lam=1 + Fraction(n, (-n) ** m),
                   rho=Fraction((n + 1) * (m - 1), n ** (m - 1) + sign))

    @property
    def verdict(self) -> str:
        if self.rho < 1:
            return "robust"
        return "boundary" if self.rho == 1 else "not_robust"


def frame_vectors(n: int) -> np.ndarray:
    """The package's simplex frame, after checking it is one: n+1 unit
    columns in R^n with pairwise inner products -1/n."""
    vectors = np.asarray(regular_simplex_frame(n).vectors, dtype=float)
    gram = vectors.T @ vectors
    expected = np.full((n + 1, n + 1), -1.0 / n)
    np.fill_diagonal(expected, 1.0)
    if vectors.shape != (n, n + 1) or not np.allclose(gram, expected,
                                                      rtol=0, atol=1e-12):
        raise ValueError(f"regular_simplex_frame({n}) is not a simplex frame")
    return vectors


def _angle(a: np.ndarray, b: np.ndarray) -> float:
    # chord form: arccos cannot resolve angles below ~1.5e-8
    return 2.0 * math.asin(min(1.0, 0.5 * float(np.linalg.norm(a - b))))


def _read(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def conjecture_check(n: int, m: int, seed: int) -> Callable:
    frame = frame_vectors(n)
    closed = ClosedForm.at(n, m)
    candidates = [frame[:, j] for j in range(n + 1)]
    if m % 2 == 0:
        candidates += [-w for w in candidates]

    def check(rc: int, out: Path) -> List[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        report = _read(out)
        problems = []
        if (report["n"], report["m"], report["seed"]) != (n, m, seed):
            problems.append("report is for another cell")
        if report["verdict"] != "consistent":
            problems.append(f"verdict {report['verdict']!r}")
        if report["frame_verdict_expected"] != closed.verdict:
            problems.append(f"expected verdict "
                            f"{report['frame_verdict_expected']!r}, closed "
                            f"form gives {closed.verdict!r}")
        if len(report["frame_verdicts"]) != n + 1 or any(
                v != report["frame_verdict_expected"]
                for v in report["frame_verdicts"]):
            problems.append(f"frame verdicts {report['frame_verdicts']}")
        robust = report["robust_pairs"]
        for rep in robust:
            v = np.asarray(rep["pair"]["v"], dtype=float)
            angle = min(_angle(v, w) for w in candidates)
            if angle > FRAME_ALIGNMENT_TOL:
                problems.append(f"robust pair {angle:.3e} rad from the frame")
        if closed.verdict == "robust":
            if len(robust) != n + 1:
                problems.append(f"{len(robust)} robust pairs, expected {n + 1}")
            for rep in robust:
                if abs(rep["pair"]["lambda"] - float(closed.lam)) > LAMBDA_TOL:
                    problems.append(f"robust lambda {rep['pair']['lambda']!r}"
                                    f" != {float(closed.lam)!r}")
                if rep["rho"] is None or abs(rep["rho"] - float(closed.rho)) \
                        > RHO_TOL:
                    problems.append(f"robust rho {rep['rho']!r} != "
                                    f"{float(closed.rho)!r}")
        return problems

    return check


def sweep_check(rc: int, out: Path) -> List[str]:
    if rc != 0:
        return [f"exit code {rc} (--strict)"]
    rows = _read(out)["rows"]
    problems = []
    cells = [(row["n"], row["m"]) for row in rows]
    if cells != [(n, m) for n in SWEEP_N for m in SWEEP_M]:
        problems.append(f"sweep rows cover {cells}")
    for row in rows:
        closed = ClosedForm.at(row["n"], row["m"])
        label = f"(n={row['n']}, m={row['m']})"
        if abs(row["lambda_closed"] - float(closed.lam)) > LAMBDA_TOL:
            problems.append(f"{label}: lambda_closed {row['lambda_closed']!r}")
        if abs(row["rho_closed"] - float(closed.rho)) > RHO_TOL \
                or abs(row["rho_numeric"] - float(closed.rho)) > RHO_TOL:
            problems.append(f"{label}: rho {row['rho_closed']!r} / "
                            f"{row['rho_numeric']!r}")
        if not row["robust_closed"] == row["robust_numeric"] == closed.verdict:
            problems.append(f"{label}: verdicts {row['robust_closed']!r} / "
                            f"{row['robust_numeric']!r}")
    return problems


def classify_check(pairs: Sequence[dict]) -> Callable:
    lams = [p["lambda"] for p in pairs]

    def check(rc: int, out: Path) -> List[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        reports = _read(out)["reports"]
        if len(reports) != len(lams):
            return [f"{len(reports)} reports for {len(lams)} pairs"]
        if [r["pair"]["lambda"] for r in reports] != lams:
            return ["reports do not follow the input pairs"]
        return []

    return check


def _conjecture_cell(work: Path, n: int, m: int, seed: int) -> Cell:
    out = work / f"conjecture-n{n}-m{m}.json"
    argv = ["conjecture", "--n", str(n), "--m", str(m), "--seed", str(seed),
            "--no-timestamp", "--out", str(out)]
    return Cell(f"conjecture n={n} m={m}", argv, out,
                conjecture_check(n, m, seed))


def _call(argv: List[str]) -> None:
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"setup step {argv[:2]} exited {rc}")


def setup_search_power(work: Path, seed: int) -> List[Cell]:
    return [_conjecture_cell(work, 4, 3, seed)]


def setup_search_polish(work: Path, seed: int) -> List[Cell]:
    return [_conjecture_cell(work, 3, 3, seed),
            _conjecture_cell(work, 4, 6, seed)]


def setup_report_cli(work: Path, seed: int) -> List[Cell]:
    tensor, pairs = work / "tensor-n3-m4.json", work / "pairs-n3-m4.json"
    _call(["tensor", "build", "--kind", "simplex", "--n", "3", "--m", "4",
           "--out", str(tensor)])
    _call(["eig", "solve", "--tensor", str(tensor), "--starts", "200",
           "--seed", str(seed), "--out", str(pairs)])
    sweep_out = work / "sweep.json"
    cells = [Cell("sweep", ["sweep", "--n", "2..6", "--m", "3..6",
                            "--format", "json", "--strict", "--no-timestamp",
                            "--out", str(sweep_out)], sweep_out, sweep_check)]
    for m in SWEEP_M:
        out = work / f"conjecture-n2-m{m}.json"
        cells.append(Cell(f"conjecture n=2 m={m}",
                          ["conjecture", "--n", "2", "--m", str(m),
                           "--no-timestamp", "--out", str(out)],
                          out, conjecture_check(2, m, 0)))
    reports = work / "reports-n3-m4.json"
    cells.append(Cell("eig classify",
                      ["eig", "classify", "--tensor", str(tensor), "--pairs",
                       str(pairs), "--out", str(reports)],
                      reports, classify_check(_read(pairs)["pairs"])))
    return cells


WORKLOADS: Dict[str, Callable[[Path, int], List[Cell]]] = {
    "search_power": setup_search_power,
    "search_polish": setup_search_polish,
    "report_cli": setup_report_cli,
}
