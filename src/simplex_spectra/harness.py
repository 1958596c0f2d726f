"""Experiment drivers: (n, m) sweeps that pit the closed forms against the
numerics, conjecture checks over full eigenpair inventories, and CSV/JSON
report emission."""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import astuple, dataclass, fields
from typing import List, Optional, Sequence

import numpy as np

from . import jsonio
from .eigensolve import (
    RefinementError,
    SolveSummary,
    _merge,
    _newton_starts,
    angle_between,
    enumerate_2d,
    make_eigenpair,
    multi_start,
    newton_refine,
    sphere_grid,
)
from .frames import Frame, frame_tensor, regular_simplex_frame
from .stability import (
    ROB_ROBUST,
    StabilityReport,
    classify_pair,
    closed_form_verdict,
    frame_vector_prediction,
    report_to_payload,
)
from .tensors import SymmetricTensor

VERDICT_CONSISTENT = "consistent"
VERDICT_VIOLATION = "violation"

ROBUST_THRESHOLD_SUM = 7  # robust frame vectors appear exactly when n + m >= 7
FRAME_ALIGNMENT_TOL = 1e-6
RHO_AGREEMENT_TOL = 1e-8
# power-iteration cap for each random start of conjecture_check
POWER_MAX_ITER = 400
# random power starts and sphere-grid Newton seeds of conjecture_check
CONJECTURE_STARTS = 2000
NEWTON_SEEDS = 2000


@dataclass(frozen=True)
class SweepRow:
    """One (n, m) cell: closed forms next to the numerically computed values."""

    n: int
    m: int
    lambda_closed: float
    rho_closed: float
    rho_numeric: float
    robust_closed: str
    robust_numeric: str
    n_plus_m: int
    threshold_pass: bool


SWEEP_CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


def sweep(n_values: Sequence[int], m_values: Sequence[int]) -> List[SweepRow]:
    """Evaluate every (n, m) cell; no randomness is involved anywhere.

    The numeric columns are computed at the first frame vector w_1 (every
    frame vector is equivalent under the frame's symmetry group).
    """
    rows = []
    for n in sorted(set(int(x) for x in n_values)):
        frame = regular_simplex_frame(n)
        for m in sorted(set(int(x) for x in m_values)):
            prediction = frame_vector_prediction(n, m)
            tensor = frame_tensor(frame, m)
            pair = make_eigenpair(tensor, frame.vectors[:, 0])
            report = classify_pair(tensor, pair)
            rows.append(SweepRow(
                n=n,
                m=m,
                lambda_closed=float(prediction.lam),
                rho_closed=float(prediction.rho),
                rho_numeric=float(report.rho),
                robust_closed=closed_form_verdict(prediction.rho),
                robust_numeric=report.robust,
                n_plus_m=n + m,
                threshold_pass=bool(n + m >= ROBUST_THRESHOLD_SUM),
            ))
    return rows


def validate_sweep_row(row: SweepRow) -> List[str]:
    """Internal consistency checks for one row; returns violation messages."""
    problems = []
    if abs(row.rho_numeric - row.rho_closed) > RHO_AGREEMENT_TOL:
        problems.append(
            f"(n={row.n}, m={row.m}): |rho_numeric - rho_closed| = "
            f"{abs(row.rho_numeric - row.rho_closed):.3e} exceeds {RHO_AGREEMENT_TOL}"
        )
    # the threshold law is stated for n >= 2; the line n = 1 has rho = 0
    if row.n >= 2 and row.robust_closed != "boundary":
        if (row.robust_closed == ROB_ROBUST) != row.threshold_pass:
            problems.append(
                f"(n={row.n}, m={row.m}): closed-form verdict "
                f"{row.robust_closed!r} disagrees with the n+m >= "
                f"{ROBUST_THRESHOLD_SUM} threshold"
            )
    if row.robust_numeric != row.robust_closed:
        problems.append(
            f"(n={row.n}, m={row.m}): numeric verdict {row.robust_numeric!r} "
            f"!= closed-form verdict {row.robust_closed!r}"
        )
    return problems


def frame_alignment_angle(v: np.ndarray, frame: Frame, order: int) -> float:
    """Smallest angle from v to a frame vector; sign-blind for even order,
    where v and -v are the same eigenvector class."""
    v = np.asarray(v, dtype=float)
    best = math.pi
    for j in range(frame.count):
        w = frame.vectors[:, j]
        a = angle_between(v, w)
        if order % 2 == 0:
            a = min(a, angle_between(v, -w))
        best = min(best, a)
    return best


def _inventory(tensor: SymmetricTensor, starts: int, seed: int,
               max_iter: int, grid_points: int) -> SolveSummary:
    """The eigenpairs of ``eig solve``, and of conjecture_check at n >= 3:
    multi_start's power witness, at most ``max_iter`` steps a start, and
    Newton from the ``grid_points`` rows of sphere_grid (none in dimension
    1), which reaches repelling pairs too, merged by _merge. A witness pair
    weighs its basin count and a grid pair 0, so a start counts toward the
    representative its endpoint was merged into; a grid-only pair counts 0."""
    witness = multi_start(tensor, starts=starts, seed=seed, max_iter=max_iter)
    found = list(witness.pairs)
    grid = sphere_grid(tensor.dim, grid_points) if tensor.dim > 1 else []
    for start in _newton_starts(tensor, grid):
        try:
            found.append(newton_refine(tensor, start))
        except RefinementError:
            continue
    weights = witness.basin_counts + [0] * (len(found) - len(witness.pairs))
    pairs, counts = _merge(found, weights)
    return SolveSummary(pairs, counts, witness.failures)


@dataclass(eq=False)
class ConjectureReport:
    """Outcome of one conjecture check: the inventory of eigenpairs found,
    which of them are robust, how those align with the frame, and whether
    the frame vectors themselves classify as the closed forms predict."""

    n: int
    m: int
    found_pairs: int
    robust_pairs: List[StabilityReport]
    frame_alignment: List[float]
    frame_verdicts: List[str]
    frame_verdict_expected: str
    verdict: str
    violation: Optional[dict]
    heuristic: bool
    isotropic: bool
    seed: int


def conjecture_check(n: int, m: int, starts: int = CONJECTURE_STARTS,
                     seed: int = 0,
                     newton_seeds: int = NEWTON_SEEDS) -> ConjectureReport:
    """Check that every robust eigenpair of the simplex tensor is a frame
    vector, and that the frame vectors classify as predicted.

    n = 2 uses enumerate_2d, the real roots of one binary form, so the
    inventory is complete and the verdict is an actual proof at this scale.
    For n >= 3 the inventory is _inventory's, from ``starts`` random power
    starts, at most POWER_MAX_ITER steps each, and ``newton_seeds`` sphere
    grid points: a heuristic and bounded-effort one, as the report says.
    The default NEWTON_SEEDS grid seeds find every isolated pair of the
    n = 3, 4 cells; a small grid can miss repelling pairs, as at (3,3),
    where every start cycles: 5 seeds find 5 of its 7 pairs, and 10 seeds
    or more find all 7.
    """
    if not 2 <= n <= 4:
        raise ValueError("conjecture check is tuned for n in 2..4")
    if not 3 <= m <= 6:
        raise ValueError("conjecture check is tuned for m in 3..6")
    frame = regular_simplex_frame(n)
    tensor = frame_tensor(frame, m)
    isotropic = False
    if n == 2:
        enumeration = enumerate_2d(tensor)
        pairs = enumeration.pairs
        isotropic = enumeration.isotropic
        heuristic = False
    else:
        pairs = _inventory(tensor, starts, seed, POWER_MAX_ITER,
                           newton_seeds).pairs
        heuristic = True

    reports = [classify_pair(tensor, p) for p in pairs]
    robust = [r for r in reports if r.robust == ROB_ROBUST]
    alignment = [frame_alignment_angle(r.pair.v, frame, m) for r in robust]

    prediction = frame_vector_prediction(n, m)
    expected = closed_form_verdict(prediction.rho)
    frame_verdicts = []
    for j in range(frame.count):
        fp = make_eigenpair(tensor, frame.vectors[:, j])
        frame_verdicts.append(classify_pair(tensor, fp).robust)

    violation = None
    for rep, angle in zip(robust, alignment):
        if angle > FRAME_ALIGNMENT_TOL:
            violation = {
                "reason": "robust eigenpair away from every frame vector",
                "pair": report_to_payload(rep),
                "alignment": angle,
            }
            break
    if violation is None:
        for j, verdict in enumerate(frame_verdicts):
            if verdict != expected:
                violation = {
                    "reason": (
                        f"frame vector {j} classified {verdict!r}, closed form "
                        f"predicts {expected!r}"
                    ),
                    "pair": None,
                    "alignment": 0.0,
                }
                break

    return ConjectureReport(
        n=n,
        m=m,
        found_pairs=len(pairs),
        robust_pairs=robust,
        frame_alignment=alignment,
        frame_verdicts=frame_verdicts,
        frame_verdict_expected=expected,
        verdict=VERDICT_CONSISTENT if violation is None else VERDICT_VIOLATION,
        violation=violation,
        heuristic=heuristic,
        isotropic=isotropic,
        seed=seed,
    )


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def sweep_to_payload(rows: Sequence[SweepRow],
                     include_timestamp: bool = True) -> dict:
    payload = {
        "rows": [dict(zip(SWEEP_CSV_COLUMNS, astuple(r))) for r in rows]
    }
    if include_timestamp:
        payload["timestamp"] = _timestamp()
    return payload


def conjecture_to_payload(report: ConjectureReport,
                          include_timestamp: bool = True) -> dict:
    payload = {f.name: getattr(report, f.name) for f in fields(report)}
    payload["robust_pairs"] = [report_to_payload(r) for r in report.robust_pairs]
    if include_timestamp:
        payload["timestamp"] = _timestamp()
    return payload


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def emit_report(rows, fmt: str, path, include_timestamp: bool = True) -> None:
    """Write sweep rows to ``path`` as CSV or JSON."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    if fmt == "json":
        jsonio.dump(sweep_to_payload(rows, include_timestamp), path)
        return
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for r in rows:
            writer.writerow([_csv_cell(x) for x in astuple(r)])
