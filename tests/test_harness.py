import csv
import json
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from simplex_spectra import (
    ROB_BOUNDARY,
    ROB_NOT_ROBUST,
    ROB_ROBUST,
    SweepRow,
    conjecture_check,
    emit_report,
    frame_alignment_angle,
    frame_vector_prediction,
    regular_simplex_frame,
    sweep,
    validate_sweep_row,
)
from simplex_spectra import eigensolve, frames, harness, jsonio
from simplex_spectra.harness import conjecture_to_payload, sweep_to_payload

GRID_N = range(2, 7)
GRID_M = range(3, 7)


# ---------------------------------------------------------------- sweep


def test_sweep_rows_carry_the_closed_forms():
    rows = sweep(GRID_N, GRID_M)
    assert len(rows) == 20
    by_cell = {(r.n, r.m): r for r in rows}
    for n in GRID_N:
        for m in GRID_M:
            row = by_cell[(n, m)]
            prediction = frame_vector_prediction(n, m)
            assert row.lambda_closed == float(prediction.lam)
            assert row.rho_closed == float(prediction.rho)
            assert row.n_plus_m == n + m
            assert row.threshold_pass == (n + m >= 7)
            npt.assert_allclose(row.rho_numeric, row.rho_closed, atol=1e-8)


def test_sweep_grid_has_no_violations():
    for row in sweep(GRID_N, GRID_M):
        assert validate_sweep_row(row) == []


def test_sweep_boundary_rows_are_exactly_two():
    rows = sweep(GRID_N, GRID_M)
    boundary = {(r.n, r.m) for r in rows if r.robust_closed == ROB_BOUNDARY}
    assert boundary == {(3, 3), (2, 4)}


def test_sweep_robustness_follows_the_sum_threshold():
    for row in sweep(GRID_N, GRID_M):
        if row.robust_closed == ROB_BOUNDARY:
            continue
        assert (row.robust_closed == ROB_ROBUST) == (row.n_plus_m >= 7)


def test_sweep_is_deterministic():
    assert sweep(GRID_N, GRID_M) == sweep(GRID_N, GRID_M)


def test_sweep_deduplicates_and_sorts_inputs():
    rows = sweep([3, 2, 3], [4, 3, 3])
    assert [(r.n, r.m) for r in rows] == [(2, 3), (2, 4), (3, 3), (3, 4)]


def test_sweep_and_conjecture_build_one_frame_per_dimension(monkeypatch):
    built = []

    def counting(n):
        built.append(n)
        return regular_simplex_frame(n)

    for namespace in (harness, frames):
        monkeypatch.setattr(namespace, "regular_simplex_frame", counting)
    sweep(GRID_N, GRID_M)
    assert built == list(GRID_N)
    built.clear()
    conjecture_check(2, 5)
    assert built == [2]


def test_the_threshold_law_is_not_applied_on_the_line():
    rows = sweep([1], [4, 6])
    assert [(r.rho_closed, r.robust_closed) for r in rows] == [
        (0.0, ROB_ROBUST), (0.0, ROB_ROBUST)]
    assert [validate_sweep_row(r) for r in rows] == [[], []]


def test_validate_flags_inconsistent_rows():
    good = sweep([2], [5])[0]
    bad = SweepRow(
        n=good.n, m=good.m,
        lambda_closed=good.lambda_closed,
        rho_closed=good.rho_closed,
        rho_numeric=good.rho_numeric + 1e-3,
        robust_closed=good.robust_closed,
        robust_numeric=ROB_NOT_ROBUST,
        n_plus_m=good.n_plus_m,
        threshold_pass=good.threshold_pass,
    )
    problems = validate_sweep_row(bad)
    assert len(problems) == 2
    assert any("rho" in p for p in problems)
    assert any("verdict" in p for p in problems)


# ---------------------------------------------------------------- alignment


def test_frame_alignment_angle_is_zero_on_frame_vectors():
    frame = regular_simplex_frame(3)
    for j in range(4):
        assert frame_alignment_angle(frame.vectors[:, j], frame, 4) == 0.0


def test_frame_alignment_angle_is_sign_blind_for_even_order():
    frame = regular_simplex_frame(3)
    w = frame.vectors[:, 1]
    assert frame_alignment_angle(-w, frame, 4) == 0.0
    # for odd order -w is a different point on the sphere
    assert frame_alignment_angle(-w, frame, 3) > 0.5


def test_frame_alignment_angle_of_a_midpoint():
    frame = regular_simplex_frame(2)
    mid = frame.vectors[:, 0] + frame.vectors[:, 1]
    mid /= np.linalg.norm(mid)
    npt.assert_allclose(frame_alignment_angle(mid, frame, 3),
                        np.pi / 3.0, atol=1e-12)


# ---------------------------------------------------------------- conjecture


def test_conjecture_plane_quintic_is_consistent_and_exhaustive():
    report = conjecture_check(2, 5)
    assert report.verdict == "consistent"
    assert not report.heuristic and not report.isotropic
    assert report.found_pairs == 3
    assert len(report.robust_pairs) == 3
    assert all(a <= 1e-6 for a in report.frame_alignment)
    assert report.frame_verdict_expected == ROB_ROBUST
    assert report.frame_verdicts == [ROB_ROBUST] * 3


def test_conjecture_plane_cubic_has_no_robust_pairs():
    report = conjecture_check(2, 3)
    assert report.verdict == "consistent"
    assert report.robust_pairs == []
    assert report.frame_verdict_expected == ROB_NOT_ROBUST
    assert report.frame_verdicts == [ROB_NOT_ROBUST] * 3


def test_conjecture_plane_quartic_detects_the_isotropic_boundary():
    report = conjecture_check(2, 4)
    assert report.verdict == "consistent"
    assert report.isotropic
    assert report.robust_pairs == []
    assert report.frame_verdict_expected == ROB_BOUNDARY


def test_conjecture_heuristic_path_is_consistent():
    report = conjecture_check(3, 4, starts=150, seed=5)
    assert report.heuristic
    assert report.verdict == "consistent"
    assert len(report.robust_pairs) == 4
    assert all(a <= 1e-6 for a in report.frame_alignment)


def test_conjecture_counts_each_zero_eigenvalue_class_once():
    # n = 3, m = 3 has ((m-1)^n - 1)/(m - 2) = 7 eigenpair classes (the
    # Cartwright-Sturmfels bound, attained); Newton endpoints near v and -v
    # of a lambda = 0 direction used to be kept as two classes.
    report = conjecture_check(3, 3, starts=200, newton_seeds=200, seed=0)
    assert report.found_pairs == 7


def test_conjecture_newton_polishes_converged_starts_only(monkeypatch):
    # eigensolve.newton_refine is the name multi_start calls; the sphere grid
    # calls harness.newton_refine
    calls = {"polish": 0, "grid": 0}

    def counting(key, inner):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(eigensolve, "newton_refine",
                        counting("polish", eigensolve.newton_refine))
    monkeypatch.setattr(harness, "newton_refine",
                        counting("grid", harness.newton_refine))
    # every (3,3) start cycles: none is polished, the grid finds all 7 pairs
    report = conjecture_check(3, 3, starts=50, newton_seeds=50)
    assert calls == {"polish": 0, "grid": 50}
    assert report.found_pairs == 7
    # every (3,4) start converges and is polished
    calls.update(polish=0, grid=0)
    conjecture_check(3, 4, starts=50, newton_seeds=50)
    assert calls == {"polish": 50, "grid": 50}


@pytest.mark.parametrize("n, m, seeds, accepted", [
    (3, 4, 200, 200), (4, 4, 200, 200),
    # the batch gives up on 30 of these seeds, which are not stepped again
    (3, 5, 2000, 1970)], ids=["3-4", "4-4", "3-5"])
def test_conjecture_accepts_each_batched_grid_endpoint_as_it_is(
        n, m, seeds, accepted, monkeypatch):
    # the grid is stepped in batches; newton_refine then checks each
    # retired seed's endpoint, once per seed, and takes no step of its own
    steps = []
    refine = harness.newton_refine

    def recording(*args, **kwargs):
        pair = refine(*args, **kwargs)
        steps.append(pair.iterations)
        return pair

    monkeypatch.setattr(harness, "newton_refine", recording)
    conjecture_check(n, m, starts=20, newton_seeds=seeds)
    assert steps == [0] * accepted


@pytest.mark.parametrize("n, m", [(3, 3), (4, 5)], ids=["3-3", "4-5"])
def test_conjecture_report_depends_on_the_seed_only_through_its_field(n, m):
    # the default sphere grid alone finds every pair the random power starts
    # find, so the report at n >= 3 does not change with the draw
    first, second = (conjecture_to_payload(conjecture_check(n, m, seed=s),
                                           False) for s in (0, 1))
    assert (first.pop("seed"), second.pop("seed")) == (0, 1)
    assert json.dumps(first) == json.dumps(second)


def test_conjecture_rejects_out_of_range_cells():
    with pytest.raises(ValueError):
        conjecture_check(5, 3)
    with pytest.raises(ValueError):
        conjecture_check(2, 7)


# ---------------------------------------------------------------- reports


def test_csv_report_layout(tmp_path):
    path = tmp_path / "sweep.csv"
    emit_report(sweep([2, 3], [3, 4]), "csv", path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "n", "m", "lambda_closed", "rho_closed", "rho_numeric",
        "robust_closed", "robust_numeric", "n_plus_m", "threshold_pass",
    ]
    assert len(rows) == 5
    assert rows[1][:4] == ["2", "3", "0.75", "2.0"]
    assert rows[1][5:] == ["not_robust", "not_robust", "5", "false"]


def test_csv_cells_read_back_as_the_json_values(tmp_path):
    rows = sweep(GRID_N, GRID_M)
    emit_report(rows, "csv", tmp_path / "sweep.csv")
    emit_report(rows, "json", tmp_path / "sweep.json",
                include_timestamp=False)
    expected = json.loads((tmp_path / "sweep.json").read_text())["rows"]
    with open(tmp_path / "sweep.csv", newline="") as handle:
        parsed = list(csv.DictReader(handle))
    assert len(parsed) == len(expected) == 20
    for cells, values in zip(parsed, expected):
        for name, value in values.items():
            if isinstance(value, str):
                assert cells[name] == value
                continue
            read = json.loads(cells[name])
            assert read == value and type(read) is type(value), (name, cells)


def test_csv_floats_survive_a_round_trip(tmp_path):
    path = tmp_path / "sweep.csv"
    rows = sweep(GRID_N, GRID_M)
    emit_report(rows, "csv", path)
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        for row, parsed in zip(rows, reader):
            assert float(parsed["rho_numeric"]) == row.rho_numeric
            assert float(parsed["lambda_closed"]) == row.lambda_closed


def test_json_report_round_trip(tmp_path):
    path = tmp_path / "sweep.json"
    rows = sweep([2], GRID_M)
    emit_report(rows, "json", path, include_timestamp=False)
    payload = json.loads(path.read_text())
    assert payload == sweep_to_payload(rows, include_timestamp=False)
    assert "timestamp" not in payload


def test_json_report_timestamp_toggle(tmp_path):
    rows = sweep([2], [3])
    stamped = tmp_path / "a.json"
    emit_report(rows, "json", stamped)
    assert "timestamp" in json.loads(stamped.read_text())


def test_reports_without_timestamp_are_byte_identical(tmp_path):
    rows = sweep([2, 3], [3, 4, 5])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(rows, "json", a, include_timestamp=False)
    emit_report(rows, "json", b, include_timestamp=False)
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    emit_report(rows, "csv", c)
    emit_report(rows, "csv", d)
    assert c.read_bytes() == d.read_bytes()


def test_conjecture_payload_reads_back_as_json(tmp_path):
    path = tmp_path / "conjecture.json"
    jsonio.dump(conjecture_to_payload(conjecture_check(2, 3),
                                      include_timestamp=False), path)
    payload = json.loads(path.read_text())
    assert payload["verdict"] == "consistent"
    assert payload["violation"] is None
    assert "timestamp" not in payload


def test_emit_report_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit_report(sweep([2], [3]), "xml", tmp_path / "x.xml")
