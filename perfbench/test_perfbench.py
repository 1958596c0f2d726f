"""Tests of the benchmark's own checks, statistics and tracer.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from simplex_spectra import cli, eigensolve, harness, stability, tensors  # noqa: E402


def _conjecture(tmp_path, n, m, seed=0):
    cell = workloads._conjecture_cell(tmp_path, n, m, seed)
    rc = cli.main(cell.argv)
    return cell, rc


def _rewrite(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


# -- output checks ----------------------------------------------------------


def test_closed_forms_agree_with_the_package():
    for n in range(2, 7):
        for m in range(3, 7):
            ours = workloads.ClosedForm.at(n, m)
            theirs = stability.frame_vector_prediction(n, m)
            assert (ours.lam, ours.rho) == (theirs.lam, theirs.rho)
            assert ours.verdict == stability.closed_form_verdict(theirs.rho)


def test_conjecture_check_accepts_a_real_report(tmp_path):
    cell, rc = _conjecture(tmp_path, 2, 5)
    assert rc == 0
    assert cell.check(rc, cell.out) == []


@pytest.mark.parametrize("edit", [
    lambda p: p["frame_verdicts"].__setitem__(0, "not_robust"),
    lambda p: p.__setitem__("verdict", "violation"),
    lambda p: p.__setitem__("frame_verdict_expected", "not_robust"),
    lambda p: p["robust_pairs"].pop(),
    lambda p: p["robust_pairs"][0]["pair"].__setitem__(
        "lambda", p["robust_pairs"][0]["pair"]["lambda"] + 1e-9),
    lambda p: p["robust_pairs"][0].__setitem__(
        "rho", p["robust_pairs"][0]["rho"] + 1e-7),
    lambda p: p["robust_pairs"][0]["pair"].__setitem__("v", [0.6, 0.8]),
    lambda p: p.__setitem__("seed", 7),
], ids=["frame-verdict", "verdict", "expected", "robust-count", "lambda",
        "rho", "off-frame", "seed"])
def test_conjecture_check_rejects_a_planted_defect(tmp_path, edit):
    cell, rc = _conjecture(tmp_path, 2, 5)
    _rewrite(cell.out, edit)
    assert cell.check(rc, cell.out)


def test_conjecture_check_rejects_a_nonzero_exit(tmp_path):
    cell, _ = _conjecture(tmp_path, 2, 5)
    assert cell.check(2, cell.out) == ["exit code 2"]


def test_found_pairs_is_not_checked(tmp_path):
    cell, rc = _conjecture(tmp_path, 2, 6)
    _rewrite(cell.out, lambda p: p.__setitem__("found_pairs", 999))
    assert cell.check(rc, cell.out) == []


def test_sweep_and_classify_checks(tmp_path):
    cells = workloads.setup_report_cli(tmp_path, 3)
    sweep, classify = cells[0], cells[-1]
    for cell in (sweep, classify):
        rc = cli.main(cell.argv)
        assert cell.check(rc, cell.out) == []
    assert sweep.check(3, sweep.out) == ["exit code 3 (--strict)"]
    _rewrite(sweep.out, lambda p: p["rows"][5].__setitem__(
        "robust_numeric", "boundary"))
    assert sweep.check(0, sweep.out)
    _rewrite(classify.out, lambda p: p["reports"].pop())
    assert classify.check(0, classify.out)


class _PlantedCli:
    """Runs the real CLI, then flips one frame verdict in the report."""

    def __init__(self):
        self.calls = 0

    def main(self, argv):
        rc = cli.main(argv)
        self.calls += 1
        if self.calls == 3:
            out = Path(argv[argv.index("--out") + 1])
            _rewrite(out, lambda p: p["frame_verdicts"].__setitem__(
                1, "boundary"))
        return rc


def test_a_planted_wrong_verdict_fails_its_cell_and_leaves_the_timings(tmp_path):
    cells = [workloads._conjecture_cell(tmp_path, 2, m, 0) for m in (5, 6)]
    planted = _PlantedCli()
    records = [run.run_pass(planted, cells, {}) for _ in range(3)]
    assert [sorted(r.problems) for r in records] == [
        [], ["conjecture n=2 m=5"], []]
    metrics, detail, attempted, failed = run.end_to_end(records, cells, [0.1])
    assert (attempted, failed) == (6, 1)
    assert detail["fail_frac"] == pytest.approx(1 / 6)
    assert detail["passes_ok"] == 2
    assert metrics["cells_ok_frac"][0] == pytest.approx(5 / 6)
    ok_walls = [records[0].wall_s, records[2].wall_s]
    assert metrics["pass_s.p50"][0] == pytest.approx(sum(ok_walls) / 2)


def test_a_crashing_cell_fails_without_stopping_the_pass(tmp_path):
    class Crashing:
        @staticmethod
        def main(argv):
            if "--m" in argv and argv[argv.index("--m") + 1] == "5":
                raise RuntimeError("boom")
            return cli.main(argv)

    cells = [workloads._conjecture_cell(tmp_path, 2, m, 0) for m in (5, 6)]
    problems = run.run_pass(Crashing, cells, {}).problems
    assert problems == {"conjecture n=2 m=5": ["exit code -1",
                                               "RuntimeError: boom"]}


def test_changed_output_bytes_fail_the_determinism_check(tmp_path):
    cells = [workloads._conjecture_cell(tmp_path, 2, 5, 0)]
    digests = {}
    assert run.run_pass(cli, cells, digests).problems == {}
    cells[0].argv.remove("--no-timestamp")
    problems = run.run_pass(cli, cells, digests).problems
    assert problems == {"conjecture n=2 m=5": [
        "output differs from the first pass"]}


# -- statistics -------------------------------------------------------------


def test_tail_keeps_ten_values_beyond_it_when_it_can():
    values = [float(i) for i in range(1, 501)]
    assert run.tail(values) == (490.0, 98.0, 10)
    assert run.tail(values[:8]) == (6.0, 75.0, 2)
    assert run.tail(values[:3]) == (3.0, 100.0, 0)


def test_blocked_tail_ignores_a_slow_spell_in_one_block():
    block = [float(i) for i in range(1, run.TAIL_BLOCK + 1)]
    spell = block[:70] + [1000.0] * 30
    assert run.blocked_tail(block * 3 + spell) == (90.0, 90.0, 10, 4)
    assert run.tail(block * 3 + spell)[0] == 1000.0
    assert run.blocked_tail(block[:60]) == run.tail(block[:60]) + (1,)


# -- tracer -----------------------------------------------------------------


def _traced_conjecture(starts, newton_seeds):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.pass_id = 0
        report = harness.conjecture_check(3, 4, starts=starts,
                                          newton_seeds=newton_seeds)
    finally:
        problems = tracer.restore()
    return tracer, report, problems


def test_tracer_counts_and_self_times():
    originals = (tensors.apply_m1, eigensolve.apply_m1, stability.apply_m2,
                 harness.newton_refine, cli.conjecture_check, cli.main)
    tracer, report, problems = _traced_conjecture(starts=20, newton_seeds=30)
    assert problems == []
    assert all(a is b for a, b in zip(
        (tensors.apply_m1, eigensolve.apply_m1, stability.apply_m2,
         harness.newton_refine, cli.conjecture_check, cli.main), originals))

    totals = tracing.layer_metrics(tracer.spans, 1)
    assert totals["eigensolve.power_method.calls"] == 20
    assert totals["eigensolve.newton_refine.polish.calls"] == 20
    assert totals["eigensolve.newton_refine.grid.calls"] == 30
    assert totals["harness.found_pairs"] == report.found_pairs
    assert totals["stability.classify_pair.calls"] >= report.found_pairs
    assert totals["tensors.apply_m1.calls"] > totals[
        "eigensolve.power_method.iterations"]
    assert (totals["eigensolve.power_method.converged"]
            + totals["eigensolve.power_method.cycling"]
            + totals["eigensolve.power_method.max_iter"]
            + totals["eigensolve.power_method.degenerate"]) == 20
    halves = tracing.layer_metrics(tracer.spans, 2)
    assert halves["eigensolve.power_method.calls"] == 10
    assert halves["eigensolve.power_method.converged_ratio"] == totals[
        "eigensolve.power_method.converged_ratio"] == (
        totals["eigensolve.power_method.converged"] / 20)

    root = tracer.spans[0]
    assert root.name == "harness.conjecture_check" and root.parent is None
    assert all(span.self_s >= 0 for span in tracer.spans)
    covered = sum(span.self_s for span in tracer.spans) + sum(
        secs for span in tracer.spans for _, secs in span.leaves.values())
    assert covered == pytest.approx(root.end - root.start, rel=1e-9)


def test_count_checks_flag_a_short_search():
    tracer, report, _ = _traced_conjecture(starts=20, newton_seeds=30)
    assert tracing.count_checks(tracer.spans, 20, 30) == []
    problems = tracing.count_checks(tracer.spans, workloads.CONJECTURE_STARTS,
                                    workloads.NEWTON_SEEDS)
    assert len(problems) == 2
    assert "20 power_method calls, expected 2000" in problems[0]


def test_restore_reports_a_wrapper_left_behind():
    tracer = tracing.Tracer()
    tracer.install()
    wrapper = eigensolve.dedup
    problems = tracer.restore()
    assert problems == []
    harness.dedup = wrapper
    try:
        assert tracer.restore() == ["simplex_spectra.harness.dedup is still "
                                    "wrapped"]
    finally:
        harness.dedup = eigensolve.dedup


# -- the command ------------------------------------------------------------


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "report_cli",
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    result = _result(proc.stdout)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert proc.returncode == 0 and result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert [m["unit"] for m in result["metrics"].values()] == [
        m["unit"] for m in spec["per_layer"]]


def test_untraced_run_reports_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "report_cli",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    result = _result(proc.stdout)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert proc.returncode == 0 and result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search_power",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
