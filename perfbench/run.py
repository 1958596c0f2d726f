#!/usr/bin/env python3
"""Benchmark of the simplex-spectra CLI: end-to-end and per-layer metrics.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload search_power --seed 1 --trace 0
    python3 perfbench/run.py --seed 2     # every workload, untraced then traced

Each workload is a single-process closed loop: one caller runs a pass through
``simplex_spectra.cli.main`` in process, checks every output, and starts the
next pass when the previous one ends. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs untraced passes for half the time and traced
passes for the other half, and reports the per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("search_power", "search_polish", "report_cli")
SETUP_PROBES = 5
TAIL_BEYOND = 10
TAIL_BLOCK = 100
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; omitted runs every workload, each "
                             "in a fresh process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics; "
                             "omitted with no --workload runs both")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- statistics -----------------------------------------------------------


def tail(values: List[float], beyond: int = TAIL_BEYOND):
    """Highest nearest-rank percentile with at least ``beyond`` values above
    its rank, as (value, percentile, values beyond it).

    A run of the search workloads holds too few passes for ten of them to lie
    beyond any percentile above the median, so ``beyond`` shrinks to a
    quarter of the values: the tail never falls below the 75th percentile,
    and it is the slowest value when there are fewer than four.
    """
    ordered = sorted(values)
    count = len(ordered)
    beyond = min(beyond, count // 4)
    rank = count - beyond
    return ordered[rank - 1], 100.0 * rank / count, beyond


def blocked_tail(values: List[float]):
    """``tail`` of each block of ``TAIL_BLOCK`` consecutive passes, as the
    median over the blocks, with the median percentile and the values beyond
    it in one block. A run of fewer than two blocks is one block.

    The shared host slows down for spells of a few seconds. The tail of a
    whole run of short passes measures how long those spells lasted; the tail
    within a block of a few seconds measures the passes' own spread, and the
    median over the blocks ignores a spell that falls in a few of them.
    """
    count = len(values) // TAIL_BLOCK
    if count < 2:
        return tail(values) + (1,)
    tails = [tail(values[len(values) * i // count:
                         len(values) * (i + 1) // count])
             for i in range(count)]
    return (statistics.median(t[0] for t in tails),
            statistics.median(t[1] for t in tails), tails[0][2], count)


# -- environment ------------------------------------------------------------


def git_commit() -> Optional[str]:
    """The checkout's commit, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


# -- passes -----------------------------------------------------------------


@contextlib.contextmanager
def quiet(stderr: io.StringIO):
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(stderr):
        yield


class PassRecord:
    __slots__ = ("wall_s", "cpu_s", "problems")

    def __init__(self, wall_s: float, cpu_s: float,
                 problems: Dict[str, List[str]]):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.problems = problems


def run_pass(cli, cells, digests: Dict[str, str]) -> PassRecord:
    """Run every cell once, timed; then check each output. ``digests`` maps a
    cell to the hash of its first output, which every later pass must match.
    A cell that raises counts as failed with exit code -1."""
    errors = io.StringIO()
    codes, marks = [], []
    with quiet(errors):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for cell in cells:
            marks.append(errors.tell())
            try:
                codes.append(cli.main(cell.argv))
            except Exception:  # a crash fails the cell, not the benchmark
                traceback.print_exc(file=errors)
                codes.append(-1)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    marks.append(errors.tell())
    stderr = errors.getvalue()
    problems = {}
    for i, (cell, rc) in enumerate(zip(cells, codes)):
        try:
            found = cell.check(rc, cell.out)
            if not found:
                digest = hashlib.sha256(cell.out.read_bytes()).hexdigest()
                if digests.setdefault(cell.name, digest) != digest:
                    found.append("output differs from the first pass")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            found = [f"unreadable output: {type(exc).__name__}: {exc}"]
        said = stderr[marks[i]:marks[i + 1]].strip()
        if found and said:
            found.append(said.splitlines()[-1])
        if found:
            problems[cell.name] = found
    return PassRecord(wall, cpu, problems)


def run_passes(cli, cells, seconds: float, digests: Dict[str, str],
               min_passes: int, tracer=None, first_id: int = 0):
    """Closed loop: start a pass while the median pass still fits in time."""
    records: List[PassRecord] = []
    loop_s: List[float] = []
    start = time.perf_counter()
    while len(records) < min_passes or \
            time.perf_counter() - start + statistics.median(loop_s) <= seconds:
        began = time.perf_counter()
        if tracer is not None:
            tracer.pass_id = first_id + len(records)
        records.append(run_pass(cli, cells, digests))
        loop_s.append(time.perf_counter() - began)
    return records


def cell_counts(records: List[PassRecord], cells) -> tuple:
    attempted = len(records) * len(cells)
    failed = sum(len(r.problems) for r in records)
    return attempted, failed


def problem_lines(records: List[PassRecord], limit: int = 20) -> List[str]:
    lines = [f"pass {i} {cell}: {msg}" for i, r in enumerate(records)
             for cell, msgs in r.problems.items() for msg in msgs]
    return lines[:limit]


# -- setup ------------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter on this script to the moment
    it has imported the package and prepared the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {err}")
    return elapsed


def prepare(workload: str, seed: int, work: Path):
    from workloads import WORKLOADS

    work.mkdir(parents=True, exist_ok=True)
    errors = io.StringIO()
    try:
        with quiet(errors):
            return WORKLOADS[workload](work, seed)
    except RuntimeError as exc:
        raise RuntimeError(f"{exc}: {errors.getvalue().strip()}") from exc


# -- runs -------------------------------------------------------------------


def end_to_end(records: List[PassRecord], cells, setup_samples: List[float]):
    """End-to-end metrics of an untraced run. Passes with a failed cell are
    left out of the timings unless every pass failed."""
    attempted, failed = cell_counts(records, cells)
    passed = [r for r in records if not r.problems]
    ok = passed or records
    walls = [r.wall_s for r in ok]
    tail_s, tail_pct, beyond, blocks = blocked_tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "pass_s.p50": (statistics.median(walls), "s"),
        "pass_s.tail": (tail_s, "s"),
        "cpu_s.p50": (statistics.median(r.cpu_s for r in ok), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "cells_ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    detail = {
        "passes": len(records),
        "passes_ok": len(passed),
        "fail_frac": failed / attempted,
        "pass_s.tail.percentile": tail_pct,
        "pass_s.tail.passes_beyond": beyond,
        "pass_s.tail.blocks": blocks,
        "pass_s.samples": [r.wall_s for r in records],
        "setup_s.samples": setup_samples,
        "problems": problem_lines(records),
    }
    return metrics, detail, attempted, failed


def traced(cli, cells, args):
    from tracer import LAYER_METRICS, Tracer, count_checks, layer_metrics
    from workloads import CONJECTURE_STARTS, NEWTON_SEEDS

    digests: Dict[str, str] = {}
    half = args.seconds / 2.0
    plain = run_passes(cli, cells, half, digests, min_passes=1)
    tracer = Tracer()
    tracer.install()
    try:
        spanned = run_passes(cli, cells, half, digests, min_passes=1,
                             tracer=tracer, first_id=len(plain))
    finally:
        checks = tracer.restore()
    checks += count_checks(tracer.spans, CONJECTURE_STARTS, NEWTON_SEEDS)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    records = plain + spanned
    attempted, failed = cell_counts(records, cells)
    per_pass = layer_metrics(tracer.spans, len(spanned))
    metrics = {name: (per_pass[name], unit) for name, unit in LAYER_METRICS}
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.wall_s for r in spanned)
        / statistics.median(r.wall_s for r in plain), "ratio")
    detail = {
        "passes_untraced": len(plain),
        "passes_traced": len(spanned),
        "spans": len(tracer.spans),
        "found_pairs_per_cell": [
            dict(s.attrs) for s in tracer.spans
            if s.name == "harness.conjecture_check" and s.pass_id == len(plain)],
        "problems": problem_lines(records),
    }
    return metrics, detail, attempted, failed, checks


def run_workload(args) -> int:
    from simplex_spectra import cli

    work = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            prepare(args.workload, args.seed, work)
            print("ready", flush=True)
            return 0
        setup_samples = [] if args.trace else [
            probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        cells = prepare(args.workload, args.seed, work)
        if args.trace:
            metrics, detail, attempted, failed, checks = traced(cli, cells, args)
        else:
            records = run_passes(cli, cells, args.seconds, {}, min_passes=2)
            metrics, detail, attempted, failed = end_to_end(
                records, cells, setup_samples)
            checks = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = failed == 0 and not checks
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"{args.workload} fail_frac = {detail['fail_frac']:.6g} ratio "
              f"({failed}/{attempted} cells)")
        print(f"{args.workload} pass_s.tail is p"
              f"{detail['pass_s.tail.percentile']:.1f} with "
              f"{detail['pass_s.tail.passes_beyond']} passes beyond it, the "
              f"median over {detail['pass_s.tail.blocks']} block(s) of the "
              f"{detail['passes_ok']} passes")
    for line in checks + detail["problems"]:
        print(f"{args.workload} problem: {line}")
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, checks=checks,
                  environment=environment())
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process; untraced then traced unless
    --trace picks one."""
    traces = (0, 1) if args.trace is None else (args.trace,)
    results = {}
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            results[f"{workload}/trace{trace}"] = (
                json.loads(lines[-1]) if lines else None)
            status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "simplex_spectra" / "__init__.py").is_file():
        print(f"perfbench: no simplex_spectra package under {SRC}; run from "
              "the root of a simplex-spectra checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if args.trace is None:
        args.trace = 0
    sys.path[:0] = [str(SRC), str(HERE)]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
