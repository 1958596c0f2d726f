"""Command line interface.

Subcommands mirror the library layers: ``frame`` (build/certify), ``tensor``
(build), ``eig`` (solve / enumerate2d / classify), ``sweep`` and
``conjecture``. Exit codes: 0 success or consistent verdict, 1 usage or I/O
error, 2 violation (failed certification or conjecture violation), 3 internal
invariant failure under --strict.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from typing import List, Optional

from . import jsonio
from .eigensolve import (
    DEFAULT_MAX_ITER,
    enumerate_2d,
    pairs_from_payload,
    pairs_to_payload,
)
from .frames import (
    certify,
    frame_tensor,
    load_frame,
    orthonormal_frame,
    regular_simplex_frame,
    save_frame,
    simplex_tensor,
)
from .harness import (
    VERDICT_CONSISTENT,
    _inventory,
    conjecture_check,
    conjecture_to_payload,
    emit_report,
    sweep,
    validate_sweep_row,
)
from .stability import classify_pair, report_to_payload
from .tensors import (CapacityError, load_tensor, save_tensor,
                      tensor_to_payload)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for violations
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_int_set(text: str) -> List[int]:
    """Parse '4', '2..6' or '2,3,5' into a sorted list of ints."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_text, hi_text = part.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"empty range {part!r}")
            values.extend(range(lo, hi + 1))
        else:
            values.append(int(part))
    if not values:
        raise ValueError(f"no integers in {text!r}")
    return sorted(set(values))


def _seed(text: str) -> int:
    """A --seed value, at every n: a non-negative integer, as numpy needs."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def _cmd_frame_build(args) -> int:
    if args.kind == "simplex":
        frame = regular_simplex_frame(args.n)
    else:
        frame = orthonormal_frame(args.n)
    save_frame(frame, args.out)
    print(f"wrote {args.kind} frame ({frame.count} vectors in R^{frame.dim}) "
          f"to {args.out}")
    return EXIT_OK


def _cmd_frame_certify(args) -> int:
    frame = load_frame(args.infile)
    report = certify(frame)
    print(jsonio.dumps(asdict(report)))
    ok = report.unit_norms and report.equiangular and report.tight
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_tensor_build(args) -> int:
    if args.kind == "simplex":
        tensor = simplex_tensor(args.n, args.m)
    else:
        tensor = frame_tensor(orthonormal_frame(args.n), args.m)
    save_tensor(tensor, args.out)
    print(f"wrote {args.kind} tensor (order {tensor.order}, dim {tensor.dim}) "
          f"to {args.out}")
    return EXIT_OK


def _cmd_eig_solve(args) -> int:
    tensor = load_tensor(args.tensor)
    summary = _inventory(tensor, args.starts, args.seed, args.max_iter,
                         args.starts)
    payload = dict(pairs_to_payload(tensor, summary.pairs), seed=args.seed,
                   starts=args.starts, failures=summary.failures,
                   basin_counts=summary.basin_counts)
    jsonio.dump(payload, args.out)
    print(f"found {len(summary.pairs)} eigenpairs "
          f"({summary.failures}/{args.starts} starts failed); wrote {args.out}")
    return EXIT_OK


def _cmd_eig_enumerate2d(args) -> int:
    tensor = load_tensor(args.tensor)
    enumeration = enumerate_2d(tensor)
    payload = pairs_to_payload(tensor, enumeration.pairs)
    payload["isotropic"] = enumeration.isotropic
    jsonio.dump(payload, args.out)
    label = "isotropic circle (representatives only)" if enumeration.isotropic \
        else f"{len(enumeration.pairs)} eigenpairs"
    print(f"plane enumeration found {label}; wrote {args.out}")
    return EXIT_OK


def _cmd_eig_classify(args) -> int:
    tensor = load_tensor(args.tensor)
    solved_on, pairs = pairs_from_payload(jsonio.load(args.pairs))
    if tensor_to_payload(solved_on) != tensor_to_payload(tensor):
        raise ValueError(
            f"{args.pairs} was solved on a different tensor than {args.tensor}"
        )
    reports = [classify_pair(tensor, p) for p in pairs]
    jsonio.dump({"reports": [report_to_payload(r) for r in reports]}, args.out)
    print(f"classified {len(reports)} eigenpairs; wrote {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    rows = sweep(parse_int_set(args.n), parse_int_set(args.m))
    problems = [msg for row in rows for msg in validate_sweep_row(row)]
    emit_report(rows, args.format, args.out,
                include_timestamp=not args.no_timestamp)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    for msg in problems:
        print(f"invariant violation: {msg}", file=sys.stderr)
    if problems and args.strict:
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_conjecture(args) -> int:
    report = conjecture_check(args.n, args.m, seed=args.seed)
    payload = conjecture_to_payload(report,
                                    include_timestamp=not args.no_timestamp)
    jsonio.dump(payload, args.out)
    print(f"(n={report.n}, m={report.m}): {report.found_pairs} eigenpairs, "
          f"{len(report.robust_pairs)} robust, verdict {report.verdict}; "
          f"wrote {args.out}")
    if report.verdict != VERDICT_CONSISTENT:
        print(f"violation: {report.violation['reason']}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser tree for every subcommand; ``main`` builds one per
    process."""
    parser = _Parser(prog="simplex-spectra",
                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_frame = sub.add_parser("frame", help="build or certify frames")
    frame_sub = p_frame.add_subparsers(dest="frame_command", required=True)
    p_fb = frame_sub.add_parser("build", help="write a frame to JSON")
    p_fb.add_argument("--n", type=int, required=True, help="ambient dimension")
    p_fb.add_argument("--kind", choices=("simplex", "orthonormal"),
                      default="simplex")
    p_fb.add_argument("--out", required=True)
    p_fb.set_defaults(handler=_cmd_frame_build)
    p_fc = frame_sub.add_parser("certify",
                                help="check the equiangular tight-frame conditions")
    p_fc.add_argument("--in", dest="infile", required=True)
    p_fc.set_defaults(handler=_cmd_frame_certify)

    p_tensor = sub.add_parser("tensor", help="build tensors")
    tensor_sub = p_tensor.add_subparsers(dest="tensor_command", required=True)
    p_tb = tensor_sub.add_parser("build", help="write a frame tensor to JSON")
    p_tb.add_argument("--kind", choices=("simplex", "odeco"), default="simplex")
    p_tb.add_argument("--n", type=int, required=True)
    p_tb.add_argument("--m", type=int, required=True)
    p_tb.add_argument("--out", required=True)
    p_tb.set_defaults(handler=_cmd_tensor_build)

    p_eig = sub.add_parser("eig", help="solve and classify eigenpairs")
    eig_sub = p_eig.add_subparsers(dest="eig_command", required=True)
    p_es = eig_sub.add_parser("solve", help="sphere-grid Newton, with "
                              "power-iteration basin counts")
    p_es.add_argument("--tensor", required=True)
    p_es.add_argument("--starts", type=int, default=200,
                      help="power starts, and as many grid seeds")
    p_es.add_argument("--seed", type=_seed, default=0)
    p_es.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                      help="power-map steps of each start")
    p_es.add_argument("--out", required=True)
    p_es.set_defaults(handler=_cmd_eig_solve)
    p_ee = eig_sub.add_parser("enumerate2d",
                              help="every eigenpair class, from the real "
                                   "roots of one binary form (dimension 2)")
    p_ee.add_argument("--tensor", required=True)
    p_ee.add_argument("--out", required=True)
    p_ee.set_defaults(handler=_cmd_eig_enumerate2d)
    p_ec = eig_sub.add_parser("classify",
                              help="stationarity and robustness reports")
    p_ec.add_argument("--tensor", required=True)
    p_ec.add_argument("--pairs", required=True)
    p_ec.add_argument("--out", required=True)
    p_ec.set_defaults(handler=_cmd_eig_classify)

    p_sweep = sub.add_parser("sweep",
                             help="closed form vs numeric over an (n, m) grid")
    p_sweep.add_argument("--n", default="2..6", help="e.g. 4, 2..6 or 2,3,5")
    p_sweep.add_argument("--m", default="3..6")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--strict", action="store_true",
                         help="exit 3 on any row invariant violation")
    p_sweep.add_argument("--no-timestamp", action="store_true",
                         help="omit the timestamp for byte-identical reruns")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_conj = sub.add_parser("conjecture",
                            help="robust eigenpairs == frame vectors check")
    p_conj.add_argument("--n", type=int, required=True)
    p_conj.add_argument("--m", type=int, required=True)
    p_conj.add_argument("--seed", type=_seed, default=0,
                        help="seed of the random starts (n >= 3 only)")
    p_conj.add_argument("--out", required=True)
    p_conj.add_argument("--no-timestamp", action="store_true")
    p_conj.set_defaults(handler=_cmd_conjecture)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command line and return its exit code.

    Safe to call repeatedly in one process: every call parses with the same
    parser tree, built on the first call, and parsing keeps no state between
    calls.
    """
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0, usage errors exit 1
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError, KeyError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
