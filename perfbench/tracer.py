"""Span tracer that wraps the package's public functions from outside.

The modules bind each other's functions with ``from .x import f``, so one
function object can sit in several module namespaces (``eigensolve.apply_m1``,
``stability.apply_m2``, ``harness.newton_refine``, ``cli.conjecture_check``).
``Tracer.install`` replaces the object in every namespace of the package that
holds it, and ``Tracer.restore`` puts the originals back and checks each one
by identity.

Every wrapped call of a spanned function records a ``Span`` (name, start, end,
parent span, pass id). The leaf contractions ``apply_m``, ``apply_m1`` and
``apply_m2`` run hundreds of thousands of times per pass, so they record no
span of their own: their calls and time are summed on the span they ran under.
A span's self time is its duration minus the time of its child spans and of
its leaf calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "simplex_spectra"

LEAVES = (
    ("tensors", "apply_m"),
    ("tensors", "apply_m1"),
    ("tensors", "apply_m2"),
)

SPANNED = (
    ("eigensolve", "power_method"),
    ("eigensolve", "newton_refine"),
    ("eigensolve", "dedup"),
    ("eigensolve", "multi_start"),
    ("eigensolve", "sphere_grid"),
    ("eigensolve", "enumerate_2d"),
    ("stability", "classify_pair"),
    ("harness", "conjecture_check"),
    ("harness", "sweep"),
    ("frames", "simplex_tensor"),
    ("jsonio", "dump"),
    ("jsonio", "load"),
    ("cli", "main"),
)

# newton_refine serves two phases; the calling span tells them apart.
NEWTON = "eigensolve.newton_refine"
NEWTON_CALLERS = {
    "eigensolve.multi_start": NEWTON + ".polish",
    "harness.conjecture_check": NEWTON + ".grid",
}


def _package_namespaces() -> list:
    return [module for key, module in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")]


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "pass_id",
                 "child_s", "leaves", "attrs", "error")

    def __init__(self, name: str, parent: Optional["Span"], pass_id):
        self.name = name
        self.parent = parent
        self.root = self if parent is None else parent.root
        self.pass_id = pass_id
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.leaves: Dict[str, List[float]] = {}
        self.attrs: dict = {}
        self.error: Optional[str] = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _power_attrs(args, kwargs, result) -> dict:
    return {"status": result.status, "iterations": result.iterations}


def _newton_attrs(args, kwargs, result) -> dict:
    return {"iterations": result.iterations}


def _dedup_attrs(args, kwargs, result) -> dict:
    return {"inputs": len(args[0] if args else kwargs["pairs"]),
            "outputs": len(result)}


def _conjecture_attrs(args, kwargs, result) -> dict:
    return {"n": result.n, "m": result.m, "found_pairs": result.found_pairs}


def _dump_attrs(args, kwargs, result) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": Path(path).stat().st_size}


ATTRS: Dict[str, Callable] = {
    "eigensolve.power_method": _power_attrs,
    NEWTON: _newton_attrs,
    "eigensolve.dedup": _dedup_attrs,
    "harness.conjecture_check": _conjecture_attrs,
    "jsonio.dump": _dump_attrs,
}


class Tracer:
    """Records spans while installed; one tracer per traced run."""

    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.pass_id = None
        self._patched: List[Tuple[object, str, Callable]] = []
        self._wrappers: List[Callable] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap_span(self, name: str, fn: Callable) -> Callable:
        attrs_of = ATTRS.get(name)
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_name = name
            if name == NEWTON:
                span_name = NEWTON_CALLERS.get(
                    parent.name if parent else "", NEWTON + ".other")
            span = Span(span_name, parent, self.pass_id)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                span.error = type(exc).__name__
                raise
            else:
                span.end = clock()
                if attrs_of is not None:
                    span.attrs = attrs_of(args, kwargs, result)
                return result
            finally:
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start

        return wrapper

    def _wrap_leaf(self, name: str, fn: Callable) -> Callable:
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # every benchmark call runs under cli.main
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                owner = stack[-1]
                owner.child_s += dt
                slot = owner.leaves.get(name)
                if slot is None:
                    owner.leaves[name] = [1, dt]
                else:
                    slot[0] += 1
                    slot[1] += dt

        return wrapper

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for mod in sorted({mod for mod, _ in LEAVES + SPANNED}):
            importlib.import_module(f"{PACKAGE}.{mod}")
        namespaces = _package_namespaces()
        targets = [(mod, fname, self._wrap_leaf) for mod, fname in LEAVES]
        targets += [(mod, fname, self._wrap_span) for mod, fname in SPANNED]
        for mod, fname, wrap in targets:
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], fname)
            wrapper = wrap(f"{mod}.{fname}", original)
            self._wrappers.append(wrapper)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        self._patched.append((namespace, attr, original))

    def restore(self) -> List[str]:
        """Put every original back and check the package by identity.

        Returns one message per name that is not its original object, or that
        still holds a wrapper, in any namespace of the package.
        """
        patched, self._patched = self._patched, []
        for namespace, attr, original in patched:
            setattr(namespace, attr, original)
        problems = [f"{namespace.__name__}.{attr} is not the original"
                    for namespace, attr, original in patched
                    if getattr(namespace, attr) is not original]
        for namespace in _package_namespaces():
            for attr, value in vars(namespace).items():
                if any(value is wrapper for wrapper in self._wrappers):
                    problems.append(f"{namespace.__name__}.{attr} is still "
                                    "wrapped")
        return problems

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON line; parents are given by index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": (None if span.parent is None
                               else index[id(span.parent)]),
                    "pass": span.pass_id,
                    "self_s": span.self_s,
                    "leaves": span.leaves,
                    "attrs": span.attrs,
                    "error": span.error,
                }) + "\n")


# (metric name, unit) in the order they are reported; BENCHMARK.json lists
# the same names.
LAYER_METRICS = (
    ("tensors.apply_m1.calls", "count"),
    ("tensors.apply_m1.self_s", "s"),
    ("tensors.apply_m2.calls", "count"),
    ("tensors.apply_m2.self_s", "s"),
    ("tensors.apply_m.calls", "count"),
    ("eigensolve.power_method.calls", "count"),
    ("eigensolve.power_method.self_s", "s"),
    ("eigensolve.power_method.iterations", "count"),
    ("eigensolve.power_method.converged", "count"),
    ("eigensolve.power_method.cycling", "count"),
    ("eigensolve.power_method.max_iter", "count"),
    ("eigensolve.power_method.degenerate", "count"),
    ("eigensolve.power_method.converged_ratio", "ratio"),
    ("eigensolve.newton_refine.polish.calls", "count"),
    ("eigensolve.newton_refine.polish.self_s", "s"),
    ("eigensolve.newton_refine.polish.iterations", "count"),
    ("eigensolve.newton_refine.polish.failures", "count"),
    ("eigensolve.newton_refine.grid.calls", "count"),
    ("eigensolve.newton_refine.grid.self_s", "s"),
    ("eigensolve.newton_refine.grid.iterations", "count"),
    ("eigensolve.newton_refine.grid.failures", "count"),
    ("eigensolve.dedup.calls", "count"),
    ("eigensolve.dedup.inputs", "count"),
    ("eigensolve.dedup.outputs", "count"),
    ("eigensolve.dedup.self_s", "s"),
    ("eigensolve.multi_start.self_s", "s"),
    ("eigensolve.sphere_grid.self_s", "s"),
    ("eigensolve.enumerate_2d.self_s", "s"),
    ("stability.classify_pair.calls", "count"),
    ("stability.classify_pair.self_s", "s"),
    ("harness.conjecture_check.self_s", "s"),
    ("harness.sweep.self_s", "s"),
    ("harness.found_pairs", "count"),
    ("frames.simplex_tensor.calls", "count"),
    ("frames.simplex_tensor.self_s", "s"),
    ("jsonio.dump.calls", "count"),
    ("jsonio.dump.bytes", "B"),
    ("jsonio.dump.self_s", "s"),
    ("jsonio.load.self_s", "s"),
    ("cli.main.self_s", "s"),
)


def layer_metrics(spans: List[Span], passes: int) -> Dict[str, float]:
    """Calls, self time and boundary counts of ``spans``, per pass."""
    totals: Dict[str, float] = {name: 0.0 for name, _ in LAYER_METRICS}

    def add(key: str, value: float) -> None:
        if key in totals:
            totals[key] += value

    for span in spans:
        add(f"{span.name}.calls", 1)
        add(f"{span.name}.self_s", span.self_s)
        for leaf, (calls, secs) in span.leaves.items():
            add(f"{leaf}.calls", calls)
            add(f"{leaf}.self_s", secs)
        if span.name == "eigensolve.power_method":
            if span.error == "DegeneratePointError":
                add("eigensolve.power_method.degenerate", 1)
            elif span.attrs:
                add(f"eigensolve.power_method.{span.attrs['status']}", 1)
                add("eigensolve.power_method.iterations",
                    span.attrs["iterations"])
        elif span.name.startswith(NEWTON + "."):
            if span.error == "RefinementError":
                add(f"{span.name}.failures", 1)
            elif span.attrs:
                add(f"{span.name}.iterations", span.attrs["iterations"])
        elif span.name == "eigensolve.dedup" and span.attrs:
            add("eigensolve.dedup.inputs", span.attrs["inputs"])
            add("eigensolve.dedup.outputs", span.attrs["outputs"])
        elif span.name == "harness.conjecture_check" and span.attrs:
            add("harness.found_pairs", span.attrs["found_pairs"])
        elif span.name == "jsonio.dump" and span.attrs:
            add("jsonio.dump.bytes", span.attrs["bytes"])
    per_pass = {name: value / passes for name, value in totals.items()}
    calls = totals["eigensolve.power_method.calls"]
    per_pass["eigensolve.power_method.converged_ratio"] = (
        totals["eigensolve.power_method.converged"] / calls if calls else 0.0)
    return per_pass


def count_checks(spans: List[Span], starts: int,
                 newton_seeds: int) -> List[str]:
    """Check the spans of each CLI call against known workload constants.

    A conjecture search cell (n >= 3) runs ``starts`` power iterations and
    ``newton_seeds`` sphere-grid Newton solves; every conjecture cell
    classifies at least as many pairs as it reports found.
    """
    by_root: Dict[int, List[Span]] = {}
    for span in spans:
        by_root.setdefault(id(span.root), []).append(span)
    problems = []
    for cell in by_root.values():
        names = [span.name for span in cell]
        for span in cell:
            if span.name != "harness.conjecture_check" or not span.attrs:
                continue
            n, m = span.attrs["n"], span.attrs["m"]
            label = f"pass {span.pass_id} conjecture (n={n}, m={m})"
            if n >= 3:
                power = names.count("eigensolve.power_method")
                grid = names.count(NEWTON + ".grid")
                if power != starts:
                    problems.append(f"{label}: {power} power_method calls, "
                                    f"expected {starts}")
                if grid != newton_seeds:
                    problems.append(f"{label}: {grid} grid newton_refine "
                                    f"calls, expected {newton_seeds}")
            classified = names.count("stability.classify_pair")
            if classified < span.attrs["found_pairs"]:
                problems.append(f"{label}: {classified} classify_pair calls "
                                f"for {span.attrs['found_pairs']} found pairs")
    return problems
