"""Static rules over the package source.

Each tolerance constant (a module-level name ending in _TOL or _FLOOR) is
assigned in one module only, so changing it is a one-line edit, and is read
somewhere in the package, so a check that is removed takes its tolerance
with it; only jsonio imports json, so the text format of every file the
package writes has one home, and no module depends on the private internals
of the stdlib json encoder; every import sits at module level, where the
dependencies between modules are visible; and the solver takes the norm of a single vector with
its own _norm, because the dispatch of np.linalg.norm costs more than the
norm of a short vector. Newton steps are taken in one place: only
_newton_block, and _solve_each for its singular stacks, call
np.linalg.solve, besides enumerate_2d, which solves once for the
coefficients of its binary form. The pair match is decided once:
_first_match compares one vectorized chord and does not call
angle_between, and pairs are matched in one place: only eigensolve._merge
calls _first_match, and no other module imports it. The package's
__all__ names exactly what its __init__ imports, so a removed export
cannot linger in either list. No module reads the process environment, so
results depend on the arguments alone. Each rule has one home:
UNIT_NORM_TOL is compared in one function, tensors._as_unit_vector, and
ACCEPT_TOL is read in eigensolve alone, which accepts every pair, loaded
ones included. SYMMETRY_TOL is read in SymmetricTensor.__post_init__ alone,
so every dense tensor is symmetry-checked by its constructor. LAMBDA_FLOOR is
read in classify_pair alone, the one verdict from computed spectra. A shape
is read from its array: neither Frame nor SymmetricTensor takes a dim or
count argument. The package makes one random generator, in one call of
default_rng outside any loop, so a run's random starts are the rows of one
draw.
"""

import ast
import inspect
from collections import defaultdict
from pathlib import Path

import simplex_spectra

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "simplex_spectra"


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _tolerance_homes():
    homes = defaultdict(list)
    for name, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) \
                        and target.id.endswith(("_TOL", "_FLOOR")):
                    homes[target.id].append(name)
    assert homes, "no tolerance constants found"
    return homes


def test_each_tolerance_constant_has_one_home():
    homes = _tolerance_homes()
    shared = {const: mods for const, mods in homes.items() if len(mods) > 1}
    assert not shared


def test_each_tolerance_constant_is_read():
    read = {node.id for tree in _modules().values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = set(_tolerance_homes()) - read
    assert not unread, sorted(unread)


def test_only_jsonio_imports_json():
    importers = set()
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(mod.split(".")[0] == "json" for mod in modules):
                importers.add(name)
    assert importers == {"jsonio.py"}


def test_no_module_uses_json_encoder_internals():
    offenders = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json.encoder":
                offenders.append(name)
            elif isinstance(node, ast.Import) and any(
                    alias.name == "json.encoder" for alias in node.names):
                offenders.append(name)
            elif isinstance(node, ast.Attribute) and node.attr == "encoder" \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "json":
                offenders.append(name)
    assert not offenders


def test_no_function_level_imports():
    offenders = []
    for name, tree in _modules().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders.extend(
                    f"{name}:{node.lineno}" for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert not offenders


def test_eigensolve_calls_numpy_norm_only_along_an_axis():
    tree = _modules()["eigensolve.py"]
    offenders = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "norm"
        and ast.unparse(node.func.value).endswith("linalg")
        and not any(k.arg == "axis" for k in node.keywords)
    ]
    assert not offenders


def test_eigensolve_solves_newton_systems_in_one_place():
    tree = _modules()["eigensolve.py"]
    callers = set()
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            callers.update(
                func.name for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and ast.unparse(node.func).endswith("linalg.solve"))
    assert callers == {"_newton_block", "_solve_each", "enumerate_2d"}


def test_pair_match_is_one_chord_rule():
    tree = _modules()["eigensolve.py"]
    match = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_first_match")
    called = {ast.unparse(node.func) for node in ast.walk(match)
              if isinstance(node, ast.Call)}
    assert "angle_between" not in called


def test_pairs_are_matched_in_the_one_merge():
    callers, importers = set(), set()
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                callers.update(
                    f"{name}:{node.name}" for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and ast.unparse(call.func).endswith("_first_match"))
            elif isinstance(node, ast.ImportFrom) and any(
                    alias.name == "_first_match" for alias in node.names):
                importers.add(name)
    assert callers == {"eigensolve.py:_merge"}
    assert not importers


def test_package_all_matches_its_public_imports():
    missing = [name for name in simplex_spectra.__all__
               if not hasattr(simplex_spectra, name)]
    assert not missing
    assert len(set(simplex_spectra.__all__)) == len(simplex_spectra.__all__)
    tree = _modules()["__init__.py"]
    public = {alias.asname or alias.name for node in tree.body
              if isinstance(node, ast.ImportFrom) for alias in node.names
              if not (alias.asname or alias.name).startswith("_")}
    unlisted = public - set(simplex_spectra.__all__)
    assert not unlisted, sorted(unlisted)


def test_no_module_reads_the_environment():
    readers = {"environ", "environb", "getenv", "getenvb"}
    offenders = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in readers:
                offenders.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                    and any(alias.name in readers for alias in node.names):
                offenders.append(f"{name}:{node.lineno}")
    assert not offenders


def test_unit_norm_tol_is_compared_in_one_function():
    comparers = set()
    for name, tree in _modules().items():
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                comparers.update(
                    f"{name}:{func.name}" for node in ast.walk(func)
                    if isinstance(node, ast.Compare)
                    and "UNIT_NORM_TOL" in ast.unparse(node))
    assert comparers == {"tensors.py:_as_unit_vector"}


def test_accept_tol_is_read_only_in_eigensolve():
    readers = {name for name, tree in _modules().items()
               for node in ast.walk(tree)
               if isinstance(node, ast.Name) and node.id == "ACCEPT_TOL"
               and isinstance(node.ctx, ast.Load)}
    importers = {name for name, tree in _modules().items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and any(alias.name == "ACCEPT_TOL" for alias in node.names)}
    assert readers == {"eigensolve.py"}
    assert not importers


def _readers(constant):
    """Where ``constant`` is read: "module:function", "module:Class.method",
    or "module:" for a read outside any top-level function or method."""
    def reads(node):
        return sum(isinstance(inner, ast.Name) and inner.id == constant
                   and isinstance(inner.ctx, ast.Load)
                   for inner in ast.walk(node))

    readers = set()
    for name, tree in _modules().items():
        scopes = [(func.name, func) for func in tree.body
                  if isinstance(func, ast.FunctionDef)]
        scopes += [(f"{cls.name}.{func.name}", func) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) for func in cls.body
                   if isinstance(func, ast.FunctionDef)]
        readers.update(f"{name}:{scope}" for scope, func in scopes
                       if reads(func))
        if reads(tree) > sum(reads(func) for _, func in scopes):
            readers.add(f"{name}:")
    return readers


def test_symmetry_tol_is_read_only_in_the_tensor_constructor():
    assert _readers("SYMMETRY_TOL") == {
        "tensors.py:SymmetricTensor.__post_init__"}


def test_lambda_floor_is_read_only_in_classify_pair():
    assert _readers("LAMBDA_FLOOR") == {"stability.py:classify_pair"}


def test_frame_and_tensor_take_no_shape_argument():
    for cls in (simplex_spectra.Frame, simplex_spectra.SymmetricTensor):
        taken = set(inspect.signature(cls).parameters)
        assert not taken & {"dim", "count"}, cls.__name__


def _rng_calls(node, name):
    return [f"{name}:{inner.lineno}" for inner in ast.walk(node)
            if isinstance(inner, ast.Call)
            and ast.unparse(inner.func).endswith("default_rng")]


def test_one_random_generator_outside_any_loop():
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    calls, in_loops = [], []
    for name, tree in _modules().items():
        calls.extend(_rng_calls(tree, name))
        for node in ast.walk(tree):
            if isinstance(node, loops):
                in_loops.extend(_rng_calls(node, name))
    assert len(calls) == 1, calls
    assert not in_loops, in_loops
