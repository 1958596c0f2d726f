import dataclasses
import math
from statistics import NormalDist

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simplex_spectra import (
    Eigenpair,
    RefinementError,
    STATUS_CONVERGED,
    STATUS_CYCLING,
    STATUS_MAX_ITER,
    SymmetricTensor,
    angle_between,
    apply_m,
    apply_m1,
    apply_m2,
    canonical_sign,
    classify_pair,
    dedup,
    densify,
    enumerate_2d,
    frame_tensor,
    from_rank_one_sum,
    make_eigenpair,
    multi_start,
    newton_refine,
    orthonormal_frame,
    power_method,
    power_step,
    regular_simplex_frame,
    simplex_tensor,
    sphere_grid,
)
from simplex_spectra import eigensolve, harness
from simplex_spectra.eigensolve import (ACCEPT_TOL, CYCLE_GAP_TOL,
                                        CYCLE_SEPARATION,
                                        MATCH_ANGLE_TOL, MATCH_LAMBDA_TOL,
                                        pairs_from_payload, pairs_to_payload)
from simplex_spectra.harness import _inventory
from simplex_spectra.stability import ROB_ROBUST, STAT_DEGENERATE
from conftest import odeco_tensor, random_factored


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_norm_equals_numpy_norm_exactly():
    # _norm stands in for np.linalg.norm on every 1-d norm of the solver, so
    # its bits must be numpy's, for contiguous vectors and strided views
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        x = rng.standard_normal(int(rng.integers(1, 9)))
        x *= 10.0 ** rng.uniform(-5.0, 5.0)
        assert eigensolve._norm(x) == np.linalg.norm(x)
        column = np.outer(x, [1.0, 3.0])[:, 1]
        assert eigensolve._norm(column) == np.linalg.norm(column)


# ---------------------------------------------------------------- power map


def test_power_step_squares_coordinates_of_odeco_cubic():
    # For sum_i e_i^(x)3 the map sends v to (v_1^2, ..., v_n^2) normalized.
    t = odeco_tensor(2, 3)
    out = power_step(t, np.array([0.8, 0.6]))
    npt.assert_allclose(out, unit([0.64, 0.36]), atol=1e-15)


def test_power_step_fixes_eigenvectors():
    t = odeco_tensor(3, 3)
    npt.assert_allclose(power_step(t, np.eye(3)[0]), np.eye(3)[0], atol=1e-15)


def test_power_step_on_the_plane_simplex_tensor():
    # At (0,1) the image is proportional to (S_122, S_222) = (-3/4, 0).
    t = simplex_tensor(2, 3)
    npt.assert_allclose(power_step(t, np.array([0.0, 1.0])),
                        np.array([-1.0, 0.0]), atol=1e-15)


def test_power_step_requires_unit_input():
    with pytest.raises(ValueError):
        power_step(odeco_tensor(2, 3), np.array([1.0, 1.0]))


def test_power_method_converges_on_attracting_pair():
    t = odeco_tensor(2, 3)
    res = power_method(t, unit([0.9, 0.436]))
    assert res.status == STATUS_CONVERGED
    npt.assert_allclose(res.last, [1.0, 0.0], atol=1e-10)
    pair = make_eigenpair(t, res.last)
    npt.assert_allclose(pair.lam, 1.0, atol=1e-12)
    npt.assert_allclose(pair.v, [1.0, 0.0], atol=1e-10)
    assert pair.kkt_residual < 1e-10


def test_power_method_accepts_exact_eigenvector_immediately():
    res = power_method(odeco_tensor(3, 4), np.eye(3)[1])
    assert res.status == STATUS_CONVERGED
    assert res.iterations == 0


def test_power_method_detects_period_two_cycle():
    # With weight -1 and even order the map flips v to -v every step.
    t = SymmetricTensor(order=4, weights=np.array([-1.0]),
                        vectors=np.array([[1.0], [0.0]]))
    res = power_method(t, np.array([1.0, 0.0]))
    assert res.status == STATUS_CYCLING
    npt.assert_array_equal(res.last, [1.0, 0.0])


def test_power_method_converges_through_damped_alternation():
    # At a (4,3) frame vector the Jacobian's tangent eigenvalue is -2/3: the
    # error flips sign every step while it shrinks. That must be treated as
    # convergence, not mistaken for a period-2 cycle.
    t = simplex_tensor(4, 3)
    w = regular_simplex_frame(4).vectors[:, 0]
    res = power_method(t, unit(w + [0.05, -0.03, 0.02, 0.04]), max_iter=400)
    assert res.status == STATUS_CONVERGED
    assert angle_between(res.last, w) < 1e-8
    npt.assert_allclose(make_eigenpair(t, res.last).lam, 15.0 / 16.0,
                        atol=1e-12)


def test_power_method_reports_non_convergence_on_repelling_tensor():
    # Every fixed point of the plane simplex cubic has spectral radius 2.
    res = power_method(simplex_tensor(2, 3), unit([np.cos(0.3), np.sin(0.3)]),
                       max_iter=500)
    assert res.status == STATUS_MAX_ITER
    assert res.iterations == 500


@pytest.mark.parametrize("seed, start", [(0, 737), (7, 1894)])
def test_power_method_catches_a_slowly_drifting_cycle(seed, start):
    # Starts of `conjecture --n 3 --m 3`, as multi_start drew them before
    # it drew all its starts from one generator.
    # Their two iterates stay 1.414 apart while the two-step gap stalls at
    # a few 1e-12, above the convergence tol, for hundreds of steps.
    rng = np.random.default_rng([seed, start])
    d = rng.standard_normal(3)
    res = power_method(simplex_tensor(3, 3), d / eigensolve._norm(d))
    assert res.status == STATUS_CYCLING
    assert res.iterations <= 10


def _power_method_by_steps(tensor, v0, tol=1e-12, max_iter=5000):
    """power_method's loop over the public, checked power_step: (status,
    iterations, last)."""
    cur = v0 / eigensolve._norm(v0)
    prev = None
    for k in range(max_iter):
        nxt = power_step(tensor, cur)
        moved = eigensolve._norm(nxt - cur)
        if moved <= tol:
            return STATUS_CONVERGED, k, nxt
        if prev is not None and moved > CYCLE_SEPARATION \
                and eigensolve._norm(nxt - prev) <= CYCLE_GAP_TOL:
            return STATUS_CYCLING, k, nxt
        prev, cur = cur, nxt
    return STATUS_MAX_ITER, max_iter, cur


def test_power_method_matches_a_loop_over_power_step(monkeypatch):
    def checked_step(tensor, v):
        raise AssertionError("power_method re-checked a unit iterate")

    # the reference loop calls the power_step imported above, not this name
    monkeypatch.setattr(eigensolve, "power_step", checked_step)
    rng = np.random.default_rng(31)
    statuses = set()
    for t in (simplex_tensor(3, 3), simplex_tensor(4, 6), odeco_tensor(3, 4)):
        for _ in range(50):
            v0 = rng.standard_normal(t.dim)
            res = power_method(t, v0)
            status, iterations, last = _power_method_by_steps(t, v0)
            assert (res.status, res.iterations) == (status, iterations)
            npt.assert_array_equal(res.last, last)
            statuses.add(status)
    assert statuses == {STATUS_CONVERGED, STATUS_CYCLING}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_power_method_and_newton_refuse_a_non_finite_start(bad):
    t = simplex_tensor(3, 3)
    with pytest.raises(ValueError, match="unit vector"):
        power_step(t, [bad, 0.2, 0.1])
    for solver in (power_method, newton_refine, make_eigenpair):
        with pytest.raises(ValueError, match="finite"):
            solver(t, [bad, 0.2, 0.1])
        with pytest.raises(ValueError, match="nonzero"):
            solver(t, [0.0, 0.0, 0.0])


# ---------------------------------------------------------------- refinement


def test_newton_refine_lands_on_frame_vector():
    t = simplex_tensor(2, 3)
    deg = np.radians(1.0)
    pair = newton_refine(t, np.array([np.cos(deg), np.sin(deg)]))
    npt.assert_allclose(pair.lam, 0.75, atol=1e-12)
    npt.assert_allclose(pair.v, [1.0, 0.0], atol=1e-10)
    assert pair.kkt_residual <= 1e-10
    assert 0 < pair.iterations <= 10


def test_newton_refine_finds_odeco_midpoint():
    t = odeco_tensor(2, 3)
    pair = newton_refine(t, unit([0.72, 0.7]))
    npt.assert_allclose(pair.lam, 2.0 ** -0.5, atol=1e-12)
    npt.assert_allclose(pair.v, unit([1.0, 1.0]), atol=1e-10)


def test_newton_refine_returns_exact_input_untouched():
    t = simplex_tensor(3, 4)
    w = regular_simplex_frame(3).vectors[:, 2]
    pair = newton_refine(t, w)
    assert pair.iterations == 0
    npt.assert_allclose(pair.lam, 28.0 / 27.0, atol=1e-12)


def test_newton_refine_raises_with_best_residual_on_budget_exhaustion():
    with pytest.raises(RefinementError) as err:
        newton_refine(simplex_tensor(3, 5), sphere_grid(3, 2000)[34])
    assert str(err.value) == "no convergence within 50 Newton steps"
    assert err.value.residual == pytest.approx(0.14893048471130207, rel=1e-9)


def test_newton_refine_makes_one_contraction_per_iterate(monkeypatch):
    calls = {}
    for name in ("apply_m", "apply_m1", "apply_m2"):
        def counted(tensor, v, _name=name, _fn=getattr(eigensolve, name)):
            calls[_name] += 1
            return _fn(tensor, v)
        monkeypatch.setattr(eigensolve, name, counted)
    factored = random_factored(3, 4, r=5, seed=21)
    steps = 0
    for t in (simplex_tensor(3, 3), factored, densify(factored)):
        for v0 in sphere_grid(3, 20):
            calls.update(apply_m=0, apply_m1=0, apply_m2=0)
            try:
                pair = newton_refine(t, v0)
            except RefinementError:
                continue
            assert calls == {"apply_m": 1, "apply_m1": 0,
                             "apply_m2": pair.iterations + 1}
            steps += pair.iterations
    assert steps > 0
    # a start that is already a pair is accepted from one contraction, with
    # no S v^m for a Newton lambda
    t = simplex_tensor(3, 4)
    for w in regular_simplex_frame(3).vectors.T:
        calls.update(apply_m=0, apply_m1=0, apply_m2=0)
        assert newton_refine(t, w).iterations == 0
        assert calls == {"apply_m": 0, "apply_m1": 0, "apply_m2": 1}


def _diagonal_quadratic():
    # S = e1 e1^T - e2 e2^T: at (1, 1)/sqrt(2), lambda = 0 and (1, -1) is a
    # null direction of the bordered system, which LU meets exactly
    return from_rank_one_sum([(1.0, [1.0, 0.0]), (-1.0, [0.0, 1.0])], 2)


def test_newton_refine_reports_a_singular_linearization():
    # the start's residual, |S v - 0 v| = |(1, -1)/sqrt(2)| = 1, is the best
    with pytest.raises(RefinementError) as err:
        newton_refine(_diagonal_quadratic(), unit([1.0, 1.0]))
    assert str(err.value) == "singular linearization after 0 steps"
    assert err.value.residual == pytest.approx(1.0, rel=1e-12)


def _two_point_newton(tensor, v0, max_iter=50):
    """newton_refine with a contraction per use: S v^m and S v^{m-1} at the
    normalized iterate for the residual, S v^{m-2} and S v^{m-1} at the raw
    iterate for the bordered system, and make_eigenpair on accept. None
    where newton_refine raises RefinementError."""
    n, m = tensor.dim, tensor.order
    v = np.asarray(v0, dtype=float)
    v = v / eigensolve._norm(v)
    norm = eigensolve._norm(v)
    lam = apply_m(tensor, v)
    bordered = np.zeros((n + 1, n + 1))
    rhs = np.empty(n + 1)
    for k in range(max_iter + 1):
        vn = v / norm
        residual = eigensolve._norm(apply_m1(tensor, vn)
                                    - apply_m(tensor, vn) * vn)
        if residual <= ACCEPT_TOL:
            return dataclasses.replace(make_eigenpair(tensor, vn), iterations=k)
        if k == max_iter:
            return None
        bordered[:n, :n] = (m - 1) * apply_m2(tensor, v) - lam * np.eye(n)
        bordered[:n, n] = -v
        bordered[n, :n] = 2.0 * v
        rhs[:n] = apply_m1(tensor, v) - lam * v
        rhs[n] = float(v @ v) - 1.0
        try:
            step = np.linalg.solve(bordered, -rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(step).all():
            return None
        v = v + step[:n]
        lam = lam + float(step[n])
        norm = eigensolve._norm(v)
        if norm == 0.0:
            return None
    return None


def _newton_assigned_by_slices(tensor, v0, max_iter=50):
    """newton_refine's iteration as the stacked step on a batch of one: the
    contractions of a one-column batch, |v|^{m-2} by numpy's power on a
    one-element array, and a (1, n + 1, n + 1) bordered system and rhs
    built by slice assignment from fresh temporaries. The start is
    normalized once; later iterates are divided by their norms."""
    n, m = tensor.dim, tensor.order
    v = eigensolve._unit_start(v0)
    norm = np.sqrt([v @ v])
    lam = apply_m(tensor, v[:, None])[0]
    best = None
    for k in range(max_iter + 1):
        u = v / norm[0] if k else v
        s = apply_m2(tensor, u[:, None])[0]
        g = s @ u
        lam_u = float(u @ g)
        residual = eigensolve._norm(g - lam_u * u)
        if residual <= ACCEPT_TOL:
            lam_u, u = canonical_sign(lam_u, u, m)
            return Eigenpair(lam=lam_u, v=u, kkt_residual=residual,
                             iterations=k)
        best = residual if best is None else min(best, residual)
        if k == max_iter:
            break
        scale = (norm ** (m - 2))[0]
        bordered = np.zeros((1, n + 1, n + 1))
        bordered[0, :n, :n] = s * ((m - 1) * scale) - lam * np.eye(n)
        bordered[0, :n, n] = -v
        bordered[0, n, :n] = 2.0 * v
        rhs = np.empty((1, n + 1, 1))
        rhs[0, :n, 0] = lam * v - g * (scale * norm[0])
        rhs[0, n, 0] = 1.0 - v @ v
        try:
            step = np.linalg.solve(bordered, rhs)[0, :, 0]
        except np.linalg.LinAlgError as exc:
            raise RefinementError(
                f"singular linearization after {k} steps", residual=best
            ) from exc
        if not np.isfinite(step).all():
            raise RefinementError(
                f"non-finite Newton step after {k} steps", residual=best
            )
        v = v + step[:n]
        lam = lam + step[n]
        norm = np.sqrt([v @ v])
        if norm[0] == 0.0:
            raise RefinementError("iterate collapsed to zero", residual=best)
    raise RefinementError(
        f"no convergence within {max_iter} Newton steps", residual=best
    )


def _newton_outcome(refine, tensor, v0):
    try:
        p = refine(tensor, v0)
    except RefinementError as exc:
        return ("error", str(exc), exc.residual)
    return (p.lam, p.v.tobytes(), p.iterations, p.kkt_residual)


@pytest.mark.parametrize("build, dim", [
    (lambda: simplex_tensor(3, 3), 3),
    (lambda: simplex_tensor(3, 4), 3),
    (lambda: random_factored(3, 4, r=5, seed=21), 3),
    (lambda: densify(random_factored(3, 4, r=5, seed=21)), 3),
    (lambda: simplex_tensor(4, 6), 4),
], ids=["simplex-3-3", "simplex-3-4", "factored-3-4", "dense-3-4",
        "simplex-4-6"])
def test_newton_refine_assembles_in_place_bit_for_bit(build, dim):
    # both sides call the same apply_m2, so only the assembly can differ
    t = build()
    outcomes = set()
    for v0 in sphere_grid(dim, 300):
        ours = _newton_outcome(newton_refine, t, v0)
        assert ours == _newton_outcome(_newton_assigned_by_slices, t, v0)
        outcomes.add(ours[0] == "error")
    assert False in outcomes


def _unmatched(pairs, others):
    return [p for p in pairs
            if not any(abs(p.lam - q.lam) <= MATCH_LAMBDA_TOL
                       and angle_between(p.v, q.v) <= MATCH_ANGLE_TOL
                       for q in others)]


# (4,6) has singular eigenpairs at lambda = 125/1024, where Newton stalls
# and its endpoints depend on last bits; only there may inventories differ.
SINGULAR_46 = 125.0 / 1024.0


@pytest.mark.parametrize("build, dim, every_seed", [
    (lambda: simplex_tensor(3, 3), 3, True),
    (lambda: simplex_tensor(3, 4), 3, True),
    (lambda: random_factored(3, 4, r=5, seed=21), 3, False),
    (lambda: densify(random_factored(3, 4, r=5, seed=21)), 3, False),
    (lambda: simplex_tensor(4, 6), 4, False),
], ids=["simplex-3-3", "simplex-3-4", "factored-3-4", "dense-3-4",
        "simplex-4-6"])
def test_newton_refine_keeps_the_two_point_trajectory(build, dim, every_seed):
    t = build()
    seeds = sphere_grid(dim, 500)
    ours, reference = [], []
    agree = 0
    for v0 in seeds:
        try:
            pair = newton_refine(t, v0)
        except RefinementError:
            pair = None
        ref = _two_point_newton(t, v0)
        agree += (pair is None and ref is None) or (
            pair is not None and ref is not None
            and pair.iterations == ref.iterations)
        if pair is not None:
            scale = 1e-14 * max(1.0, abs(pair.lam))
            assert abs(pair.lam - apply_m(t, pair.v)) <= scale
            assert abs(pair.kkt_residual - eigensolve._norm(
                apply_m1(t, pair.v) - pair.lam * pair.v)) <= scale
            ours.append(pair)
        if ref is not None:
            reference.append(ref)
    assert agree == len(seeds) if every_seed else agree >= 0.98 * len(seeds)
    ours, reference = dedup(ours), dedup(reference)
    differ = _unmatched(ours, reference) + _unmatched(reference, ours)
    assert all(abs(p.lam - SINGULAR_46) <= MATCH_LAMBDA_TOL for p in differ)
    assert len(differ) <= 0.05 * len(ours)


def test_newton_refine_agrees_on_dense_and_factored_storage():
    t = random_factored(3, 4, r=5, seed=21)
    dense = densify(t)
    rng = np.random.default_rng(8)
    steps = 0
    for p in dedup([newton_refine(t, v0) for v0 in sphere_grid(3, 30)]):
        v0 = unit(p.v + 1e-2 * rng.standard_normal(3))
        a = newton_refine(t, v0)
        b = newton_refine(dense, v0)
        assert a.iterations == b.iterations > 0
        assert abs(a.lam - b.lam) <= 1e-12
        npt.assert_allclose(a.v, b.v, rtol=0, atol=1e-12)
        # the bordered system is reused within a call, never across calls
        again = newton_refine(t, v0)
        assert again.iterations == a.iterations and again.lam == a.lam
        npt.assert_array_equal(again.v, a.v)
        steps += a.iterations
    assert steps > 0


def _retired(tensor, points):
    # the endpoints of the rows of points that one _newton_block retires
    ends, _, _, _, failure, _ = eigensolve._newton_block(tensor, points)
    return ends[failure == 0]


def _grid_inventory(tensor, starts):
    pairs = []
    for start in starts:
        try:
            pairs.append(newton_refine(tensor, start))
        except RefinementError:
            continue
    return dedup(pairs)


@pytest.mark.parametrize("n, m", [(3, 3), (3, 4), (3, 5), (3, 6),
                                  (4, 3), (4, 4), (4, 5)])
def test_batched_grid_newton_finds_the_scalar_inventory(n, m):
    # the scalar side is the test's own loop, not _newton_block
    t = simplex_tensor(n, m)
    points = sphere_grid(n, 2000)
    scalar = dedup([p for p in (_two_point_newton(t, v0) for v0 in points)
                    if p is not None])
    batched = _grid_inventory(t, _retired(t, points))
    assert len(batched) == len(scalar)
    assert all(_reference_same(p, q) for p, q in zip(batched, scalar))


def test_batched_grid_newton_keeps_the_classes_of_the_singular_cell():
    # at (4,6) the endpoints near the singular pairs at lambda = 125/1024
    # depend on last bits, so only the eigenvalue classes and the robust
    # pairs are held fixed there
    t = simplex_tensor(4, 6)
    points = sphere_grid(4, 2000)
    scalar = _grid_inventory(t, points)
    batched = _grid_inventory(t, _retired(t, points))
    for a, b in ((scalar, batched), (batched, scalar)):
        assert all(any(abs(p.lam - q.lam) <= MATCH_LAMBDA_TOL for q in b)
                   for p in a)
    robust = [[p for p in pairs if classify_pair(t, p).robust == ROB_ROBUST]
              for pairs in (scalar, batched)]
    assert len(robust[0]) == len(robust[1]) == 5
    assert all(_reference_same(p, q) for p, q in zip(*robust))


@pytest.mark.parametrize("build, points, bad, singular, message", [
    (_diagonal_quadratic,
     np.array([unit([1.0, 0.3]), unit([0.2, 1.0]), unit([1.0, 1.0]),
               unit([1.0, -0.6]), unit([-0.4, 1.0])]), 2, True,
     "singular linearization after 0 steps"),
    # grid seed 34 of (3,5) runs through all 50 Newton steps
    (lambda: simplex_tensor(3, 5), sphere_grid(3, 2000)[30:40], 4, False,
     "no convergence within 50 Newton steps"),
], ids=["singular", "out-of-steps"])
def test_grid_newton_drops_a_failing_seed(build, points, bad, singular,
                                          message, monkeypatch):
    t = build()
    solved_each = []

    def spy(systems, rhs, _inner=eigensolve._solve_each):
        solved_each.append(len(systems))
        return _inner(systems, rhs)

    monkeypatch.setattr(eigensolve, "_solve_each", spy)
    ends = _retired(t, points)
    assert bool(solved_each) == singular
    assert len(ends) == len(points) - 1
    # stepped alone, the dropped seed still fails in newton_refine
    with pytest.raises(RefinementError) as err:
        newton_refine(t, points[bad])
    assert str(err.value) == message
    _, _, _, _, failure, best = eigensolve._newton_block(
        t, np.array(points[bad:bad + 1]))
    assert failure[0] and err.value.residual == best[0]
    alone = _retired(t, np.delete(points, bad, axis=0))
    # BLAS may sum a row of the batched contraction in another order when
    # the batch has another size, so endpoints agree to roundoff, not bits
    npt.assert_allclose(ends, alone, rtol=0, atol=1e-14)
    for end in ends:
        assert newton_refine(t, end).iterations == 0


@pytest.mark.filterwarnings("error")
def test_grid_newton_fails_an_overflowing_step_without_a_warning():
    # on the odeco (4,5) grid seeds 866 and 1978 step out of range; they
    # fail, quietly, as non-finite
    t = frame_tensor(orthonormal_frame(4), 5)
    points = sphere_grid(4, 2000)
    assert len(_retired(t, points)) < len(points)
    _, _, _, _, failure, _ = eigensolve._newton_block(t, points)
    npt.assert_array_equal(
        (failure == eigensolve._NON_FINITE).nonzero()[0], [866, 1978])


def test_inventory_steps_the_whole_grid_in_one_newton_block(monkeypatch):
    # at (3,3) every power start cycles, so no polish steps, and each grid
    # endpoint is accepted after zero steps: every Newton step is the grid's
    rows = []

    def spy(tensor, v, start=None, _inner=eigensolve._newton_block):
        rows.append(len(v))
        return _inner(tensor, v, start)

    monkeypatch.setattr(eigensolve, "_newton_block", spy)
    monkeypatch.setattr(harness, "_newton_block", spy)
    summary = _inventory(simplex_tensor(3, 3), 20, seed=0, max_iter=5000,
                         grid_points=2000)
    assert rows == [2000]
    assert len(summary.pairs) == 7


@pytest.mark.parametrize("n, m, starts, max_iter, count", [
    (3, 3, 200, 5000, 7), (2, 3, 40, 60, 3)], ids=["3-3", "2-3"])
def test_inventory_finds_what_newton_finds_from_each_grid_seed(
        n, m, starts, max_iter, count):
    # every start cycles or runs out of steps, so the pairs are the grid's:
    # _newton_block steps its seeds together, and the inventory must find
    # what the test's own loop finds from each one
    t = simplex_tensor(n, m)
    summary = _inventory(t, starts, seed=0, max_iter=max_iter,
                         grid_points=starts)
    assert summary.failures == starts
    assert summary.basin_counts == [0] * count
    expected = dedup([p for p in (_two_point_newton(t, v)
                                  for v in sphere_grid(n, starts))
                      if p is not None])
    assert len(summary.pairs) == len(expected) == count
    assert all(_reference_same(p, q) for p, q in zip(summary.pairs, expected))


# ---------------------------------------------------------------- enumeration


@pytest.mark.parametrize("m,count,lams", [
    (3, 3, {0.75: 3}),
    (5, 3, {0.9375: 3}),
    (6, 6, {1.03125: 3, 0.84375: 3}),
])
def test_enumerate_2d_on_simplex_tensors(m, count, lams):
    res = enumerate_2d(simplex_tensor(2, m))
    assert not res.isotropic
    assert len(res.pairs) == count
    found = sorted(round(p.lam, 10) for p in res.pairs)
    expected = sorted(l for l, k in lams.items() for _ in range(k))
    npt.assert_allclose(found, expected, atol=1e-10)
    assert all(p.kkt_residual <= 1e-10 for p in res.pairs)


def test_enumerate_2d_flags_the_isotropic_quartic():
    # The plane simplex quartic is 9/8 on the whole circle: every direction
    # is an eigenvector, and the scan reports representatives plus the flag.
    res = enumerate_2d(simplex_tensor(2, 4))
    assert res.isotropic
    assert len(res.pairs) == 4
    for p in res.pairs:
        npt.assert_allclose(p.lam, 1.125, atol=1e-12)
        assert p.kkt_residual <= 1e-12


def test_enumerate_2d_decides_a_zero_tensor_as_the_power_map_does():
    # at weight 5e-13 S v^{m-1} is below DEGENERATE_CONTRACTION_TOL on the
    # whole circle, where power_method refuses every start, so it is zero,
    # not isotropic. At 2e-12 the tensor keeps its 3 classes.
    def tiny(weight):
        return SymmetricTensor(order=3, weights=np.full(3, weight),
                               vectors=regular_simplex_frame(2).vectors)

    with pytest.raises(ValueError, match="zero tensor"):
        enumerate_2d(tiny(5e-13))
    for start in sphere_grid(2, 5):
        with pytest.raises(eigensolve.DegeneratePointError):
            power_method(tiny(5e-13), start)
    res = enumerate_2d(tiny(2e-12))
    assert not res.isotropic and len(res.pairs) == 3
    assert enumerate_2d(simplex_tensor(2, 4)).isotropic


def test_enumerate_2d_finds_frame_directions():
    res = enumerate_2d(simplex_tensor(2, 3))
    w = regular_simplex_frame(2).vectors
    for p in res.pairs:
        best = min(angle_between(p.v, w[:, j]) for j in range(3))
        assert best < 1e-10


def test_enumerate_2d_catches_on_grid_roots_regardless_of_noise_sign():
    # Rotating the tensor moves the roots off and back onto the angles where
    # g is sampled; the class count must not depend on where they land.
    base = regular_simplex_frame(2).vectors
    for shift in (0.0, 1e-9, np.pi / 720.0, 0.123):
        c, s = np.cos(shift), np.sin(shift)
        q = np.array([[c, -s], [s, c]])
        t = SymmetricTensor(order=6, weights=np.ones(3),
                            vectors=q @ base)
        assert len(enumerate_2d(t).pairs) == 6


def test_enumerate_2d_samples_its_binary_form_in_one_contraction(monkeypatch):
    shapes = []

    def counted(tensor, v):
        shapes.append(np.shape(v))
        return apply_m1(tensor, v)

    monkeypatch.setattr(eigensolve, "apply_m1", counted)
    for m in (3, 5, 6):
        shapes.clear()
        enumerate_2d(simplex_tensor(2, m))
        assert shapes == [(2, m + 1)]


def _plane_factored(weights, angles, order):
    return SymmetricTensor(order=order, weights=np.array(weights),
                           vectors=np.array([np.cos(angles), np.sin(angles)]))


def test_enumerate_2d_resolves_two_roots_inside_one_scan_cell():
    # Two of the three classes lie 4.5e-4 rad apart, well inside a cell of
    # a 720- or 2000-point angle scan, which saw neither sign change.
    t = _plane_factored([-0.522112, -1.0, 0.613137, 0.974247],
                        [0.1, 0.9, 1.7, 2.5], 3)
    pairs = enumerate_2d(t).pairs
    assert len(pairs) == 3
    assert all(p.kkt_residual <= ACCEPT_TOL for p in pairs)
    lams = sorted(p.lam for p in pairs)
    assert lams[1] - lams[0] < 1e-9 and lams[2] - lams[1] > 0.1


def _rotated_cubic(f111, f122, phi, f222=0.0):
    # the dense (2,3) tensor of f = f111 c^3 + 3 f122 c s^2 + f222 s^3,
    # turned by phi
    e = np.zeros((2, 2, 2))
    e[0, 0, 0], e[1, 1, 1] = f111, f222
    e[0, 1, 1] = e[1, 0, 1] = e[1, 1, 0] = f122
    c, s = math.cos(phi), math.sin(phi)
    q = np.array([[c, -s], [s, c]])
    return SymmetricTensor(order=3, entries=np.einsum(
        "ia,jb,kc,abc->ijk", q, q, q, e))


@pytest.mark.parametrize("phi", [0.0, 0.3, 1.0, 2.2])
def test_enumerate_2d_counts_a_triple_root_once(phi):
    # f = -8 c^3 - 12 c s^2 gives g = 4 s^3: one class, a degenerate
    # critical point of f on the circle, whose split roots must not count
    # as three pairs. Rounding moves a triple root by about its cube root.
    t = _rotated_cubic(-8.0, -4.0, phi)
    pairs = enumerate_2d(t).pairs
    assert len(pairs) == 1
    npt.assert_allclose(pairs[0].lam, 8.0, atol=1e-12)
    assert angle_between(pairs[0].v, [-math.cos(phi), -math.sin(phi)]) < 1e-4
    assert classify_pair(t, pairs[0]).stationarity == STAT_DEGENERATE


@pytest.mark.parametrize("phi", [0.0, 0.3, 1.0, 2.2])
def test_enumerate_2d_counts_a_double_root_once(phi):
    # f = c^3 + 1.5 c s^2 + 0.7 s^3 gives g = s^2 (2.1 c - 1.5 s): a double
    # root, which rounding splits into two real roots 1e-8 apart or into a
    # complex pair, and a simple root
    t = _rotated_cubic(1.0, 0.5, phi, f222=0.7)
    pairs = enumerate_2d(t).pairs
    assert len(pairs) == 2
    double = min(pairs, key=lambda p: abs(p.lam - 1.0))
    npt.assert_allclose(double.lam, 1.0, atol=1e-12)
    assert classify_pair(t, double).stationarity == STAT_DEGENERATE


@pytest.mark.parametrize("m", [3, 7, 8])
def test_enumerate_2d_counts_a_rank_one_tensor_as_two_classes(m):
    # w u^m has the eigenvectors u and u_perp, where g has a root of
    # multiplicity m - 1 (lambda = 0)
    for a in np.linspace(0.0, math.pi, 7, endpoint=False):
        t = _plane_factored([1.3], [a], m)
        assert sorted(round(p.lam, 9) for p in enumerate_2d(t).pairs) \
            == [0.0, 1.3]


def _sign_scan(weights, angles, order, points):
    """A points-cell scan of [0, pi) for the sign changes of g(theta) =
    sum_i w_i cos^{m-1}(theta - a_i) sin(a_i - theta), the last cell
    closing at g(pi) = (-1)^m g(0): the left end of each cell where g
    changes sign, the smallest slope |dg / dtheta| across such a cell, and
    the smallest local minimum of |g| away from them, both over max |g|."""
    theta = np.linspace(0.0, math.pi, points, endpoint=False)
    c, s = np.cos(theta), np.sin(theta)
    g = np.zeros(points)
    for w, a in zip(weights, angles):
        ca, sa = math.cos(a), math.sin(a)
        along, term = ca * c + sa * s, w * (sa * c - ca * s)
        for _ in range(order - 1):  # float ** int costs ten products here
            term *= along
        g += term
    step = np.append(g[1:], (-1) ** order * g[0]) - g
    change = g * (g + step) < 0.0
    mag = np.abs(g)
    dip = (mag <= np.roll(mag, 1)) & (mag <= np.roll(mag, -1)) \
        & ~change & ~np.roll(change, 1)
    top = mag.max()
    slope = np.abs(step[change]).min(initial=math.inf) * points / math.pi
    return theta[change], slope / top, mag[dip].min(initial=math.inf) / top


@settings(max_examples=20, deadline=None)
@given(order=st.integers(3, 6),
       terms=st.lists(st.tuples(st.floats(0.1, 1.0), st.booleans(),
                                st.floats(0.0, math.pi)),
                      min_size=2, max_size=4))
def test_enumerate_2d_equals_a_dense_sign_scan(order, terms):
    weights = [w if plus else -w for w, plus, _ in terms]
    angles = [a for _, _, a in terms]
    points = 10 ** 6
    changes, slope, dip = _sign_scan(weights, angles, order, points)
    # Where roots crowd within 1e-5, a sign scan is blind or wrong: it sees
    # neither a root of even multiplicity nor two roots in one cell (both
    # dip |g| near zero), and rounding moves a root with a flat slope.
    assume(slope > 1e-6 and dip > 1e-8)
    assume(np.all(np.diff(np.append(changes, changes[:1] + math.pi)) >= 1e-5))
    pairs = enumerate_2d(_plane_factored(weights, angles, order)).pairs
    found = np.sort([math.atan2(p.v[1], p.v[0]) % math.pi for p in pairs])
    assert found.size == changes.size
    assert np.all(np.abs(found - changes) <= math.pi / points)


def test_enumerate_2d_rejects_bad_inputs():
    with pytest.raises(ValueError):
        enumerate_2d(simplex_tensor(3, 3))
    zero = SymmetricTensor(order=3, entries=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        enumerate_2d(zero)


# ---------------------------------------------------------------- dedup


def _pair(lam, v, residual):
    return Eigenpair(lam=lam, v=unit(v), kkt_residual=residual)


def test_dedup_keeps_best_residual_representative():
    a = _pair(1.0, [1.0, 0.0], 1e-11)
    b = _pair(1.0 + 1e-12, [1.0, 1e-10], 1e-13)
    reps = dedup([a, b])
    assert len(reps) == 1
    assert reps[0].kkt_residual == b.kkt_residual


def test_dedup_merges_below_arccos_resolution():
    # Separations around 5e-12 are far below what arccos of a dot product
    # can resolve; they must still merge under the 1e-8 angle tolerance.
    v = unit([-1.0 / 3.0, np.sqrt(8.0) / 3.0, 0.0])
    w = unit(v + np.array([1e-12, -1e-12, 5e-12]))
    reps = dedup([_pair(1.0, v, 1e-12), _pair(1.0, w, 1e-11)])
    assert len(reps) == 1


def test_dedup_separates_distinct_classes():
    reps = dedup([
        _pair(1.0, [1.0, 0.0], 1e-12),
        _pair(1.0, [0.0, 1.0], 1e-12),
        _pair(0.5, [1.0, 0.0], 1e-12),
    ])
    assert len(reps) == 3
    assert [p.lam for p in reps] == [1.0, 1.0, 0.5]


def test_dedup_orders_by_descending_eigenvalue():
    reps = dedup([_pair(0.1, [0.0, 1.0], 0.0), _pair(2.0, [1.0, 0.0], 0.0)])
    assert [p.lam for p in reps] == [2.0, 0.1]


def test_dedup_order_survives_last_bit_moves_of_lambda():
    # The (4,6) frame lambdas read 1.0009765625 and 1.0009765625000013;
    # moving one by a few ulp must not reorder the representatives.
    t = simplex_tensor(4, 6)
    w = regular_simplex_frame(4).vectors
    pairs = [make_eigenpair(t, w[:, j]) for j in range(5)]
    order = [pairs.index(p) for p in dedup(pairs)]
    assert sorted(order) == list(range(5))
    for i in range(5):
        for ulps in (-3, -2, -1, 1, 2, 3):
            moved = list(pairs)
            lam = pairs[i].lam + ulps * math.ulp(pairs[i].lam)
            moved[i] = dataclasses.replace(pairs[i], lam=lam)
            assert [moved.index(p) for p in dedup(moved)] == order, (i, ulps)


def test_dedup_order_survives_last_bit_moves_of_v():
    # The first entries of two (3,5) frame vectors can read
    # -0.33333333333333337 and -0.3333333333333333; moving an entry by a
    # few ulp must not reorder the representatives.
    t = simplex_tensor(3, 5)
    w = regular_simplex_frame(3).vectors
    pairs = [make_eigenpair(t, w[:, j]) for j in range(4)]
    order = [pairs.index(p) for p in dedup(pairs)]
    assert sorted(order) == list(range(4))
    for i in range(4):
        for k in range(3):
            for ulps in (-3, -2, -1, 1, 2, 3):
                v = pairs[i].v.copy()
                v[k] += ulps * math.ulp(v[k])
                moved = list(pairs)
                moved[i] = dataclasses.replace(pairs[i], v=v)
                assert [moved.index(p) for p in dedup(moved)] == order, \
                    (i, k, ulps)


def _reference_same(p, r):
    return (abs(p.lam - r.lam) <= MATCH_LAMBDA_TOL
            and angle_between(p.v, r.v) <= MATCH_ANGLE_TOL)


def _reference_merge(pairs):
    """dedup by a pairwise scan, and how many of ``pairs`` merge into each
    representative: the first kept one a pair matches, in residual order."""
    ordered = sorted(pairs, key=lambda p: (p.kkt_residual, -p.lam, tuple(p.v)))
    reps, counts = [], []
    for p in ordered:
        j = next((j for j, r in enumerate(reps) if _reference_same(p, r)),
                 None)
        if j is None:
            reps.append(p)
            counts.append(1)
        else:
            counts[j] += 1
    kept = sorted(range(len(reps)), key=lambda j: (
        -round(reps[j].lam / MATCH_LAMBDA_TOL),
        tuple(round(x / MATCH_ANGLE_TOL) for x in reps[j].v),
        tuple(reps[j].v)))
    return [reps[j] for j in kept], [counts[j] for j in kept]


def _family_inventory():
    """Pairs at one eigenvalue along a great circle, like the non-isolated
    (4,6) family, with duplicates near every edge of the matching rule."""
    rng = np.random.default_rng(17)
    u = unit([1.0, 2.0, -1.0, 0.5])
    w = unit([2.0, -1.0, 0.5, 1.0] - np.dot([2.0, -1.0, 0.5, 1.0], u) * u)
    lam = 125.0 / 1024.0
    pairs = []

    def add(theta, sign=1.0, dlam=0.0):
        v = sign * (math.cos(theta) * u + math.sin(theta) * w)
        pairs.append(Eigenpair(lam + dlam, v, rng.uniform(0.0, 1e-10)))

    for k in range(320):
        add(0.01 * k)
    for k in range(0, 320, 7):
        add(0.01 * k + 5e-9)  # below arccos resolution
    for k in range(3, 320, 11):
        add(0.01 * k + 0.999999 * MATCH_ANGLE_TOL)
        add(0.01 * k + 1.000001 * MATCH_ANGLE_TOL)
    for k in range(5, 320, 13):
        add(0.01 * k + 5e-9, sign=-1.0)  # near-antipodal: dot < 0
    for k in range(1, 320, 17):
        for f in (0.5, 0.999, 1.001, 2.0):
            add(0.01 * k, dlam=f * MATCH_LAMBDA_TOL)
    return pairs


def test_dedup_and_basin_counts_agree_with_a_pairwise_scan():
    pairs = _family_inventory()
    expected, _ = _reference_merge(pairs)
    assert 320 < len(expected) < len(pairs)
    for inventory in ([], pairs[:1], pairs):
        expected, expected_counts = _reference_merge(inventory)
        reps = dedup(inventory)
        merged, counts = eigensolve._merge(inventory, [1] * len(inventory))
        assert len(reps) == len(merged) == len(expected)
        assert all(a is b is c for a, b, c in zip(reps, merged, expected))
        assert counts == expected_counts
        assert sum(counts) == len(inventory)


def _chained_pairs():
    """a and b lie apart; c lies within the match rule of both. a, with the
    smallest residual, is kept first, c merges into it, and b sorts first."""
    return (_pair(1.0, [1.0, 0.0], 1e-13),
            _pair(1.0, [1.0, -1.5 * MATCH_ANGLE_TOL], 2e-13),
            _pair(1.0, [1.0, -0.75 * MATCH_ANGLE_TOL], 3e-13))


def test_a_start_counts_toward_the_representative_it_merged_into(
        monkeypatch):
    a, b, c = _chained_pairs()
    endpoints = iter([c, b, a])
    monkeypatch.setattr(eigensolve, "power_method", lambda t, d, max_iter:
                        eigensolve.PowerResult(STATUS_CONVERGED, 0, d))
    monkeypatch.setattr(eigensolve, "newton_refine",
                        lambda t, v: next(endpoints))
    summary = multi_start(simplex_tensor(2, 3), starts=3, seed=0)
    assert summary.pairs == [b, a]
    assert summary.basin_counts == [1, 2]


def test_a_witness_pair_counts_toward_the_representative_it_merged_into(
        monkeypatch):
    a, b, c = _chained_pairs()
    grid = iter([a, b])
    monkeypatch.setattr(harness, "multi_start", lambda *args, **kwargs:
                        eigensolve.SolveSummary([c], [5], 0))
    monkeypatch.setattr(harness, "_newton_block", lambda t, points: (
        points, None, None, None, np.zeros(len(points), dtype=int), None))
    monkeypatch.setattr(harness, "newton_refine", lambda t, v: next(grid))
    summary = _inventory(simplex_tensor(2, 3), 5, 0, 10, 2)
    assert summary.pairs == [b, a]
    assert summary.basin_counts == [0, 5]


# ---------------------------------------------------------------- sign rules


def test_canonical_sign_prefers_positive_lambda_for_odd_order():
    lam, v = canonical_sign(-2.0, np.array([0.0, 1.0]), 3)
    assert lam == 2.0
    npt.assert_array_equal(v, [0.0, -1.0])


def test_canonical_sign_keeps_lambda_for_even_order():
    lam, v = canonical_sign(-2.0, np.array([-1.0, -1.0]) / np.sqrt(2), 4)
    assert lam == -2.0
    assert v.sum() > 0


def test_canonical_sign_breaks_zero_sum_tie_by_first_nonzero():
    lam, v = canonical_sign(1.0, unit([-1.0, 1.0]), 4)
    assert v[0] > 0


def test_canonical_sign_treats_roundoff_lambda_as_zero_for_odd_order():
    # v and -v of one lambda = 0 class must not split on the sign of noise
    v = unit([-2.0, 1.0, 0.5])
    for lam in (1e-17, -1e-17):
        lam_a, a = canonical_sign(lam, v, 3)
        lam_b, b = canonical_sign(-lam, -v, 3)
        npt.assert_array_equal(a, b)
        assert lam_a == lam_b
        assert a.sum() > 0


@pytest.mark.parametrize("n,m,seeds,classes", [
    (2, 4, 200, 4), (3, 4, 300, 13), (3, 6, 300, 13),
])
def test_odeco_sign_classes_do_not_split_at_roundoff_sums(n, m, seeds,
                                                         classes):
    # Unit-weight odeco pairs have entries 0 or +-c; (3^n - 1)/2 classes, many
    # with entries summing to 0, where Newton endpoints of one class sum to
    # roundoff of either sign.
    t = odeco_tensor(n, m)
    endpoints = []
    for point in sphere_grid(n, seeds):
        try:
            endpoints.append(newton_refine(t, point))
        except RefinementError:
            continue
    assert len(dedup(endpoints)) == classes == (3 ** n - 1) // 2
    for w in ([1.0, -1.0 + 1e-15], [-1.0, 1.0 + 1e-15]):
        _, v = canonical_sign(1.0, unit(w), m)
        assert v[0] > 0


def test_make_eigenpair_canonicalizes_and_scores():
    t = simplex_tensor(2, 3)
    pair = make_eigenpair(t, [-1.0, 0.0])
    # odd order: the -w1 copy of the class is reported as +w1
    npt.assert_allclose(pair.lam, 0.75, atol=1e-15)
    npt.assert_allclose(pair.v, [1.0, 0.0], atol=0)
    assert pair.kkt_residual < 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_eigenpair_rejects_non_finite_values(bad):
    with pytest.raises(ValueError):
        Eigenpair(lam=bad, v=np.array([1.0, 0.0]), kkt_residual=0.0)
    with pytest.raises(ValueError):
        Eigenpair(lam=1.0, v=np.array([1.0, 0.0]), kkt_residual=bad)
    with pytest.raises(ValueError):
        Eigenpair(lam=1.0, v=np.array([1.0, bad]), kkt_residual=0.0)


def test_angle_between_resolves_tiny_and_obtuse_angles():
    u = unit([1.0, 0.0, 0.0])
    w = unit([1.0, 5e-12, 0.0])
    assert 4e-12 < angle_between(u, w) < 6e-12
    npt.assert_allclose(angle_between(u, -u), np.pi, atol=1e-15)
    npt.assert_allclose(angle_between(u, unit([0.0, 1.0, 0.0])),
                        np.pi / 2.0, atol=1e-12)


# ---------------------------------------------------------------- multi-start


def test_multi_start_covers_all_frame_classes_in_the_robust_regime():
    t = simplex_tensor(3, 4)
    summary = multi_start(t, starts=300, seed=42)
    assert summary.failures == 0
    assert len(summary.pairs) == 4
    w = regular_simplex_frame(3).vectors
    for p in summary.pairs:
        npt.assert_allclose(p.lam, 28.0 / 27.0, atol=1e-10)
        best = min(min(angle_between(p.v, w[:, j]),
                       angle_between(p.v, -w[:, j])) for j in range(4))
        assert best < 1e-8
    assert all(c > 0 for c in summary.basin_counts)
    assert sum(summary.basin_counts) == 300


def test_multi_start_counts_basins_under_damped_alternation():
    # Odd order with n + m >= 7: attraction exists but approaches with an
    # alternating sign, so these basins vanish if that is misread as cycling.
    t = simplex_tensor(4, 3)
    summary = multi_start(t, starts=100, seed=5)
    assert summary.failures == 0
    assert len(summary.pairs) == 5
    for p in summary.pairs:
        npt.assert_allclose(p.lam, 15.0 / 16.0, atol=1e-10)
    assert all(c > 0 for c in summary.basin_counts)
    assert sum(summary.basin_counts) == 100


def test_inventory_finds_the_repelling_pairs_with_newton():
    # rho = 2 at every pair of (2,3), so no power start converges
    t = simplex_tensor(2, 3)
    summary = _inventory(t, 30, seed=7, max_iter=300, grid_points=30)
    assert summary.failures == 30
    assert len(summary.pairs) == 3
    assert summary.basin_counts == [0, 0, 0]
    for p in summary.pairs:
        npt.assert_allclose(p.lam, 0.75, atol=1e-10)


def test_multi_start_without_rescue_keeps_only_converged_starts():
    # every start of the (3,3) simplex cubic cycles, so nothing is left
    summary = multi_start(simplex_tensor(3, 3), 100, seed=0, max_iter=400)
    assert summary.pairs == []
    assert summary.basin_counts == []
    assert summary.failures == 100


def test_multi_start_is_deterministic():
    t = simplex_tensor(3, 4)
    a = multi_start(t, starts=60, seed=3)
    b = multi_start(t, starts=60, seed=3)
    assert a.basin_counts == b.basin_counts and a.failures == b.failures
    for p, q in zip(a.pairs, b.pairs):
        assert p.lam == q.lam
        npt.assert_array_equal(p.v, q.v)


def test_multi_start_agrees_with_exhaustive_enumeration_in_the_plane():
    for seed in range(4):
        t = random_factored(2, 4, r=3, seed=seed)
        scan = enumerate_2d(t)
        if scan.isotropic:
            continue
        summary = multi_start(t, starts=80, seed=1, max_iter=800)
        for p in summary.pairs:
            best = min(
                abs(p.lam - q.lam) + angle_between(p.v, q.v)
                for q in scan.pairs
            )
            assert best < 1e-7


def test_multi_start_requires_a_start():
    with pytest.raises(ValueError):
        multi_start(simplex_tensor(2, 3), starts=0, seed=0)


def test_multi_start_powers_the_rows_of_one_draw(monkeypatch):
    t = simplex_tensor(3, 4)
    handed = []

    def spy(tensor, v0, max_iter, _inner=eigensolve.power_method):
        handed.append(np.array(v0))
        return _inner(tensor, v0, max_iter=max_iter)

    monkeypatch.setattr(eigensolve, "power_method", spy)
    multi_start(t, starts=40, seed=7)
    draw = np.random.default_rng(7).standard_normal((40, 3))
    npt.assert_array_equal(np.array(handed), draw)
    # the first k of K starts are the starts of a run with k
    handed.clear()
    multi_start(t, starts=15, seed=7)
    npt.assert_array_equal(np.array(handed), draw[:15])


# ---------------------------------------------------------------- start grids


def _sphere_grid_by_points(dim, count):
    """sphere_grid as one point at a time: the reference its array form
    keeps, bit for bit."""
    if dim == 2:
        return [np.array([math.cos(math.pi * k / count),
                          math.sin(math.pi * k / count)])
                for k in range(count)]
    if dim == 3:
        golden_angle = math.pi * (3.0 - math.sqrt(5.0))
        points = []
        for k in range(count):
            z = 1.0 - (2.0 * k + 1.0) / count
            r = math.sqrt(max(0.0, 1.0 - z * z))
            points.append(np.array([r * math.cos(golden_angle * k),
                                    r * math.sin(golden_angle * k), z]))
        return points
    phi = eigensolve._generalized_golden(dim)
    alphas = np.array([(1.0 / phi) ** (i + 1) % 1.0 for i in range(dim)])
    quantile = NormalDist().inv_cdf
    points = []
    for k in range(count):
        u = np.clip((0.5 + (k + 1) * alphas) % 1.0, 1e-12, 1.0 - 1e-12)
        x = np.array([quantile(ui) for ui in u])
        points.append(x / eigensolve._norm(x))
    return points


@pytest.mark.parametrize("dim", range(2, 9))
@pytest.mark.parametrize("count", [1, 20, 2000])
def test_sphere_grid_is_one_array_of_the_reference_points(dim, count):
    grid = sphere_grid(dim, count)
    assert isinstance(grid, np.ndarray)
    assert grid.shape == (count, dim) and grid.dtype == np.float64
    reference = np.array(_sphere_grid_by_points(dim, count))
    assert grid.tobytes() == reference.tobytes()


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_sphere_grid_yields_unit_vectors(dim):
    pts = sphere_grid(dim, 50)
    assert len(pts) == 50
    for p in pts:
        npt.assert_allclose(np.linalg.norm(p), 1.0, atol=1e-12)


def test_sphere_grid_is_deterministic():
    a = np.array(sphere_grid(3, 64))
    b = np.array(sphere_grid(3, 64))
    npt.assert_array_equal(a, b)


def test_sphere_grid_spreads_points_apart():
    pts = np.array(sphere_grid(3, 200))
    dots = pts @ pts.T
    np.fill_diagonal(dots, -2.0)
    # no two of 200 spiral points should nearly coincide
    assert dots.max() < 1.0 - 1e-4


def test_sphere_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sphere_grid(1, 10)
    with pytest.raises(ValueError):
        sphere_grid(3, 0)


# ---------------------------------------------------------------- round trips


def test_pairs_payload_round_trip():
    t = simplex_tensor(2, 5)
    pairs = enumerate_2d(t).pairs
    back_t, back_pairs = pairs_from_payload(pairs_to_payload(t, pairs))
    assert back_t.order == 5 and back_t.dim == 2
    assert len(back_pairs) == len(pairs)
    for p, q in zip(pairs, back_pairs):
        assert p.lam == q.lam
        npt.assert_array_equal(p.v, q.v)


def test_pairs_from_payload_accepts_only_eigenpairs_of_its_tensor():
    t = simplex_tensor(3, 4)
    pairs = multi_start(t, 20, seed=0).pairs
    payload = pairs_to_payload(t, pairs)
    _, back = pairs_from_payload(payload)
    assert [p.v.tobytes() for p in back] == [p.v.tobytes() for p in pairs]
    # the stored residual is kept as written; only recomputing it tells
    payload["pairs"][1]["lambda"] *= 3.0
    with pytest.raises(ValueError, match=r"pair 1 has residual .* ACCEPT_TOL"):
        pairs_from_payload(payload)
