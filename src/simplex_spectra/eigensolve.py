"""Real Z-eigenpairs of symmetric tensors: S v^{m-1} = lambda v with |v| = 1.

Three routes are provided and kept deliberately independent so they can
cross-check each other:

* tensor power iteration (normalized contraction map) with period-2 cycle
  detection, which only finds attracting pairs;
* Newton refinement of the square KKT system F(v, lambda) = 0, which polishes
  any nearby pair regardless of its stability;
* an exact inventory for n = 2, where v = (c, s) is an eigenvector exactly
  when the binary form g(c, s) = c (S v^{m-1})_2 - s (S v^{m-1})_1 of
  degree m vanishes, so the real roots of one polynomial give every class.

Sign convention: eigenpairs come in sign classes ((lambda, v) with
(-1)^m lambda, -v). The canonical representative has lambda > 0 for odd
order when |lambda| exceeds MATCH_LAMBDA_TOL. Otherwise (even order, or an
odd-order lambda that is zero up to roundoff) the entries of v sum to a
positive value. A sum within MATCH_ANGLE_TOL of zero is a tie, broken by the
first component larger than MATCH_ANGLE_TOL in magnitude. The sign of a
roundoff-level lambda or sum would otherwise split one class into two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import jsonio
from .tensors import (SymmetricTensor, _as_unit_vector, _norm, apply_m,
                      apply_m1, apply_m2, tensor_from_payload,
                      tensor_to_payload)

ACCEPT_TOL = 1e-10
DEGENERATE_CONTRACTION_TOL = 1e-12
_NEWTON_MAX_ITER = 50
# The ways _newton_block gives up on a row: its failure code indexes the
# RefinementError message, formatted with the row's step count.
_OUT_OF_STEPS, _SINGULAR, _NON_FINITE, _COLLAPSED = 1, 2, 3, 4
_NEWTON_FAILURES = ("", "no convergence within {} Newton steps",
                    "singular linearization after {} steps",
                    "non-finite Newton step after {} steps",
                    "iterate collapsed to zero")
# Two canonicalized pairs are the same pair when both their eigenvalues and
# their eigenvector directions agree within these.
MATCH_LAMBDA_TOL = 1e-8
MATCH_ANGLE_TOL = 1e-8
# The squared chord between unit vectors MATCH_ANGLE_TOL apart: an angle
# rule that a vectorized chord decides without an arcsine.
_MATCH_CHORD2 = (2.0 * math.sin(0.5 * MATCH_ANGLE_TOL)) ** 2

ISOTROPY_REL_TOL = 1e-12

# A true period-2 orbit keeps its two points separated by a fixed distance.
# A negative Jacobian mode at an attracting fixed point also alternates, but
# both alternation points collapse onto the limit, so requiring a minimum
# separation tells the two apart.
CYCLE_SEPARATION = 1e-6
# The power map converges at a step of at most POWER_TOL. The two-step gap
# |v_{k+1} - v_{k-1}| of a period-2 orbit can stall at a few 1e-12 while the
# orbit drifts, above POWER_TOL, so the gap has a bound of its own.
POWER_TOL = 1e-12
CYCLE_GAP_TOL = 1e-9
DEFAULT_MAX_ITER = 5000  # power-map steps of power_method and multi_start

STATUS_CONVERGED = "converged"
STATUS_CYCLING = "cycling"
STATUS_MAX_ITER = "max_iter"


class DegeneratePointError(ValueError):
    """The power map is undefined: S v^{m-1} vanished at v (lambda = 0 direction)."""


class RefinementError(RuntimeError):
    """Newton refinement failed; ``residual`` holds the best KKT residual seen."""

    def __init__(self, message: str, residual: Optional[float] = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class Eigenpair:
    """A canonicalized Z-eigenpair with its KKT residual."""

    lam: float
    v: np.ndarray
    kkt_residual: float
    iterations: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.kkt_residual)):
            raise ValueError("eigenvalue and residual must be finite")
        v = _as_unit_vector(self.v, "eigenvector").copy()
        v.setflags(write=False)
        object.__setattr__(self, "v", v)


def canonical_sign(lam: float, v: np.ndarray, order: int) -> Tuple[float, np.ndarray]:
    """Canonical representative of the eigenpair sign class (see module doc)."""
    odd = order % 2 == 1
    if odd and abs(lam) > MATCH_LAMBDA_TOL:
        return (lam, v) if lam > 0.0 else (-lam, -v)
    s = float(np.sum(v))
    if abs(s) <= MATCH_ANGLE_TOL:
        s = next((float(x) for x in v if abs(x) > MATCH_ANGLE_TOL), 0.0)
    if s >= 0.0:
        return lam, v
    # an odd order flips lambda with v; 0.0 - lam keeps an exact zero unsigned
    return (0.0 - lam if odd else lam), -v


def _unit_start(v0) -> np.ndarray:
    """A given vector, normalized: the start of an iteration or the
    eigenvector of make_eigenpair. Its norm must be positive and finite,
    which refuses a zero vector and any NaN or infinite entry."""
    v = np.asarray(v0, dtype=float)
    norm = _norm(v)
    if not 0.0 < norm < math.inf:
        raise ValueError("vector must be nonzero and finite")
    return v / norm


def make_eigenpair(tensor: SymmetricTensor, v) -> Eigenpair:
    """Normalize v through _unit_start, which refuses a zero or non-finite
    vector, evaluate lambda = S v^m, canonicalize, record the residual."""
    v = _unit_start(v)
    lam = apply_m(tensor, v)
    lam, v = canonical_sign(lam, v, tensor.order)
    residual = _norm(apply_m1(tensor, v) - lam * v)
    return Eigenpair(lam=float(lam), v=v, kkt_residual=residual)


def angle_between(a: np.ndarray, b: np.ndarray) -> float:
    """Angle between unit vectors. Near 0 and pi the arccos of the dot
    product cannot resolve below ~1.5e-8, so use the chord length instead."""
    if float(np.dot(a, b)) >= 0.0:
        return 2.0 * math.asin(min(1.0, 0.5 * _norm(a - b)))
    return math.pi - 2.0 * math.asin(min(1.0, 0.5 * _norm(a + b)))


def power_step(tensor: SymmetricTensor, v) -> np.ndarray:
    """One step of the normalized power map v -> S v^{m-1} / |S v^{m-1}|."""
    return _power_step(tensor, _as_unit_vector(v, "power step input"))


def _power_step(tensor: SymmetricTensor, v: np.ndarray) -> np.ndarray:
    """power_step without its unit-norm check, for iterates that are unit
    by construction."""
    g = apply_m1(tensor, v)
    norm = _norm(g)
    if norm <= DEGENERATE_CONTRACTION_TOL:
        raise DegeneratePointError(
            "S v^{m-1} vanished; v is a lambda = 0 direction or near one"
        )
    return g / norm


@dataclass(eq=False)
class PowerResult:
    """Power iteration outcome; ``last`` is the final iterate, from which
    multi_start's Newton polish builds the pair of a converged start."""

    status: str
    iterations: int
    last: np.ndarray


def power_method(tensor: SymmetricTensor, v0,
                 max_iter: int = DEFAULT_MAX_ITER) -> PowerResult:
    """Iterate the power map until the displacement |v_{k+1} - v_k| is at
    most POWER_TOL.

    A fixed point of the map is an eigenvector with lambda > 0 (for the
    orientation the map settles into). Period-2 oscillation between two
    separated points, the signature of a negative eigenvalue under an even
    order or of boundary dynamics, is reported as cycling rather than ground
    out to max_iter: the step is above CYCLE_SEPARATION while the two-step
    gap |v_{k+1} - v_{k-1}| is at most CYCLE_GAP_TOL. Oscillation with a
    collapsing separation is not a cycle: a contraction with a negative
    Jacobian eigenvalue alternates on its way in, and that trajectory is
    allowed to run to convergence.
    """
    if max_iter < 1:
        raise ValueError("power method needs max_iter >= 1")
    cur = _unit_start(v0)
    prev: Optional[np.ndarray] = None
    for k in range(max_iter):
        nxt = _power_step(tensor, cur)
        moved = _norm(nxt - cur)
        if moved <= POWER_TOL:
            return PowerResult(STATUS_CONVERGED, k, nxt)
        if prev is not None and moved > CYCLE_SEPARATION \
                and _norm(nxt - prev) <= CYCLE_GAP_TOL:
            return PowerResult(STATUS_CYCLING, k, nxt)
        prev = cur
        cur = nxt
    return PowerResult(STATUS_MAX_ITER, max_iter, cur)


def newton_refine(tensor: SymmetricTensor, v0) -> Eigenpair:
    """Newton's method on F(v, lambda) = (S v^{m-1} - lambda v, v.v - 1).

    The linearization is the bordered system
        [ (m-1) S v^{m-2} - lambda I   -v ]
        [ 2 v^T                         0 ].
    Convergence is judged on the KKT residual of the normalized iterate
    u = v / |v|, so a start that already satisfies it is returned after zero
    steps, as the canonical pair (S u^m, u), from one contraction. Any other
    start goes to _newton_block as a batch of one, with that contraction;
    where the block gives up, within _NEWTON_MAX_ITER steps,
    RefinementError carries the best residual seen. Each sphere-grid seed
    that harness._inventory's one _newton_block retires comes back here, so
    every pair is accepted, and signed, by this function.
    """
    u = v = _unit_start(v0)
    s = apply_m2(tensor, u)
    g = s.dot(u)
    lam_u = float(u.dot(g))
    residual = _norm(g - lam_u * u)
    k = 0
    if not residual <= ACCEPT_TOL:
        start = (s[None], g[None], np.array([lam_u]), np.array([residual]))
        ends, lams, residuals, steps, failure, best = _newton_block(
            tensor, v[None], start)
        k = int(steps[0])
        if failure[0]:
            raise RefinementError(_NEWTON_FAILURES[failure[0]].format(k),
                                  residual=float(best[0]))
        u, lam_u, residual = ends[0], float(lams[0]), float(residuals[0])
    # a sign flip leaves the residual's bits as they are
    lam_u, u = canonical_sign(lam_u, u, tensor.order)
    return Eigenpair(lam=lam_u, v=u, kkt_residual=residual, iterations=k)


def _contract(tensor: SymmetricTensor, u: np.ndarray):
    """At each row of u (B, n): s = S u^{m-2}, g = s u = S u^{m-1},
    lambda_u = u.g and the KKT residual |g - lambda_u u|."""
    s = apply_m2(tensor, u.T)
    g = np.matmul(s, u[:, :, None])[:, :, 0]
    lam_u = np.vecdot(u, g)
    r = g - lam_u[:, None] * u
    return s, g, lam_u, np.sqrt(np.vecdot(r, r))


def _solve_each(systems: np.ndarray, rhs: np.ndarray):
    """np.linalg.solve of each system on its own, where the stacked solve
    found one singular: the solutions, NaN where singular, and that mask."""
    out = np.full(rhs.shape, math.nan)
    singular = np.zeros(len(systems), dtype=bool)
    for i, (a, b) in enumerate(zip(systems, rhs)):
        try:
            out[i] = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            singular[i] = True
    return out, singular


# a step may overflow; its row then fails with _NON_FINITE, unwarned
@np.errstate(over="ignore", invalid="ignore")
def _newton_block(tensor: SymmetricTensor, v: np.ndarray,
                  start: Optional[Tuple[np.ndarray, ...]] = None) -> tuple:
    """newton_refine's iteration on every row of v (B, n) at once: the one
    place where a Newton step is taken, for a batch of one from
    newton_refine and for the whole sphere grid from harness._inventory.
    Its stacked arrays, and so its peak memory, grow as B (n+1)^2.
    ``start`` holds _contract at the starts when the caller has it.

    With s = S u^{m-2} at u = v / |v|, g = s u = S u^{m-1} and u.g give the
    residual at u, and since S is homogeneous, |v|^{m-2} s and |v|^{m-1} g
    give the bordered system at the raw iterate v, so each step makes one
    batched contraction and one stacked solve. The raw iterates, their
    Newton-updated lambdas and the v.v - 1 row are kept: stepping on the
    sphere, or resetting lambda to the Rayleigh quotient, is cheaper per
    seed but lands elsewhere near singular pairs.

    A row is retired at a residual of at most ACCEPT_TOL, and fails when it
    runs out of its _NEWTON_MAX_ITER steps, meets a singular system or a
    non-finite step, or collapses to zero. The live arrays are compressed only on a
    step where some row leaves. Returns per row u, lambda_u, the residual
    and the step count, the failure code (0 where retired, else an index
    into _NEWTON_FAILURES) and the best residual seen where it failed.
    """
    count, n = v.shape
    m = tensor.order
    ends = np.empty((count, n))
    lams, residuals, best = np.empty(count), np.empty(count), np.empty(count)
    steps = np.full(count, _NEWTON_MAX_ITER)
    failure = np.full(count, _OUT_OF_STEPS)
    live = np.arange(count)
    vv = np.vecdot(v, v)
    norm = np.sqrt(vv)
    lam = apply_m(tensor, v.T)
    u = v / norm[:, None]
    s, g, lam_u, residual = _contract(tensor, u) if start is None else start
    low = residual
    # the zero corner of every system is never written; rhs is -F(v, lambda)
    bordered = np.zeros((count, n + 1, n + 1))
    rhs = np.empty((count, n + 1, 1))
    for k in range(_NEWTON_MAX_ITER + 1):
        done = residual <= ACCEPT_TOL
        if done.any():
            rows = live[done]
            ends[rows], lams[rows], residuals[rows] = (
                u[done], lam_u[done], residual[done])
            steps[rows], failure[rows] = k, 0
            if done.all():
                break
            going = ~done
            live, v, vv, norm, lam, s, g, low = (
                x[going] for x in (live, v, vv, norm, lam, s, g, low))
        if k == _NEWTON_MAX_ITER:
            best[live] = low
            break
        b = live.size
        system, right = bordered[:b], rhs[:b]
        scale = norm ** (m - 2)
        system[:, :n, :n] = s * ((m - 1) * scale)[:, None, None]
        system.reshape(b, -1)[:, :n * (n + 2):n + 2] -= lam[:, None]
        system[:, :n, n] = -v
        system[:, n, :n] = 2.0 * v
        right[:, :n, 0] = lam[:, None] * v - g * (scale * norm)[:, None]
        right[:, n, 0] = 1.0 - vv
        try:
            step, singular = np.linalg.solve(system, right), False
        except np.linalg.LinAlgError:
            step, singular = _solve_each(system, right)
        step = step[:, :, 0]
        v = v + step[:, :n]
        lam = lam + step[:, n]
        vv = np.vecdot(v, v)
        norm = np.sqrt(vv)
        finite = np.isfinite(step).all(axis=1)
        bad = ~finite | (norm == 0.0)
        if bad.any():
            rows = live[bad]
            failure[rows] = np.where(singular, _SINGULAR, np.where(
                finite, _COLLAPSED, _NON_FINITE))[bad]
            steps[rows], best[rows] = k, low[bad]
            if bad.all():
                break
            going = ~bad
            live, v, vv, norm, lam, low = (
                x[going] for x in (live, v, vv, norm, lam, low))
        u = v / norm[:, None]
        s, g, lam_u, residual = _contract(tensor, u)
        low = np.fmin(low, residual)
    return ends, lams, residuals, steps, failure, best


def _first_match(p: Eigenpair, reps: Sequence[Eigenpair],
                 vs: np.ndarray) -> int:
    """Index of the first of ``reps`` that p matches, or -1. Two pairs match
    when their eigenvalues differ by at most MATCH_LAMBDA_TOL and the angle
    between their eigenvectors is at most MATCH_ANGLE_TOL, that is, when the
    chord between them is at most 2 sin(MATCH_ANGLE_TOL / 2).

    ``vs`` holds the eigenvectors of ``reps`` as rows, and one vectorized
    squared chord per row decides the angle.
    """
    d = vs - p.v
    for j in (np.vecdot(d, d) <= _MATCH_CHORD2).nonzero()[0]:
        if abs(p.lam - reps[j].lam) <= MATCH_LAMBDA_TOL:
            return int(j)
    return -1


def _merge(pairs: Sequence[Eigenpair],
           counts: Sequence[int]) -> Tuple[List[Eigenpair], List[int]]:
    """dedup's representatives and, for each, the sum of the ``counts`` of
    the pairs merged into it: the one place where pairs are matched. Each
    pair, by ascending KKT residual, merges into the first representative
    kept that it matches, or is kept, however the representatives sort."""
    ordered = sorted(zip(pairs, counts), key=lambda pc: (
        pc[0].kkt_residual, -pc[0].lam, tuple(pc[0].v)))
    vs = np.array([p.v for p, _ in ordered])
    reps, totals = [], []
    for i, (p, count) in enumerate(ordered):
        r = len(reps)
        j = _first_match(p, reps, vs[:r])
        if j >= 0:
            totals[j] += count
        else:
            # rows below r hold the representatives; r <= i, so this
            # overwrites no row still to be read
            vs[r] = vs[i]
            reps.append(p)
            totals.append(count)

    def order(merged_pair):
        # rounding Python floats costs a fifth of rounding numpy scalars
        lam, v = merged_pair[0].lam, merged_pair[0].v.tolist()
        return (-round(lam / MATCH_LAMBDA_TOL),
                tuple([round(x / MATCH_ANGLE_TOL) for x in v]), tuple(v))

    merged = sorted(zip(reps, totals), key=order)
    return [p for p, _ in merged], [count for _, count in merged]


def dedup(pairs: Sequence[Eigenpair]) -> List[Eigenpair]:
    """Merge canonicalized duplicates; keep the representative with the
    smallest KKT residual. Output is sorted by descending lambda, then
    lexicographically by eigenvector entries, each rounded to a multiple of
    MATCH_LAMBDA_TOL or MATCH_ANGLE_TOL so that last-bit differences cannot
    reorder it, and last by the raw entries. _merge picks these and also
    counts, so a start counts toward the representative its endpoint was
    merged into."""
    return _merge(pairs, [0] * len(pairs))[0]


@dataclass(eq=False)
class Enumeration2D:
    """Plane enumeration result. ``isotropic`` marks the degenerate case where
    the restriction of S to the unit circle is constant: every direction is
    then an eigenvector and ``pairs`` holds representatives only."""

    pairs: List[Eigenpair]
    isotropic: bool


def enumerate_2d(tensor: SymmetricTensor) -> Enumeration2D:
    """Every eigenpair class of an n = 2 tensor, from one binary form.

    v = (c, s) is an eigenvector exactly when the binary form of degree m
    g(c, s) = c (S v^{m-1})_2 - s (S v^{m-1})_1 vanishes, so there are at
    most m classes. One batched contraction at m + 1 angles of [0, pi)
    samples g. Its point at infinity is put at the sample of largest |g|, so
    the degree never drops, and one solve gives the coefficients of
    g(near + t far) in t. Rounding splits a multiple root into close real
    roots and complex pairs, so the starts are the real roots and the real
    parts of the complex roots where g vanishes, in t order, less each one
    at whose midpoint with the one before g vanishes. g vanishes where |g|
    is at most ISOTROPY_REL_TOL of the contraction scale, which also
    decides isotropy: when g vanishes at all m + 1 samples it vanishes
    identically, S is constant on the circle, and four representatives
    are given. Each start goes to newton_refine, which accepts a root
    accurate to rounding from one contraction, and the pairs to dedup.
    """
    if tensor.dim != 2:
        raise ValueError("plane enumeration requires a 2-dimensional tensor")
    m = tensor.order
    theta = np.arange(m + 1) * (math.pi / (m + 1))
    samples = np.array([np.cos(theta), np.sin(theta)])
    grad = apply_m1(tensor, samples)
    g = samples[0] * grad[1] - samples[1] * grad[0]
    scale = float(np.max(np.linalg.norm(grad, axis=0)))
    if scale <= DEGENERATE_CONTRACTION_TOL:
        raise ValueError(
            "S v^{m-1} vanishes identically on the circle: zero tensor"
        )
    zero = ISOTROPY_REL_TOL * max(1.0, scale)
    j = int(np.argmax(np.abs(g)))
    if abs(g[j]) <= zero:
        witnesses = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
        return Enumeration2D(dedup([
            make_eigenpair(tensor, np.array([math.cos(t), math.sin(t)]))
            for t in witnesses]), True)
    far = samples[:, j]
    near = np.array([far[1], -far[0]])
    powers = np.arange(m, -1, -1)  # of t, as np.roots orders coefficients
    chart = (near @ samples)[:, None] ** (m - powers) \
        * (far @ samples)[:, None] ** powers
    coefficients = np.linalg.solve(chart, g)

    def vanishes(t):
        # g at the unit vector along near + t far
        return np.abs(np.polyval(coefficients, t)) \
            <= zero * (1.0 + t * t) ** (0.5 * m)

    roots = np.roots(coefficients)
    t = np.sort(roots.real[(roots.imag == 0.0) | vanishes(roots.real)])
    t = t[np.append(True, ~vanishes(0.5 * (t[:-1] + t[1:])))]
    starts = near + t[:, None] * far
    pairs = []
    for start in starts / np.linalg.norm(starts, axis=1)[:, None]:
        try:
            pairs.append(newton_refine(tensor, start))
        except RefinementError:
            continue
    return Enumeration2D(dedup(pairs), False)


@dataclass(eq=False)
class SolveSummary:
    """Outcome of a search from random power starts.
    ``basin_counts[i]`` tallies the converged starts whose endpoint was
    merged into ``pairs[i]``, so a pair that only Newton from a sphere grid
    found counts zero. ``failures`` counts the starts whose power iteration did
    not converge plus the converged starts whose Newton polish failed."""

    pairs: List[Eigenpair]
    basin_counts: List[int]
    failures: int


def multi_start(tensor: SymmetricTensor, starts: int, seed: int,
                max_iter: int = DEFAULT_MAX_ITER) -> SolveSummary:
    """Power iteration from ``starts`` random unit vectors, Newton-polished.

    Start i, which power_method normalizes, is row i of one (starts, dim)
    standard-normal draw from default_rng(seed), whose first k rows are
    the draw of k rows. newton_refine builds the pair of a converged start
    from its last iterate, and every other start only counts in
    ``failures``. _merge weighs each endpoint 1, so a start counts toward
    the representative its endpoint was merged into, and the summary holds
    the attracting pairs the power map settles on, each with a positive
    basin count: the witness of the robust pairs, which the sphere-grid
    Newton of harness._inventory joins to give the inventory.
    """
    if starts < 1:
        raise ValueError("multi_start needs at least one start")
    draws = np.random.default_rng(seed).standard_normal((starts, tensor.dim))
    converged: List[Eigenpair] = []
    for d in draws:
        try:
            run = power_method(tensor, d, max_iter=max_iter)
            if run.status == STATUS_CONVERGED:
                converged.append(newton_refine(tensor, run.last))
        except (DegeneratePointError, RefinementError):
            pass  # counted in failures
    pairs, counts = _merge(converged, [1] * len(converged))
    return SolveSummary(pairs, counts, starts - len(converged))


def _generalized_golden(dim: int) -> float:
    # positive root of x^{dim+1} = x + 1, the usual generator for a
    # low-discrepancy Kronecker lattice in dim coordinates
    x = 1.0
    for _ in range(64):
        x = (1.0 + x) ** (1.0 / (dim + 1))
    return x


def sphere_grid(dim: int, count: int) -> np.ndarray:
    """Exactly ``count`` deterministic quasi-uniform unit vectors, the rows
    of a (count, dim) array: equal angles on the circle, the golden-angle
    (Fibonacci) spiral on S^2, and for higher dimensions a Kronecker
    lattice pushed through the normal quantile and normalized."""
    if dim < 2:
        raise ValueError("sphere grid needs dim >= 2")
    if count < 1:
        raise ValueError("sphere grid needs count >= 1")
    k = np.arange(count)
    if dim == 2:
        angle = math.pi * k / count
        return np.stack([np.cos(angle), np.sin(angle)], axis=1)
    if dim == 3:
        z = 1.0 - (2.0 * k + 1.0) / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        angle = math.pi * (3.0 - math.sqrt(5.0)) * k
        return np.stack([r * np.cos(angle), r * np.sin(angle), z], axis=1)
    phi = _generalized_golden(dim)
    # np.power over a range of exponents rounds some of these differently
    alphas = np.array([(1.0 / phi) ** (i + 1) % 1.0 for i in range(dim)])
    # NormalDist's quantile raises at 0 and 1
    u = np.clip((0.5 + (k[:, None] + 1) * alphas) % 1.0, 1e-12, 1.0 - 1e-12)
    x = np.array(list(map(NormalDist().inv_cdf, u.ravel()))).reshape(u.shape)
    return x / np.sqrt(np.vecdot(x, x))[:, None]


def pair_to_payload(pair: Eigenpair) -> dict:
    return {
        "lambda": float(pair.lam),
        "v": [float(x) for x in pair.v],
        "residual": float(pair.kkt_residual),
    }


def pair_from_payload(payload: dict) -> Eigenpair:
    return Eigenpair(
        lam=float(payload["lambda"]),
        v=np.asarray(payload["v"], dtype=float),
        kkt_residual=float(payload["residual"]),
    )


def pairs_to_payload(tensor: SymmetricTensor,
                     pairs: Sequence[Eigenpair]) -> dict:
    return {
        "tensor": tensor_to_payload(tensor),
        "pairs": [pair_to_payload(p) for p in pairs],
    }


def pairs_from_payload(payload: dict):
    """Inverse of pairs_to_payload: (tensor, eigenpairs).

    Every pair must be an eigenpair of the tensor, with a recomputed
    residual |S v^{m-1} - lambda v| of at most ACCEPT_TOL, since a
    classifier presumes S v^{m-1} = lambda v and the stored residual is
    only what the file says.
    """
    with jsonio.reading("tensor"):
        tensor = tensor_from_payload(payload["tensor"])
    with jsonio.reading("pairs"):
        pairs = [pair_from_payload(p) for p in payload["pairs"]]
    if pairs:
        vs = np.array([p.v for p in pairs]).T
        lams = np.array([p.lam for p in pairs])
        residuals = np.linalg.norm(apply_m1(tensor, vs) - lams * vs, axis=0)
        for i, residual in enumerate(residuals):
            if not residual <= ACCEPT_TOL:
                raise ValueError(
                    f"pair {i} has residual {residual:.3g} above ACCEPT_TOL "
                    f"= {ACCEPT_TOL:g}; it is not an eigenpair of its tensor"
                )
    return tensor, pairs
