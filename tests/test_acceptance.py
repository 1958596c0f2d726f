"""Acceptance gate: one test per shipped guarantee.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion. Each test states its tolerance and, where a runtime budget is
part of the guarantee, measures wall-clock time around exactly the work
being bounded. The corpus-wide checks share the session-scoped
eigenpair_corpus fixture from conftest.
"""

import json
import time
from fractions import Fraction

import numpy as np
import numpy.testing as npt

from simplex_spectra import (
    ROB_NOT_ROBUST,
    ROB_ROBUST,
    STAT_LOCAL_MAX,
    VERDICT_CONSISTENT,
    apply_m,
    apply_m1,
    classify_pair,
    conjecture_check,
    make_eigenpair,
    regular_simplex_frame,
    simplex_tensor,
    sweep,
)
from simplex_spectra.harness import conjecture_to_payload, sweep_to_payload
from conftest import (drop_v_mode, full_space_k_j, random_factored,
                      reported_spectrum)

GRID = [(n, m) for n in range(2, 7) for m in range(3, 7)]


def frame_lambda(n, m):
    return Fraction(1) + Fraction(n, (-n) ** m)


def frame_j_eigenvalue(n, m):
    return Fraction((n + 1) * (m - 1), 1 + n * (-n) ** (m - 2))


def test_01_simplex_frame_identities():
    # Unit columns, Gram off-diagonal -1/n, W W^T = ((n+1)/n) I; all 1e-10.
    t0 = time.perf_counter()
    for n in range(1, 9):
        w = regular_simplex_frame(n).vectors
        gram = w.T @ w
        expected_gram = np.full((n + 1, n + 1), -1.0 / n)
        np.fill_diagonal(expected_gram, 1.0)
        npt.assert_allclose(gram, expected_gram, atol=1e-10)
        npt.assert_allclose(w @ w.T, (n + 1) / n * np.eye(n), atol=1e-10)
    assert time.perf_counter() - t0 < 1.0


def test_02_frame_vectors_are_exact_eigenpairs():
    # ||S w_j^{m-1} - lambda w_j|| <= 1e-10 with lambda = 1 + n/(-n)^m.
    t0 = time.perf_counter()
    for n, m in GRID:
        w = regular_simplex_frame(n).vectors
        tensor = simplex_tensor(n, m)
        lam = float(frame_lambda(n, m))
        for j in range(n + 1):
            residual = apply_m1(tensor, w[:, j]) - lam * w[:, j]
            assert np.linalg.norm(residual) <= 1e-10, (n, m, j)
    assert time.perf_counter() - t0 < 10.0


def test_03_jacobian_spectrum_at_frame_vectors():
    # J has eigenvalue 0 once and (n+1)(m-1)/(1+(-n)^{m-2} n) with
    # multiplicity n-1; matched as a sorted multiset within 1e-8, both for
    # J built from its full-space definition and for the reported spectrum.
    for n, m in GRID:
        w = regular_simplex_frame(n).vectors
        tensor = simplex_tensor(n, m)
        expected = sorted([0.0] + [float(frame_j_eigenvalue(n, m))] * (n - 1))
        for j in range(n + 1):
            pair = make_eigenpair(tensor, w[:, j])
            values = np.linalg.eigvalsh(full_space_k_j(tensor, pair)[1])
            npt.assert_allclose(sorted(values), expected, atol=1e-8,
                                err_msg=f"(n={n}, m={m}, j={j})")
            npt.assert_allclose(classify_pair(tensor, pair).j_spectrum,
                                expected, atol=1e-8,
                                err_msg=f"(n={n}, m={m}, j={j})")


def test_04_spectral_radius_matches_closed_forms():
    # Numeric rho within 1e-10 of the odd/even closed form on the grid,
    # plus six pinned values checked as exact rationals.
    pinned = {
        (2, 3): Fraction(2),
        (3, 3): Fraction(1),
        (2, 4): Fraction(1),
        (3, 4): Fraction(3, 7),
        (4, 3): Fraction(2, 3),
        (2, 5): Fraction(4, 5),
    }
    for n, m in GRID:
        if m % 2 == 1:
            rho_closed = Fraction((n + 1) * (m - 1), n ** (m - 1) - 1)
        else:
            rho_closed = Fraction((n + 1) * (m - 1), n ** (m - 1) + 1)
        assert rho_closed == abs(frame_j_eigenvalue(n, m))
        tensor = simplex_tensor(n, m)
        pair = make_eigenpair(tensor, regular_simplex_frame(n).vectors[:, 0])
        report = classify_pair(tensor, pair)
        assert abs(report.rho - float(rho_closed)) <= 1e-10, (n, m)
        if (n, m) in pinned:
            assert rho_closed == pinned[n, m]


def test_05_robustness_threshold_law():
    # (rho < 1) <=> (n + m >= 7) away from the boundary; the only rho = 1
    # cells are (3,3) and (2,4).
    rows = sweep(range(2, 7), range(3, 7))
    boundary = {(r.n, r.m) for r in rows if r.rho_closed == 1.0}
    assert boundary == {(3, 3), (2, 4)}
    for r in rows:
        if (r.n, r.m) in boundary:
            continue
        assert (r.rho_closed < 1.0) == (r.n_plus_m >= 7), (r.n, r.m)
        assert (r.robust_closed == ROB_ROBUST) == r.threshold_pass


def test_06_bridge_identity_across_the_corpus(eigenpair_corpus):
    # On K and J built from their full-space definitions,
    # ||lambda J - K - lambda (I - v v^T)||_F <= 1e-9 (1 + |lambda|) on every
    # corpus pair, and their sorted tangent spectra satisfy
    # lambda sigma(J) = sigma(K) + lambda within 1e-8. classify_pair's
    # k_spectrum and j_spectrum, from the tangent block, equal those
    # full-space spectra with the forced v-mode as an exact 0.0, within 1e-8.
    assert len(eigenpair_corpus) >= 500
    for tensor, pair in eigenpair_corpus:
        k, j = full_space_k_j(tensor, pair)
        p = np.eye(tensor.dim) - np.outer(pair.v, pair.v)
        residual = np.linalg.norm(pair.lam * j - k - pair.lam * p, ord="fro")
        assert residual <= 1e-9 * (1.0 + abs(pair.lam))
        j_values, j_vectors = np.linalg.eigh(j)
        k_values, k_vectors = np.linalg.eigh(k)
        left = np.sort(pair.lam * drop_v_mode(j_values, j_vectors, pair.v))
        right = np.sort(drop_v_mode(k_values, k_vectors, pair.v) + pair.lam)
        npt.assert_allclose(left, right, atol=1e-8)
        report = classify_pair(tensor, pair)
        npt.assert_allclose(report.k_spectrum, reported_spectrum(k, pair.v),
                            atol=1e-8)
        npt.assert_allclose(report.j_spectrum, reported_spectrum(j, pair.v),
                            atol=1e-8)


def test_07_robust_pairs_are_local_maxima(eigenpair_corpus):
    # Zero corpus instances of (Robust and not LocalMax); the converse
    # fails, exhibited by the (2,3) frame vectors (LocalMax, rho = 2).
    offenders = []
    for tensor, pair in eigenpair_corpus:
        report = classify_pair(tensor, pair)
        if report.robust == ROB_ROBUST and report.stationarity != STAT_LOCAL_MAX:
            offenders.append((tensor.dim, tensor.order, pair.lam, report.rho))
    assert offenders == []
    tensor = simplex_tensor(2, 3)
    frame = regular_simplex_frame(2)
    for j in range(3):
        report = classify_pair(tensor, make_eigenpair(tensor, frame.vectors[:, j]))
        assert report.stationarity == STAT_LOCAL_MAX
        assert report.robust == ROB_NOT_ROBUST


def test_08_plane_enumeration_is_complete_and_consistent():
    # n = 2 is solved by the exhaustive angle scan: the full inventory per
    # order, the robust set equal to the frame exactly for m = 5, 6 and
    # empty otherwise, and a consistent verdict. Budget: 30 s.
    t0 = time.perf_counter()
    class_counts = {3: 3, 4: 4, 5: 3, 6: 6}
    for m in (3, 4, 5, 6):
        report = conjecture_check(2, m, seed=0)
        assert not report.heuristic
        assert report.verdict == VERDICT_CONSISTENT
        assert report.found_pairs == class_counts[m]
        assert report.isotropic == (m == 4)
        if 2 + m >= 7:
            assert len(report.robust_pairs) == 3
            assert set(report.frame_verdicts) == {ROB_ROBUST}
        else:
            assert report.robust_pairs == []
    assert time.perf_counter() - t0 < 30.0


def test_09_heuristic_search_finds_no_stray_robust_pairs():
    # n = 3, 4 with 2000 seeded starts per cell: every robust pair found
    # aligns with a frame vector and the frame verdicts match the closed
    # form. A bounded search, labeled heuristic. Budget: 5 min.
    t0 = time.perf_counter()
    for n in (3, 4):
        for m in (3, 4, 5, 6):
            report = conjecture_check(n, m, starts=2000, seed=0)
            assert report.heuristic
            assert report.verdict == VERDICT_CONSISTENT
            assert report.violation is None
            assert set(report.frame_verdicts) == {report.frame_verdict_expected}
            expected_robust = n + 1 if n + m >= 7 else 0
            assert len(report.robust_pairs) == expected_robust, (n, m)
    assert time.perf_counter() - t0 < 300.0


def test_10_reports_are_deterministic():
    # Identical seeds give byte-identical payloads once timestamps are off.
    sweep_payloads = [
        json.dumps(sweep_to_payload(sweep(range(2, 7), range(3, 7)),
                                    include_timestamp=False), sort_keys=True)
        for _ in range(2)
    ]
    assert sweep_payloads[0] == sweep_payloads[1]
    conjecture_payloads = [
        json.dumps(conjecture_to_payload(conjecture_check(3, 4, starts=250, seed=11),
                                         include_timestamp=False), sort_keys=True)
        for _ in range(2)
    ]
    assert conjecture_payloads[0] == conjecture_payloads[1]


def test_11_gradient_matches_finite_differences():
    # grad of v -> S v^m is m S v^{m-1}; central differences, step 1e-5,
    # vector-norm relative error 1e-5, over 50 seeded (S, v) draws.
    h = 1e-5
    for k in range(50):
        n = 2 + k % 4
        m = 3 + (k // 4) % 4
        tensor = random_factored(n, m, r=4, seed=3000 + k)
        v = np.random.default_rng(9000 + k).standard_normal(n)
        v /= np.linalg.norm(v)
        gradient = m * apply_m1(tensor, v)
        diffed = np.empty(n)
        for i in range(n):
            step = np.zeros(n)
            step[i] = h
            diffed[i] = (apply_m(tensor, v + step) - apply_m(tensor, v - step)) / (2 * h)
        error = np.linalg.norm(diffed - gradient)
        assert error <= 1e-5 * max(np.linalg.norm(gradient), 1e-12), k
