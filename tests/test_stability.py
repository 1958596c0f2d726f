from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from simplex_spectra import (
    Eigenpair,
    ROB_BOUNDARY,
    ROB_NOT_ROBUST,
    ROB_ROBUST,
    ROB_UNDEFINED,
    STAT_DEGENERATE,
    STAT_LOCAL_MAX,
    STAT_LOCAL_MIN,
    STAT_SADDLE,
    SymmetricTensor,
    apply_m,
    classify_pair,
    classify_robustness,
    classify_stationarity,
    closed_form_verdict,
    densify,
    frame_vector_prediction,
    make_eigenpair,
    regular_simplex_frame,
    simplex_tensor,
    tangent_block,
)
from simplex_spectra import stability
from conftest import (drop_v_mode, full_space_k_j, odeco_tensor,
                      random_factored, reported_spectrum)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def simplex_pair(n, m, j=0):
    t = simplex_tensor(n, m)
    return t, make_eigenpair(t, regular_simplex_frame(n).vectors[:, j])


# ---------------------------------------------------------------- matrices


def tangent_k(t, pair):
    return tangent_block(t, pair)[1] - pair.lam * np.eye(t.dim - 1)


def test_hessian_of_plane_simplex_cubic_at_frame_vector():
    t, pair = simplex_pair(2, 3)
    npt.assert_allclose(tangent_k(t, pair), [[-2.25]], atol=1e-13)


def test_hessian_of_odeco_cubic_at_basis_vector():
    t = odeco_tensor(2, 3)
    pair = make_eigenpair(t, [1.0, 0.0])
    npt.assert_allclose(tangent_k(t, pair), [[-1.0]], atol=1e-14)


def test_jacobian_vanishes_for_odeco_basis_pairs():
    t = odeco_tensor(2, 3)
    pair = make_eigenpair(t, [1.0, 0.0])
    npt.assert_allclose(tangent_block(t, pair)[1] / pair.lam, [[0.0]],
                        atol=1e-14)
    npt.assert_allclose(classify_pair(t, pair).j_spectrum, [0.0, 0.0],
                        atol=1e-14)


def test_jacobian_spectrum_at_plane_frame_vector():
    t, pair = simplex_pair(2, 3)
    npt.assert_allclose(tangent_block(t, pair)[1] / pair.lam, [[-2.0]],
                        atol=1e-12)
    npt.assert_allclose(classify_pair(t, pair).j_spectrum, [-2.0, 0.0],
                        atol=1e-12)


def test_jacobian_spectrum_for_three_dims_order_four():
    t, pair = simplex_pair(3, 4)
    values = np.linalg.eigvalsh(tangent_block(t, pair)[1] / pair.lam)
    npt.assert_allclose(values, [3.0 / 7.0, 3.0 / 7.0], atol=1e-12)
    npt.assert_allclose(classify_pair(t, pair).j_spectrum,
                        [0.0, 3.0 / 7.0, 3.0 / 7.0], atol=1e-12)


def test_jacobian_needs_nonzero_lambda():
    # K still exists at lambda = 0, so the tangent block and the K spectrum
    # are reported; the power map has no Jacobian there.
    t = SymmetricTensor(order=3, dim=2, weights=np.array([1.0]),
                        vectors=np.array([[0.0], [1.0]]))
    pair = make_eigenpair(t, [1.0, 0.0])  # S e1^2 = 0, lambda = 0
    assert pair.lam == 0.0
    npt.assert_allclose(tangent_block(t, pair)[1], [[0.0]], atol=1e-15)
    report = classify_pair(t, pair)
    assert report.k_spectrum.shape == (2,)
    assert report.j_spectrum is None and report.rho is None


@pytest.mark.parametrize("v", [
    [0.6, -0.48, 0.64],
    [-0.6, 0.48, 0.64],
    [0.0, 0.6, -0.8],
    [-1.0, 0.0, 0.0],
    [0.5, -0.5, 0.5, -0.5],
])
def test_tangent_basis_is_orthonormal_and_orthogonal_to_v(v):
    t = random_factored(len(v), 4, 5, seed=3)
    pair = Eigenpair(lam=1.0, v=np.array(v), kkt_residual=0.0)
    q, a = tangent_block(t, pair)
    assert q.shape == (len(v), len(v) - 1) and a.shape == (len(v) - 1,) * 2
    npt.assert_allclose(q.T @ q, np.eye(len(v) - 1), atol=1e-14)
    npt.assert_allclose(q.T @ pair.v, np.zeros(len(v) - 1), atol=1e-14)


def test_forced_modes_annihilate_the_eigenvector():
    # The forced v-mode is reported as an exact 0.0 in both spectra, in
    # ascending order among the n - 1 tangent eigenvalues.
    t, pair = simplex_pair(4, 5)
    report = classify_pair(t, pair)
    for spectrum in (report.k_spectrum, report.j_spectrum):
        assert spectrum.shape == (4,)
        assert np.count_nonzero(spectrum == 0.0) == 1
        assert np.all(np.diff(spectrum) >= 0.0)
    npt.assert_allclose(report.k_spectrum[report.k_spectrum != 0.0],
                        np.linalg.eigvalsh(tangent_k(t, pair)), atol=1e-12)


def test_tangent_block_is_exactly_symmetric():
    # eigvalsh reads one triangle only, so a must be symmetric to the bit
    rng = np.random.default_rng(11)
    for n, m in [(2, 3), (3, 4), (4, 5), (5, 6)]:
        factored = random_factored(n, m, 2 * n, seed=n + m)
        for t in (factored, densify(factored)):
            a = tangent_block(t, make_eigenpair(t, rng.standard_normal(n)))[1]
            npt.assert_array_equal(a, a.T)


def test_projected_hessian_matches_second_derivative_on_the_sphere():
    # For a unit tangent u = q c, d^2/ds^2 S(v cos s + u sin s)^m at s = 0
    # equals m c' (a - lambda) c; check by central differences at eigenpairs.
    rng = np.random.default_rng(6)
    for n, m in [(2, 3), (3, 4), (4, 5)]:
        t, pair = simplex_pair(n, m)
        q = tangent_block(t, pair)[0]
        k = tangent_k(t, pair)
        for _ in range(3):
            c = unit(rng.standard_normal(n - 1))
            u = q @ c
            h = 1e-4

            def f(s):
                return apply_m(t, np.cos(s) * pair.v + np.sin(s) * u)

            second = (f(h) - 2.0 * f(0.0) + f(-h)) / h ** 2
            npt.assert_allclose(second, m * float(c @ k @ c),
                                rtol=1e-5, atol=1e-6)


# ---------------------------------------------------------------- verdicts


def test_stationarity_verdicts():
    t, pair = simplex_pair(3, 4)
    values = np.linalg.eigvalsh(tangent_k(t, pair))
    assert classify_stationarity(values) == STAT_LOCAL_MAX
    npt.assert_allclose(values, [-16.0 / 27.0] * 2, atol=1e-12)

    odeco = odeco_tensor(2, 3)
    mid = make_eigenpair(odeco, unit([1.0, 1.0]))
    values = np.linalg.eigvalsh(tangent_k(odeco, mid))
    assert classify_stationarity(values) == STAT_LOCAL_MIN

    basis = make_eigenpair(odeco_tensor(3, 3), [0.0, 0.0, 1.0])
    values = np.linalg.eigvalsh(tangent_k(odeco_tensor(3, 3), basis))
    assert classify_stationarity(values) == STAT_LOCAL_MAX

    assert classify_stationarity([]) == STAT_LOCAL_MAX  # n = 1


def test_stationarity_degenerate_when_tangent_curvature_vanishes():
    assert classify_stationarity([0.0]) == STAT_DEGENERATE
    assert classify_stationarity([-1.0, 1e-12]) == STAT_DEGENERATE


def test_stationarity_saddle():
    assert classify_stationarity([-1.0, 1.0]) == STAT_SADDLE
    assert classify_stationarity([-1.0, 2e-8, 1.0]) == STAT_SADDLE


def test_robustness_verdicts():
    assert classify_robustness([0.0, 0.5], 1.0) == ROB_ROBUST
    assert classify_robustness([0.0, -1.5], 1.0) == ROB_NOT_ROBUST
    assert classify_robustness([0.0, 1.0 + 1e-12], 1.0) == ROB_BOUNDARY
    assert classify_robustness([0.0, 0.5], 1e-9) == ROB_UNDEFINED


def test_classify_pair_full_reports():
    t, pair = simplex_pair(3, 4)
    report = classify_pair(t, pair)
    assert report.stationarity == STAT_LOCAL_MAX
    assert report.robust == ROB_ROBUST
    npt.assert_allclose(report.rho, 3.0 / 7.0, atol=1e-10)

    t, pair = simplex_pair(2, 3)
    report = classify_pair(t, pair)
    assert report.stationarity == STAT_LOCAL_MAX
    assert report.robust == ROB_NOT_ROBUST
    npt.assert_allclose(report.rho, 2.0, atol=1e-10)


def test_classify_pair_on_the_line():
    # n = 1: the sphere is two points, v^perp is empty, and the reports
    # hold the forced mode alone.
    t = SymmetricTensor(order=4, dim=1, weights=np.array([2.0]),
                        vectors=np.array([[1.0]]))
    report = classify_pair(t, make_eigenpair(t, [1.0]))
    assert report.stationarity == STAT_LOCAL_MAX
    assert report.robust == ROB_ROBUST
    assert report.rho == 0.0
    assert report.k_spectrum.tolist() == [0.0]
    assert report.j_spectrum.tolist() == [0.0]


def test_classify_pair_with_vanishing_lambda():
    t = SymmetricTensor(order=3, dim=2, weights=np.array([1.0]),
                        vectors=np.array([[0.0], [1.0]]))
    pair = make_eigenpair(t, [1.0, 0.0])
    report = classify_pair(t, pair)
    assert report.robust == ROB_UNDEFINED
    assert report.j_spectrum is None and report.rho is None


def test_classify_pair_contracts_once_per_pair(monkeypatch):
    # K and J are both affine in S v^{m-2}; one contraction serves both.
    calls = []
    real = stability.apply_m2

    def counting(tensor, v):
        calls.append(v)
        return real(tensor, v)

    monkeypatch.setattr(stability, "apply_m2", counting)
    for n, m in [(2, 3), (3, 4), (4, 5)]:
        calls.clear()
        t, pair = simplex_pair(n, m)
        classify_pair(t, pair)
        assert len(calls) == 1, (n, m)


def test_classify_pair_decomposes_once_per_pair(monkeypatch):
    # Both spectra come from the one tangent block: a single eigvalsh, and
    # no eigenvectors.
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    for n, m in [(2, 3), (3, 4), (4, 5)]:
        t, pair = simplex_pair(n, m)
        calls.clear()
        classify_pair(t, pair)
        assert calls == ["eigvalsh"], (n, m)


def test_odeco_midpoint_is_a_minimum_but_not_robust():
    # The midpoint pair is attracting in no direction: J = 2 P has rho = 2.
    t = odeco_tensor(2, 3)
    pair = make_eigenpair(t, unit([1.0, 1.0]))
    report = classify_pair(t, pair)
    assert report.stationarity == STAT_LOCAL_MIN
    assert report.robust == ROB_NOT_ROBUST
    npt.assert_allclose(report.rho, 2.0, atol=1e-12)


def test_negative_even_order_pair_attracts_to_minimum():
    # Robust-implies-max presumes lambda > 0. An even-order pair with a
    # negative eigenvalue cannot be sign-flipped into that regime: v is a
    # period-2 point of the power map (v -> -v -> v), the orbit attracts
    # whenever rho < 1, and what it attracts to is a minimum of S v^m.
    # Equivalently it is a maximum of -S, which has the same Jacobian.
    t = SymmetricTensor(order=4, dim=2, weights=np.array([-1.0]),
                        vectors=np.array([[1.0], [0.0]]))
    pair = make_eigenpair(t, [1.0, 0.0])
    assert pair.lam == -1.0
    report = classify_pair(t, pair)
    assert report.robust == ROB_ROBUST
    npt.assert_allclose(report.rho, 0.0, atol=1e-15)
    assert report.stationarity == STAT_LOCAL_MIN


# ---------------------------------------------------------------- the bridge


def bridge_cases():
    cases = [simplex_pair(2, 3), simplex_pair(3, 4), simplex_pair(4, 5)]
    odeco = odeco_tensor(3, 3)
    cases.append((odeco, make_eigenpair(odeco, unit([1.0, 1.0, 1.0]))))
    return cases


def test_bridge_identity_on_sample_pairs():
    # On K and J built from their full-space definitions,
    # lambda J = K + lambda (I - v v^T) holds to roundoff at an eigenpair.
    for t, pair in bridge_cases():
        k, j = full_space_k_j(t, pair)
        p = np.eye(t.dim) - np.outer(pair.v, pair.v)
        residual = np.linalg.norm(pair.lam * j - k - pair.lam * p, ord="fro")
        assert residual <= 1e-9 * (1.0 + abs(pair.lam))


def test_bridge_relates_the_two_spectra():
    # lambda sigma(J) = sigma(K) + lambda away from the forced v modes, and
    # classify_pair's spectra are those of the full-space K and J.
    for n, m in [(2, 3), (3, 4), (4, 3), (2, 6)]:
        t, pair = simplex_pair(n, m)
        k, j = full_space_k_j(t, pair)
        k_values, k_vectors = np.linalg.eigh(k)
        j_values, j_vectors = np.linalg.eigh(j)
        left = sorted(pair.lam * x
                      for x in drop_v_mode(j_values, j_vectors, pair.v))
        right = sorted(x + pair.lam
                       for x in drop_v_mode(k_values, k_vectors, pair.v))
        npt.assert_allclose(left, right, atol=1e-8)
        report = classify_pair(t, pair)
        npt.assert_allclose(report.k_spectrum, reported_spectrum(k, pair.v),
                            atol=1e-8)
        npt.assert_allclose(report.j_spectrum, reported_spectrum(j, pair.v),
                            atol=1e-8)


# ---------------------------------------------------------------- closed forms


@pytest.mark.parametrize("n,m,lam,j_eig,rho", [
    (2, 3, Fraction(3, 4), Fraction(-2), Fraction(2)),
    (3, 4, Fraction(28, 27), Fraction(3, 7), Fraction(3, 7)),
    (2, 4, Fraction(9, 8), Fraction(1), Fraction(1)),
    (4, 3, Fraction(15, 16), Fraction(-2, 3), Fraction(2, 3)),
    (2, 5, Fraction(15, 16), Fraction(-4, 5), Fraction(4, 5)),
    (3, 3, Fraction(8, 9), Fraction(-1), Fraction(1)),
    (2, 6, Fraction(33, 32), Fraction(5, 11), Fraction(5, 11)),
])
def test_frame_vector_predictions_are_exact(n, m, lam, j_eig, rho):
    r = frame_vector_prediction(n, m)
    assert r.lam == lam
    assert r.j_nonzero_eig == j_eig
    assert r.rho == rho


def test_prediction_rho_is_the_absolute_nonzero_eigenvalue():
    for n in range(2, 7):
        for m in range(3, 7):
            r = frame_vector_prediction(n, m)
            assert r.rho == abs(r.j_nonzero_eig)


def test_prediction_matches_numerics_across_the_grid():
    for n in range(2, 6):
        for m in range(3, 6):
            r = frame_vector_prediction(n, m)
            t, pair = simplex_pair(n, m)
            npt.assert_allclose(pair.lam, float(r.lam), atol=1e-12)
            report = classify_pair(t, pair)
            npt.assert_allclose(report.rho, float(r.rho), atol=1e-10)


def test_prediction_degenerate_line_case():
    with pytest.raises(ValueError):
        frame_vector_prediction(1, 3)  # the two-vector frame cancels itself
    frame_vector_prediction(1, 4)


def test_prediction_rejects_bad_arguments():
    with pytest.raises(ValueError):
        frame_vector_prediction(0, 3)
    with pytest.raises(ValueError):
        frame_vector_prediction(2, 2)


def test_closed_form_verdict_decides_exactly():
    assert closed_form_verdict(Fraction(1)) == ROB_BOUNDARY
    assert closed_form_verdict(Fraction(2, 3)) == ROB_ROBUST
    assert closed_form_verdict(Fraction(3, 2)) == ROB_NOT_ROBUST
