from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from simplex_spectra import (
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
    lemma_bridge_residual,
    make_eigenpair,
    regular_simplex_frame,
    second_order,
    simplex_tensor,
)
from simplex_spectra import stability
from conftest import drop_v_mode, odeco_tensor, random_factored


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def simplex_pair(n, m, j=0):
    t = simplex_tensor(n, m)
    return t, make_eigenpair(t, regular_simplex_frame(n).vectors[:, j])


# ---------------------------------------------------------------- matrices


def test_hessian_of_plane_simplex_cubic_at_frame_vector():
    t, pair = simplex_pair(2, 3)
    npt.assert_allclose(second_order(t, pair)[0], np.diag([0.0, -2.25]),
                        atol=1e-13)


def test_hessian_of_odeco_cubic_at_basis_vector():
    t = odeco_tensor(2, 3)
    pair = make_eigenpair(t, [1.0, 0.0])
    npt.assert_allclose(second_order(t, pair)[0], np.diag([0.0, -1.0]),
                        atol=1e-14)


def test_jacobian_vanishes_for_odeco_basis_pairs():
    t = odeco_tensor(2, 3)
    pair = make_eigenpair(t, [1.0, 0.0])
    npt.assert_allclose(second_order(t, pair)[1], np.zeros((2, 2)),
                        atol=1e-14)


def test_jacobian_spectrum_at_plane_frame_vector():
    t, pair = simplex_pair(2, 3)
    values, _ = np.linalg.eigh(second_order(t, pair)[1])
    npt.assert_allclose(values, [-2.0, 0.0], atol=1e-12)


def test_jacobian_spectrum_for_three_dims_order_four():
    t, pair = simplex_pair(3, 4)
    values, _ = np.linalg.eigh(second_order(t, pair)[1])
    npt.assert_allclose(values, [0.0, 3.0 / 7.0, 3.0 / 7.0], atol=1e-12)


def test_jacobian_needs_nonzero_lambda():
    t = SymmetricTensor(order=3, dim=2, weights=np.array([1.0]),
                        vectors=np.array([[0.0], [1.0]]))
    pair = make_eigenpair(t, [1.0, 0.0])  # S e1^2 = 0, lambda = 0
    assert pair.lam == 0.0
    assert second_order(t, pair)[1] is None


def test_forced_modes_annihilate_the_eigenvector():
    t, pair = simplex_pair(4, 5)
    k, j = second_order(t, pair)
    npt.assert_allclose(k @ pair.v, np.zeros(4), atol=1e-12)
    npt.assert_allclose(j @ pair.v, np.zeros(4), atol=1e-12)


def test_second_order_matrices_are_exactly_symmetric():
    # eigh reads one triangle only, so K and J must be symmetric to the bit
    rng = np.random.default_rng(11)
    for n, m in [(2, 3), (3, 4), (4, 5), (5, 6)]:
        factored = random_factored(n, m, 2 * n, seed=n + m)
        for t in (factored, densify(factored)):
            k, j = second_order(t, make_eigenpair(t, rng.standard_normal(n)))
            npt.assert_array_equal(k, k.T)
            npt.assert_array_equal(j, j.T)


def test_projected_hessian_matches_second_derivative_on_the_sphere():
    # For unit u orthogonal to v, d^2/ds^2 S(v cos s + u sin s)^m at s = 0
    # equals m u' K u; check by central differences at eigenpairs.
    rng = np.random.default_rng(6)
    for n, m in [(2, 3), (3, 4), (4, 5)]:
        t, pair = simplex_pair(n, m)
        k = second_order(t, pair)[0]
        for _ in range(3):
            u = rng.standard_normal(n)
            u -= (u @ pair.v) * pair.v
            u = unit(u)
            h = 1e-4

            def f(s):
                return apply_m(t, np.cos(s) * pair.v + np.sin(s) * u)

            second = (f(h) - 2.0 * f(0.0) + f(-h)) / h ** 2
            npt.assert_allclose(second, m * float(u @ k @ u),
                                rtol=1e-5, atol=1e-6)


# ---------------------------------------------------------------- verdicts


def test_stationarity_verdicts():
    t, pair = simplex_pair(3, 4)
    values, vectors = np.linalg.eigh(second_order(t, pair)[0])
    assert classify_stationarity(values, vectors, pair.v) == STAT_LOCAL_MAX
    npt.assert_allclose(sorted(values)[:2], [-16.0 / 27.0] * 2, atol=1e-12)

    odeco = odeco_tensor(2, 3)
    mid = make_eigenpair(odeco, unit([1.0, 1.0]))
    values, vectors = np.linalg.eigh(second_order(odeco, mid)[0])
    assert classify_stationarity(values, vectors, mid.v) == STAT_LOCAL_MIN

    basis = make_eigenpair(odeco_tensor(3, 3), [0.0, 0.0, 1.0])
    k = second_order(odeco_tensor(3, 3), basis)[0]
    values, vectors = np.linalg.eigh(k)
    assert classify_stationarity(values, vectors, basis.v) == STAT_LOCAL_MAX


def test_stationarity_degenerate_when_tangent_curvature_vanishes():
    v = np.array([1.0, 0.0])
    values = np.array([0.0, 0.0])
    vectors = np.eye(2)
    assert classify_stationarity(values, vectors, v) == STAT_DEGENERATE


def test_stationarity_saddle():
    v = np.array([0.0, 0.0, 1.0])
    values = np.array([-1.0, 1e-12, 1.0])
    vectors = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]).T
    # forced zero sits along v (second column); the rest straddles zero
    assert classify_stationarity(values, vectors, v) == STAT_SADDLE


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


def test_bridge_identity_on_sample_pairs():
    cases = [simplex_pair(2, 3), simplex_pair(3, 4), simplex_pair(4, 5)]
    odeco = odeco_tensor(3, 3)
    cases.append((odeco, make_eigenpair(odeco, unit([1.0, 1.0, 1.0]))))
    for t, pair in cases:
        assert lemma_bridge_residual(t, pair) <= 1e-9 * (1.0 + abs(pair.lam))


def test_bridge_relates_the_two_spectra():
    # lambda sigma(J) = sigma(K) + lambda away from the forced v modes.
    for n, m in [(2, 3), (3, 4), (4, 3), (2, 6)]:
        t, pair = simplex_pair(n, m)
        k, j = second_order(t, pair)
        k_values, k_vectors = np.linalg.eigh(k)
        j_values, j_vectors = np.linalg.eigh(j)
        left = sorted(pair.lam * x
                      for x in drop_v_mode(j_values, j_vectors, pair.v))
        right = sorted(x + pair.lam
                       for x in drop_v_mode(k_values, k_vectors, pair.v))
        npt.assert_allclose(left, right, atol=1e-8)


def test_bridge_requires_nonzero_lambda():
    t = SymmetricTensor(order=3, dim=2, weights=np.array([1.0]),
                        vectors=np.array([[0.0], [1.0]]))
    pair = make_eigenpair(t, [1.0, 0.0])
    with pytest.raises(ValueError):
        lemma_bridge_residual(t, pair)


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
