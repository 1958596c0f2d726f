import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplex_spectra import (
    Eigenpair,
    SymmetricTensor,
    apply_m,
    apply_m1,
    apply_m2,
    densify,
    frame_tensor,
    from_dense,
    from_rank_one_sum,
    jsonio,
    load_tensor,
    make_eigenpair,
    orthonormal_frame,
    outer_power,
    regular_simplex_frame,
    save_tensor,
    simplex_tensor,
    tensors,
)
from simplex_spectra.eigensolve import pairs_from_payload, pairs_to_payload
from conftest import (
    brute_apply_m,
    brute_apply_m1,
    brute_apply_m2,
    odeco_tensor,
    random_factored,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- construction


def test_outer_power_entries_are_products():
    v = unit([1.0, 1.0])
    t = outer_power(v, 3)
    assert t.is_dense and t.order == 3 and t.dim == 2
    npt.assert_allclose(t.entries, np.full((2, 2, 2), 2.0 ** -1.5))


def test_outer_power_rejects_non_unit_vectors():
    with pytest.raises(ValueError):
        outer_power([1.0, 1.0], 3)


def test_rank_one_sum_matches_dense_sum():
    terms = [(2.0, unit([1.0, 0.0, 0.0])), (-0.5, unit([1.0, 1.0, 1.0]))]
    t = from_rank_one_sum(terms, order=4)
    assert not t.is_dense
    expected = sum(
        c * densify(outer_power(w, 4)).entries for c, w in terms
    )
    npt.assert_allclose(densify(t).entries, expected, atol=1e-15)


def test_rank_one_sum_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        from_rank_one_sum([(1.0, [1.0, 0.0]), (1.0, [1.0, 0.0, 0.0])], order=3)


def test_simplex_cubic_entries_in_the_plane():
    # w1 = (1,0), w2/w3 = (-1/2, +-sqrt(3)/2): the only surviving entries are
    # S_111 = 3/4 and the symmetric copies of S_122 = -3/4.
    t = densify(simplex_tensor(2, 3))
    npt.assert_allclose(t.entries[0, 0, 0], 0.75, atol=1e-14)
    npt.assert_allclose(t.entries[0, 1, 1], -0.75, atol=1e-14)
    npt.assert_allclose(t.entries[0, 0, 1], 0.0, atol=1e-14)
    npt.assert_allclose(t.entries[1, 1, 1], 0.0, atol=1e-14)


def test_constructor_requires_exactly_one_representation():
    with pytest.raises(ValueError):
        SymmetricTensor(order=3)
    with pytest.raises(ValueError):
        SymmetricTensor(
            order=3,
            entries=np.zeros((2, 2, 2)),
            weights=np.ones(1), vectors=np.eye(2)[:, :1],
        )


def test_constructor_rejects_non_unit_factored_columns():
    vectors = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        SymmetricTensor(order=3, weights=np.ones(2), vectors=vectors)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructors_reject_non_finite_values(bad):
    with pytest.raises(ValueError):
        from_rank_one_sum([(bad, [1.0, 0.0]), (1.0, [0.0, 1.0])], 3)
    with pytest.raises(ValueError):
        from_rank_one_sum([(1.0, [bad, 0.0])], 3)
    entries = np.zeros((2, 2, 2))
    entries[0, 0, 0] = bad
    with pytest.raises(ValueError):
        SymmetricTensor(order=3, entries=entries)
    with pytest.raises(ValueError, match="finite"):
        from_dense(entries)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_unit_vector_check_refuses_a_non_finite_vector(bad):
    # a NaN norm fails the one unit-norm comparison, before any tensor is
    # built from the vector
    with pytest.raises(ValueError, match="unit vector"):
        outer_power([bad, 1.0], 3)
    with pytest.raises(ValueError, match="unit vector"):
        from_rank_one_sum([(1.0, [bad, 1.0])], 3)
    with pytest.raises(ValueError, match="unit vector"):
        Eigenpair(lam=1.0, v=np.array([bad, 0.0]), kkt_residual=0.0)


def test_constructor_reads_dim_from_its_array():
    assert SymmetricTensor(order=3, entries=np.zeros((4, 4, 4))).dim == 4
    vectors = np.eye(5)[:, :2]
    t = SymmetricTensor(order=4, weights=np.ones(2), vectors=vectors)
    assert t.dim == 5
    for entries in (np.zeros((2, 2, 3)), np.zeros((2, 2)),
                    np.zeros((0, 0, 0))):
        with pytest.raises(ValueError, match="equal nonempty axes"):
            SymmetricTensor(order=3, entries=entries)
    for vs in (np.eye(3), np.ones(3) / np.sqrt(3.0)):
        with pytest.raises(ValueError, match="factored vectors must have"):
            SymmetricTensor(order=3, weights=np.ones(2), vectors=vs)


def test_arrays_are_read_only():
    t = simplex_tensor(2, 3)
    with pytest.raises(ValueError):
        t.vectors[0, 0] = 9.0
    d = densify(t)
    with pytest.raises(ValueError):
        d.entries[0, 0, 0] = 9.0


def test_from_dense_flags_asymmetric_entries():
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 1] = 1.0  # S_001 != S_010
    with pytest.raises(ValueError):
        from_dense(bad)
    sym = densify(simplex_tensor(2, 3)).entries
    from_dense(sym)  # should not raise
    # one entry of one index class off: a sample of index tuples can miss it
    lopsided = np.array(densify(odeco_tensor(5, 4)).entries)
    lopsided[0, 0, 0, 1] += 0.5
    with pytest.raises(ValueError, match=r"at index \(0, 0, 0, 1\)"):
        from_dense(lopsided)
    # roundoff-sized asymmetry is accepted
    nearly = np.array(densify(simplex_tensor(3, 4)).entries)
    nearly[0, 1, 2, 2] += 1e-15 * np.max(np.abs(nearly))
    from_dense(nearly)


def test_constructor_flags_asymmetric_dense_entries():
    # the check lives in the constructor, so direct construction runs it too
    a = np.array(densify(simplex_tensor(2, 3)).entries)
    a[0, 1, 1] += 0.5
    with pytest.raises(ValueError, match="not permutation symmetric"):
        SymmetricTensor(order=3, entries=a)


def test_symmetry_check_holds_a_small_share_of_the_entries():
    # each swap is compared one leading-axis slice at a time; whole-array
    # differences once peaked at 3.1 times the entries
    entries = np.array(densify(simplex_tensor(10, 6)).entries)
    tracemalloc.start()
    try:
        SymmetricTensor(order=6, entries=entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * entries.nbytes  # the read-only copy is 1.0 of it
    entries[1, 2, 3, 4, 5, 6] += 1e-6
    with pytest.raises(ValueError, match=r"at index \(1, 2, 3, 4, 5, 6\)"):
        SymmetricTensor(order=6, entries=entries)


def test_densify_holds_one_term_beside_the_sum():
    # each weight scales its first factor, so a term is one full array
    # beside the running sum
    t = simplex_tensor(10, 6)
    tracemalloc.start()
    try:
        entries = densify(t).entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * entries.nbytes


# ---------------------------------------------------------------- contractions


def _without_table(monkeypatch, build):
    """build() under a dense cap one entry below its pair-product table,
    so the tensor keeps none and apply_m2 takes the V diag(c) V^T path.
    The cap is restored on return, so densify still works on it."""
    with monkeypatch.context() as mp:
        mp.setattr(tensors, "DENSE_CAP", build().pair_products.size - 1)
        tensor = build()
    assert tensor.pair_products is None and tensor.pair_index is None
    return tensor


@pytest.mark.parametrize("tensor", [
    simplex_tensor(2, 3),
    simplex_tensor(3, 4),
    odeco_tensor(3, 3),
    random_factored(3, 4, r=5, seed=11),
    None,
], ids=["simplex23", "simplex34", "odeco33", "random34", "fallback34"])
def test_contractions_match_brute_force(tensor, monkeypatch):
    table = None
    if tensor is None:
        table = random_factored(3, 4, r=5, seed=11)
        tensor = _without_table(monkeypatch,
                                lambda: random_factored(3, 4, r=5, seed=11))
    rng = np.random.default_rng(2024)
    batch = rng.standard_normal((tensor.dim, 5))
    batch /= np.linalg.norm(batch, axis=0)
    s, g, h = apply_m(tensor, batch), apply_m1(tensor, batch), apply_m2(
        tensor, batch)
    assert s.shape == (5,)
    assert g.shape == (tensor.dim, 5)
    assert h.shape == (5, tensor.dim, tensor.dim)
    for j, v in enumerate(batch.T):
        npt.assert_allclose(apply_m(tensor, v), brute_apply_m(tensor, v),
                            atol=1e-12)
        npt.assert_allclose(apply_m1(tensor, v), brute_apply_m1(tensor, v),
                            atol=1e-12)
        npt.assert_allclose(apply_m2(tensor, v), brute_apply_m2(tensor, v),
                            atol=1e-12)
        npt.assert_allclose(s[j], brute_apply_m(tensor, v), atol=1e-12)
        npt.assert_allclose(g[:, j], brute_apply_m1(tensor, v), atol=1e-12)
        npt.assert_allclose(h[j], brute_apply_m2(tensor, v), atol=1e-12)
        assert np.array_equal(h[j], h[j].T)
        if table is not None:
            npt.assert_allclose(h[j], apply_m2(table, v), rtol=0, atol=1e-12)


def test_dense_and_factored_contractions_agree():
    rng = np.random.default_rng(5)
    for seed in range(10):
        t = random_factored(3, 4, r=3, seed=seed)
        d = densify(t)
        batch = rng.standard_normal((3, 4))
        batch /= np.linalg.norm(batch, axis=0)
        v = batch[:, 0]
        npt.assert_allclose(apply_m(t, v), apply_m(d, v), atol=1e-12)
        npt.assert_allclose(apply_m1(t, v), apply_m1(d, v), atol=1e-12)
        npt.assert_allclose(apply_m2(t, v), apply_m2(d, v), atol=1e-12)
        for f, shape in ((apply_m, (4,)), (apply_m1, (3, 4)),
                         (apply_m2, (4, 3, 3))):
            assert f(t, batch).shape == f(d, batch).shape == shape
            npt.assert_allclose(f(t, batch), f(d, batch), atol=1e-12)
        # a batch of one gives the single-vector result to the bit
        one = v[:, None]
        for tensor in (t, d):
            assert np.array_equal(apply_m(tensor, one), [apply_m(tensor, v)])
            assert np.array_equal(apply_m1(tensor, one)[:, 0],
                                  apply_m1(tensor, v))
            assert np.array_equal(apply_m2(tensor, one)[0],
                                  apply_m2(tensor, v))


def test_contractions_reject_operands_of_the_wrong_shape():
    for tensor in (simplex_tensor(3, 4), densify(simplex_tensor(3, 4))):
        for bad in (np.float64(1.0), np.ones((3, 2, 2)), np.ones(4),
                    np.ones((2, 5))):
            for f in (apply_m, apply_m1, apply_m2):
                with pytest.raises(ValueError):
                    f(tensor, bad)


def test_contraction_chain_is_consistent():
    # v' (S v^{m-2}) v == v' (S v^{m-1}) == S v^m for any v.
    rng = np.random.default_rng(99)
    for trial in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(3, 6))
        t = random_factored(n, m, r=4, seed=trial)
        v = unit(rng.standard_normal(n))
        s = apply_m(t, v)
        g = apply_m1(t, v)
        h = apply_m2(t, v)
        npt.assert_allclose(float(v @ g), s, atol=1e-12)
        npt.assert_allclose(float(v @ h @ v), s, atol=1e-12)
        npt.assert_allclose(h @ v, g, atol=1e-12)


def test_contractions_are_homogeneous():
    t = simplex_tensor(3, 4)
    rng = np.random.default_rng(1)
    v = unit(rng.standard_normal(3))
    c = 1.7
    npt.assert_allclose(apply_m(t, c * v), c ** 4 * apply_m(t, v), atol=1e-12)
    npt.assert_allclose(apply_m1(t, c * v), c ** 3 * apply_m1(t, v), atol=1e-12)


def _assert_apply_m2_exactly_symmetric(tensor):
    """Every slice of apply_m2 equals its transpose for a single vector, an
    (n, B) batch and a batch of one, and the batch of one gives the single
    vector's bits."""
    assert tensor.pair_products is not None
    rng = np.random.default_rng(17)
    batch = rng.standard_normal((tensor.dim, 4))
    batch /= np.linalg.norm(batch, axis=0)
    v = batch[:, 0]
    h = apply_m2(tensor, v)
    assert np.array_equal(h, h.T)
    for slice_ in apply_m2(tensor, batch):
        assert np.array_equal(slice_, slice_.T)
    one = apply_m2(tensor, v[:, None])
    assert one.shape == (1, tensor.dim, tensor.dim)
    assert np.array_equal(one[0], h)


def test_apply_m2_is_symmetric():
    # weights of both signs
    for t in (random_factored(4, 5, r=6, seed=3),
              random_factored(6, 4, r=9, seed=4)):
        assert np.any(t.weights < 0) and np.any(t.weights > 0)
        _assert_apply_m2_exactly_symmetric(t)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("m", range(3, 8))
def test_apply_m2_is_symmetric_on_simplex_tensors(n, m):
    # built through frame_tensor, since simplex_tensor refuses the zero
    # tensor of n = 1 and odd m, on which apply_m2 must be symmetric too
    _assert_apply_m2_exactly_symmetric(
        frame_tensor(regular_simplex_frame(n), m))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2).filter(
    lambda xs: math.hypot(*xs) > 1e-3))
def test_rayleigh_value_is_bounded_by_spectral_scale(xs):
    # |S v^m| <= (sum |c_i|) for unit v when every factor is a unit vector.
    t = simplex_tensor(2, 4)
    v = unit(xs)
    bound = float(np.sum(np.abs(t.weights)))
    assert abs(apply_m(t, v)) <= bound + 1e-12


# ---------------------------------------------------------------- capacity


def test_dense_capacity_guard():
    with pytest.raises(ValueError, match="exceeds the cap"):
        outer_power(unit(np.ones(10)), 8)  # 10^8 entries
    with pytest.raises(ValueError, match="exceeds the cap"):
        densify(random_factored(10, 8, r=2, seed=0))


def test_dense_cap_bounds_dense_tensors_and_tables(monkeypatch):
    assert tensors.DENSE_CAP == 10_000_000
    monkeypatch.setattr(tensors, "DENSE_CAP", 16)
    assert outer_power(unit([1.0, 1.0]), 4).entries.size == 16
    monkeypatch.setattr(tensors, "DENSE_CAP", 15)
    with pytest.raises(ValueError, match="exceeds the cap"):
        outer_power(unit([1.0, 1.0]), 4)  # 16 > 15
    # a table of r n (n+1)/2 = 30 entries is kept at a cap of exactly 30
    monkeypatch.setattr(tensors, "DENSE_CAP", 30)
    assert random_factored(3, 4, r=5, seed=0).pair_products.size == 30


# ---------------------------------------------------------------- round trips


def test_dense_json_round_trip_is_exact(tmp_path):
    # densify leaves roundoff asymmetry for n >= 3; n = 2 happens to be exact
    for t in (densify(simplex_tensor(2, 4)), densify(simplex_tensor(3, 4)),
              densify(simplex_tensor(4, 6)), outer_power([0.6, 0.8, 0.0], 3)):
        path = tmp_path / "dense.json"
        save_tensor(t, path)
        back = load_tensor(path)
        assert back.is_dense
        npt.assert_array_equal(back.entries, t.entries)


def test_factored_json_round_trip_is_exact(tmp_path):
    t = random_factored(3, 5, r=4, seed=8)
    path = tmp_path / "factored.json"
    save_tensor(t, path)
    back = load_tensor(path)
    assert not back.is_dense
    npt.assert_array_equal(back.weights, t.weights)
    npt.assert_array_equal(back.vectors, t.vectors)


def test_json_floats_round_trip_bit_for_bit(tmp_path):
    values = [1 / 3, 0.1, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, -0.0, 1.0, 2.0 ** 53]
    path = tmp_path / "floats.json"
    jsonio.dump({"values": values}, path)
    back = jsonio.load(path)["values"]
    assert all(type(x) is float for x in back)
    assert [x.hex() for x in back] == [x.hex() for x in values]


def test_pair_file_keeps_signed_zeros(tmp_path):
    tensor = frame_tensor(orthonormal_frame(3), 4)
    pair = make_eigenpair(tensor, [-1.0, 0.0, 0.0])
    assert np.signbit(pair.v).tolist() == [False, True, True]
    path = tmp_path / "pairs.json"
    jsonio.dump(pairs_to_payload(tensor, [pair]), path)
    _, (back,) = pairs_from_payload(jsonio.load(path))
    assert back.lam.hex() == pair.lam.hex()
    assert back.v.tobytes() == pair.v.tobytes()
