import math

import numpy as np
import numpy.testing as npt
import pytest

from simplex_spectra import (
    Frame,
    apply_m1,
    certify,
    frame_tensor,
    from_rank_one_sum,
    load_frame,
    make_eigenpair,
    orthonormal_frame,
    regular_simplex_frame,
    save_frame,
    simplex_tensor,
)
from simplex_spectra.frames import CERTIFY_TOL


# ---------------------------------------------------------------- construction


def test_plane_simplex_frame_is_the_mercedes_frame():
    f = regular_simplex_frame(2)
    expected = np.array([
        [1.0, -0.5, -0.5],
        [0.0, np.sqrt(3.0) / 2.0, -np.sqrt(3.0) / 2.0],
    ])
    npt.assert_allclose(f.vectors, expected, atol=1e-15)


def test_line_simplex_frame_is_plus_minus_one():
    f = regular_simplex_frame(1)
    npt.assert_allclose(f.vectors, [[1.0, -1.0]], atol=0)


@pytest.mark.parametrize("n", range(1, 9))
def test_simplex_frame_identities(n):
    f = regular_simplex_frame(n)
    w = f.vectors
    assert f.count == n + 1
    gram = w.T @ w
    expected_gram = -np.full((n + 1, n + 1), 1.0 / n)
    np.fill_diagonal(expected_gram, 1.0)
    npt.assert_allclose(gram, expected_gram, atol=1e-12)
    npt.assert_allclose(w @ w.T, (n + 1) / n * np.eye(n), atol=1e-12)
    npt.assert_allclose(w.sum(axis=1), np.zeros(n), atol=1e-12)


def test_frame_without_claims_accepts_arbitrary_columns():
    w = np.array([[2.0, 0.0], [0.0, 0.5]])
    f = Frame(w)
    report = certify(f)
    assert not report.unit_norms


def test_frame_reads_dim_and_count_from_its_array():
    f = Frame(np.ones((3, 5)))
    assert (f.dim, f.count) == (3, 5)
    for empty in (np.zeros((0, 2)), np.zeros((2, 0)), np.ones(3)):
        with pytest.raises(ValueError, match="nonempty"):
            Frame(empty)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_frame_rejects_non_finite_columns(bad):
    with pytest.raises(ValueError):
        Frame(np.array([[1.0, 0.0], [0.0, bad]]))


# ---------------------------------------------------------------- certification


def test_certify_simplex_frame():
    report = certify(regular_simplex_frame(3))
    assert report.unit_norms and report.equiangular and report.tight
    npt.assert_allclose(report.alpha, 1.0 / 3.0, atol=1e-12)
    npt.assert_allclose(report.a, 4.0 / 3.0, atol=1e-12)
    assert report.max_violation < 1e-12


def test_certify_orthonormal_frame():
    report = certify(orthonormal_frame(4))
    assert report.unit_norms and report.equiangular and report.tight
    npt.assert_allclose(report.alpha, 0.0, atol=1e-15)
    npt.assert_allclose(report.a, 1.0, atol=1e-15)


def test_certify_reports_stretched_column():
    w = regular_simplex_frame(2).vectors.copy()
    w[:, 0] *= 1.01
    report = certify(Frame(w))
    assert not report.unit_norms
    npt.assert_allclose(report.max_violation, 1.01 ** 2 - 1.0, atol=1e-3)


def test_certify_is_rotation_invariant():
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    f = regular_simplex_frame(5)
    rotated = Frame(q @ f.vectors)
    report = certify(rotated)
    assert report.unit_norms and report.equiangular and report.tight
    npt.assert_allclose(report.alpha, 1.0 / 5.0, atol=1e-12)


def test_certify_decides_at_certify_tol():
    # |w_0|^2 - 1 just inside, then just outside, the one tolerance it reads
    for excess, ok in ((0.5 * CERTIFY_TOL, True), (2.0 * CERTIFY_TOL, False)):
        w = np.eye(2)
        w[0, 0] = math.sqrt(1.0 + excess)
        assert certify(Frame(w)).unit_norms is ok


# ---------------------------------------------------------------- frame tensors


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", range(3, 7))
def test_frame_vectors_are_eigenvectors_of_the_simplex_tensor(n, m):
    tensor = simplex_tensor(n, m)
    frame = regular_simplex_frame(n)
    expected_lam = 1.0 + n / float((-n) ** m)
    for j in range(frame.count):
        w = frame.vectors[:, j]
        g = apply_m1(tensor, w)
        lam = float(w @ g)
        npt.assert_allclose(lam, expected_lam, atol=1e-12)
        npt.assert_allclose(g, lam * w, atol=1e-10)


def test_known_eigenvalue_for_three_dims_order_four():
    tensor = simplex_tensor(3, 4)
    w = regular_simplex_frame(3).vectors[:, 0]
    pair = make_eigenpair(tensor, w)
    npt.assert_allclose(pair.lam, 28.0 / 27.0, atol=1e-12)
    assert pair.kkt_residual < 1e-12


def test_frame_tensor_uses_every_vector():
    f = orthonormal_frame(3)
    t = frame_tensor(f, 3)
    assert not t.is_dense
    assert t.vectors.shape == (3, 3)
    npt.assert_allclose(t.weights, np.ones(3), atol=0)


@pytest.mark.parametrize("n", range(1, 9))
def test_frame_tensor_matches_a_rank_one_sum_bit_for_bit(n, tmp_path):
    frame = regular_simplex_frame(n)
    path = tmp_path / "frame.json"
    save_frame(frame, path)
    with pytest.raises(ValueError, match="m >= 3"):
        frame_tensor(frame, 2)
    for m in range(3, 9):
        ref = from_rank_one_sum(
            [(1.0, frame.vectors[:, j]) for j in range(frame.count)], m)
        for source in (frame, load_frame(path)):
            t = frame_tensor(source, m)
            assert (t.order, t.dim) == (ref.order, ref.dim)
            for got, want in ((t.weights, ref.weights),
                              (t.vectors, ref.vectors)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable


def test_frame_tensor_rejects_a_non_unit_column():
    frame = Frame(np.array([[1.0, 0.0], [0.0, 1.5]]))
    with pytest.raises(ValueError, match="unit norm"):
        frame_tensor(frame, 3)


def test_simplex_tensor_rejects_low_order():
    with pytest.raises(ValueError):
        simplex_tensor(3, 2)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_simplex_tensor_refuses_only_the_zero_tensor_of_n_one(m):
    # n = 1: the frame is w and -w, whose odd powers cancel
    if m % 2:
        with pytest.raises(ValueError, match="zero"):
            simplex_tensor(1, m)
    else:
        npt.assert_array_equal(simplex_tensor(1, m).weights, [1.0, 1.0])


# ---------------------------------------------------------------- round trips


def test_frame_json_round_trip(tmp_path):
    f = regular_simplex_frame(4)
    path = tmp_path / "frame.json"
    save_frame(f, path)
    back = load_frame(path)
    assert back.dim == 4 and back.count == 5
    npt.assert_array_equal(back.vectors, f.vectors)


@pytest.mark.parametrize("vectors", ["[[1.0, 0.0], [0.0]]", "[]"],
                         ids=["ragged", "empty"])
def test_frame_payload_without_a_shape_is_rejected(tmp_path, vectors):
    path = tmp_path / "frame.json"
    path.write_text(f'{{"vectors": {vectors}}}')
    with pytest.raises(ValueError):
        load_frame(path)
