"""Shared fixtures and reference oracles.

The brute-force contractions below deliberately loop over every index tuple
with plain Python arithmetic. They share no code path with the library's
vectorized contractions, so agreement between the two is a real check.
"""

import itertools

import numpy as np
import pytest

from simplex_spectra import (
    SymmetricTensor,
    apply_m2,
    densify,
    dedup,
    enumerate_2d,
    frame_tensor,
    make_eigenpair,
    newton_refine,
    orthonormal_frame,
    regular_simplex_frame,
    simplex_tensor,
    sphere_grid,
    RefinementError,
)


def brute_apply_m(tensor, v):
    """sum_{i1..im} S[i1..im] v[i1] ... v[im], one term at a time."""
    entries = densify(tensor).entries
    total = 0.0
    for idx in itertools.product(range(tensor.dim), repeat=tensor.order):
        term = float(entries[idx])
        for i in idx:
            term *= float(v[i])
        total += term
    return total


def brute_apply_m1(tensor, v):
    entries = densify(tensor).entries
    out = np.zeros(tensor.dim)
    for idx in itertools.product(range(tensor.dim), repeat=tensor.order - 1):
        weight = 1.0
        for i in idx:
            weight *= float(v[i])
        for j in range(tensor.dim):
            out[j] += float(entries[(j,) + idx]) * weight
    return out


def brute_apply_m2(tensor, v):
    entries = densify(tensor).entries
    out = np.zeros((tensor.dim, tensor.dim))
    for idx in itertools.product(range(tensor.dim), repeat=tensor.order - 2):
        weight = 1.0
        for i in idx:
            weight *= float(v[i])
        for j in range(tensor.dim):
            for k in range(tensor.dim):
                out[j, k] += float(entries[(j, k) + idx]) * weight
    return out


def odeco_tensor(n, m):
    """Sum of m-th outer powers of the standard basis."""
    return frame_tensor(orthonormal_frame(n), m)


def drop_v_mode(values, vectors, v):
    """Spectrum with the eigenvalue of the v-aligned eigenvector removed.

    Both K and J are built to annihilate v; comparisons of their spectra only
    make sense on the remaining tangent modes.
    """
    idx = int(np.argmax(np.abs(np.asarray(vectors).T @ np.asarray(v))))
    return np.delete(np.asarray(values, dtype=float), idx)


def full_space_k_j(tensor, pair):
    """K and J at one eigenpair, built from their full-space definitions
    K = P ((m-1) S v^{m-2} - lambda I) P with P = I - v v^T and
    J = ((m-1)/lambda) (S v^{m-2} - lambda v v^T), both symmetrized."""
    s = apply_m2(tensor, pair.v)
    eye = np.eye(tensor.dim)
    vv = np.outer(pair.v, pair.v)
    k = (eye - vv) @ ((tensor.order - 1) * s - pair.lam * eye) @ (eye - vv)
    j = ((tensor.order - 1) / pair.lam) * (s - pair.lam * vv)
    return 0.5 * (k + k.T), 0.5 * (j + j.T)


def reported_spectrum(matrix, v):
    """Ascending spectrum of a full-space K or J with the forced v-mode
    replaced by the exact 0.0 that classify_pair reports for it."""
    values, vectors = np.linalg.eigh(matrix)
    return np.sort(np.append(drop_v_mode(values, vectors, v), 0.0))


def odeco_subset_pair(tensor, subset):
    """Known eigenpair of the odeco tensor: the normalized indicator of a
    nonempty coordinate subset A, with lambda = |A|^((2-m)/2)."""
    v = np.zeros(tensor.dim)
    v[list(subset)] = 1.0 / np.sqrt(len(subset))
    return make_eigenpair(tensor, v)


def random_factored(n, m, r, seed, positive_weights=False):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, r))
    vectors /= np.linalg.norm(vectors, axis=0)
    weights = rng.standard_normal(r)
    if positive_weights:
        weights = np.abs(weights)
    return SymmetricTensor(order=m, dim=n, weights=weights, vectors=vectors)


def _random_tensor_pairs(tensor, grid_count=80):
    """All eigenpairs of a small tensor we can find deterministically."""
    if tensor.dim == 2:
        return list(enumerate_2d(tensor).pairs)
    found = []
    for v0 in sphere_grid(tensor.dim, grid_count):
        try:
            found.append(newton_refine(tensor, v0))
        except RefinementError:
            continue
    return dedup(found)


@pytest.fixture(scope="session")
def eigenpair_corpus():
    """(tensor, pair) items across simplex, odeco and random factored tensors.

    Built once per session; the acceptance gate requires at least 500 pairs.
    Every pair here has lambda > 0: odd-order pairs are canonicalized that
    way, and the even-order random tensors get positive weights because the
    attracting-fixed-point analysis presumes a positive eigenvalue. A
    negative even-order eigenvalue belongs to a period-2 orbit of the power
    map, where attraction certifies a minimum instead (see
    test_stability.test_negative_even_order_pair_attracts_to_minimum).
    """
    items = []
    for n in range(2, 7):
        frame = regular_simplex_frame(n)
        for m in range(3, 7):
            tensor = simplex_tensor(n, m)
            for j in range(frame.count):
                items.append((tensor, make_eigenpair(tensor, frame.vectors[:, j])))
    for n in range(2, 7):
        for m in (3, 4, 5):
            tensor = odeco_tensor(n, m)
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(n), size):
                    items.append((tensor, odeco_subset_pair(tensor, subset)))
    for n in (2, 3, 4):
        for m in (3, 4, 5):
            for seed in (0, 1, 2):
                tensor = random_factored(n, m, r=4, seed=100 * n + 10 * m + seed,
                                         positive_weights=(m % 2 == 0))
                for pair in _random_tensor_pairs(tensor):
                    if abs(pair.lam) > 1e-8 and pair.kkt_residual <= 1e-10:
                        items.append((tensor, pair))
    return items
