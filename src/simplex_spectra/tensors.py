"""Real symmetric tensors, stored dense or as a weighted sum of outer powers.

The three contractions against a vector v are the workhorses for everything
downstream: S v^m (scalar), S v^{m-1} (vector) and S v^{m-2} (matrix) feed
eigenpair residuals, the power map, Hessians and power-map Jacobians. Each
also takes a batch of vectors as the columns of an (n, B) array; the factored
path carries the batch on the leading axis of x.T . vectors, so one vector
runs the same expressions, and gives the same bits, as a batch of one. The
factored form keeps contractions at O(r * n) regardless of order, so dense
storage (n^m entries, capped) is only ever needed on request.

A factored tensor also keeps a pair-product table: row k holds
w_k[i] w_k[j] over the upper triangle i <= j. S v^{m-2} is then one
product of the coefficients c_k = weights_k (v . w_k)^{m-2} against that
table, and entries (i, j) and (j, i) read the same table column, so the
matrix is exactly symmetric whatever order BLAS sums in. The table has
r n (n+1)/2 entries and shares the dense cap: a tensor whose table would
exceed it keeps none and contracts through V diag(c) V^T instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, reduce
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from . import jsonio

DENSE_CAP = 10_000_000  # entries of a dense tensor or a pair-product table
UNIT_NORM_TOL = 1e-12
SYMMETRY_TOL = 1e-12  # relative to the largest entry; densify leaves ~4e-16


def _check_order(order: int) -> None:
    # refused before any dim ** order is taken, with one message
    if order < 2:
        raise ValueError(f"tensor order must be at least 2, got {order}")


def _check_capacity(dim: int, order: int) -> None:
    # dim >= 2 to an order of DENSE_CAP.bit_length() or more is over the cap,
    # so the power is only taken where it is small
    if dim > 1 and (order >= DENSE_CAP.bit_length()
                    or dim ** order > DENSE_CAP):
        raise ValueError(
            f"dense tensor with {dim}^{order} entries exceeds the cap of "
            f"{DENSE_CAP}"
        )


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-d float array: the ravel and dot that
    np.linalg.norm runs, so the same bits, without its dispatch."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _as_unit_vector(v, what: str) -> np.ndarray:
    """v as a float array, refused unless it is a nonempty 1-d vector of
    norm 1 within UNIT_NORM_TOL: the one unit-vector check."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{what} must be a nonempty 1-d vector, got shape {v.shape}")
    # negated so that a NaN norm, from a NaN or infinite entry, fails too
    if not abs(_norm(v) - 1.0) <= UNIT_NORM_TOL:
        raise ValueError(
            f"{what} must be a unit vector (unit norm within {UNIT_NORM_TOL})")
    return v


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@cache
def _upper_triangle(dim: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows and columns of the upper triangle i <= j, in np.triu_indices
    order, and the (dim, dim) map from (i, j) and (j, i) alike to the
    position of that pair in it. Read-only, since every tensor of this
    dimension shares them."""
    rows, cols = np.triu_indices(dim)
    index = np.empty((dim, dim), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    for a in (rows, cols, index):
        a.setflags(write=False)
    return rows, cols, index


@dataclass(frozen=True, eq=False)
class SymmetricTensor:
    """Order-m symmetric tensor over R^n.

    Exactly one storage form is populated: ``entries`` (dense, shape
    ``(dim,) * order``) or the pair ``weights``/``vectors`` (factored,
    sum of weights[i] * vectors[:, i]^{outer order}). ``dim`` is read
    from the array given, and dense entries must be permutation symmetric.
    Instances are immutable; all arrays are read-only copies.

    A factored tensor whose table fits the dense cap also holds
    ``pair_products`` (row k: vectors[i, k] * vectors[j, k] over i <= j)
    and ``pair_index``, the symmetric (dim, dim) map from (i, j) to its
    column; both are None otherwise.
    """

    order: int
    dim: int = field(init=False)
    entries: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    vectors: Optional[np.ndarray] = None
    pair_products: Optional[np.ndarray] = field(
        default=None, init=False, repr=False)
    pair_index: Optional[np.ndarray] = field(
        default=None, init=False, repr=False)

    def __post_init__(self):
        _check_order(self.order)
        dense = self.entries is not None
        factored = self.weights is not None or self.vectors is not None
        if dense == factored:
            raise ValueError("provide dense entries or factored terms, not both")
        if dense:
            arr = _readonly(self.entries)
            dim = arr.shape[0] if arr.ndim else 0
            if dim < 1 or arr.shape != (dim,) * self.order:
                raise ValueError(
                    f"dense entries must have {self.order} equal nonempty "
                    f"axes, got shape {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError("dense entries must be finite")
            # The swaps of adjacent axes generate every permutation of the
            # axes, so it is enough that each swap moves no entry by more
            # than SYMMETRY_TOL times the largest magnitude (roundoff).
            # Each swap is compared one leading-axis slice at a time, so
            # the temporaries hold 1/dim of the entries.
            tol = SYMMETRY_TOL * max(arr.max(), -arr.min())
            for axis in range(self.order - 1):
                for i in range(dim):
                    gap = arr[i] - (arr[:, i] if axis == 0 else
                                    np.swapaxes(arr[i], axis - 1, axis))
                    bad = np.abs(gap, out=gap) > tol
                    if bad.any():
                        idx = (i, *(int(j) for j in np.argwhere(bad)[0]))
                        raise ValueError(f"dense entries are not permutation "
                                         f"symmetric at index {idx}")
            object.__setattr__(self, "entries", arr)
        else:
            if self.weights is None or self.vectors is None:
                raise ValueError("factored form needs both weights and vectors")
            w = _readonly(self.weights)
            vs = _readonly(self.vectors)
            if w.ndim != 1 or w.size == 0:
                raise ValueError("factored weights must be a nonempty 1-d array")
            if vs.ndim != 2 or vs.shape[1] != w.size:
                raise ValueError(
                    f"factored vectors must have shape (n, {w.size}), "
                    f"got {vs.shape}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(vs))):
                raise ValueError("factored weights and vectors must be finite")
            for column in vs.T:
                _as_unit_vector(column, "every factored vector")
            dim = vs.shape[0]
            object.__setattr__(self, "weights", w)
            object.__setattr__(self, "vectors", vs)
            if w.size * dim * (dim + 1) // 2 <= DENSE_CAP:
                rows, cols, index = _upper_triangle(dim)
                table = (vs[rows] * vs[cols]).T.copy()  # C order: (r, pairs)
                table.setflags(write=False)
                object.__setattr__(self, "pair_products", table)
                object.__setattr__(self, "pair_index", index)
        object.__setattr__(self, "dim", dim)

    @property
    def is_dense(self) -> bool:
        return self.entries is not None


def outer_power(v, order: int) -> SymmetricTensor:
    """Dense m-th outer power v (x) v (x) ... (x) v of a unit vector."""
    v = _as_unit_vector(v, "outer-power vector")
    _check_order(order)
    _check_capacity(v.size, order)
    entries = reduce(np.multiply.outer, [v] * order)
    return SymmetricTensor(order=order, entries=entries)


def from_rank_one_sum(terms: Iterable[Tuple[float, Sequence[float]]],
                      order: int) -> SymmetricTensor:
    """Factored tensor sum_i c_i w_i^{(x) order} from (weight, unit vector) terms."""
    terms = list(terms)
    if not terms:
        raise ValueError("rank-one term list is empty")
    weights = []
    vectors = []
    for c, w in terms:
        vectors.append(_as_unit_vector(w, "rank-one vector"))
        weights.append(float(c))
    dims = {v.size for v in vectors}
    if len(dims) != 1:
        raise ValueError(f"rank-one vectors disagree on dimension: {sorted(dims)}")
    return SymmetricTensor(order=order, weights=np.array(weights),
                           vectors=np.column_stack(vectors))


def from_dense(entries) -> SymmetricTensor:
    """Dense tensor from an ndarray-like of at least 2 axes within the dense
    cap; the constructor checks its symmetry."""
    arr = np.asarray(entries, dtype=float)
    _check_order(arr.ndim)
    _check_capacity(arr.shape[0], arr.ndim)
    return SymmetricTensor(order=arr.ndim, entries=arr)


def densify(tensor: SymmetricTensor) -> SymmetricTensor:
    """Dense copy of a factored tensor; dense input is returned unchanged.
    Each weight scales the first factor of its outer power, so a term is
    one full array, added in and dropped before the next is built."""
    if tensor.is_dense:
        return tensor
    m = tensor.order
    _check_capacity(tensor.dim, m)
    total = np.zeros((tensor.dim,) * m)
    for c, w in zip(tensor.weights, tensor.vectors.T):
        total += reduce(np.multiply.outer, [c * w] + [w] * (m - 1))
    return SymmetricTensor(order=m, entries=total)


def _check_operand(tensor: SymmetricTensor, v) -> np.ndarray:
    x = np.asarray(v, float)
    if x.ndim not in (1, 2) or x.shape[0] != tensor.dim:
        raise ValueError(
            f"operand has shape {x.shape}, tensor expects ({tensor.dim},) "
            f"or ({tensor.dim}, B)"
        )
    return x


def _dense_contract(entries: np.ndarray, x: np.ndarray, times: int):
    # A batch is contracted one column at a time, results stacked on axis 0.
    if x.ndim == 2:
        return np.array([_dense_contract(entries, col, times) for col in x.T])
    out = entries
    for _ in range(times):
        out = out @ x
    return out


def apply_m(tensor: SymmetricTensor, v) -> float | np.ndarray:
    """Full contraction S v^m: a float, or shape (B,) for a batch."""
    x = _check_operand(tensor, v)
    if tensor.entries is None:
        out = np.dot(np.dot(x.T, tensor.vectors) ** tensor.order, tensor.weights)
    else:
        out = _dense_contract(tensor.entries, x, tensor.order)
    return out if x.ndim == 2 else float(out)


def apply_m1(tensor: SymmetricTensor, v) -> np.ndarray:
    """Vector contraction S v^{m-1}: shape (n,), or (n, B) for a batch."""
    x = _check_operand(tensor, v)
    if tensor.entries is None:
        vs = tensor.vectors
        coef = tensor.weights * np.dot(x.T, vs) ** (tensor.order - 1)
        return np.dot(vs, coef.T)
    return _dense_contract(tensor.entries, x, tensor.order - 1).T


def apply_m2(tensor: SymmetricTensor, v) -> np.ndarray:
    """Matrix contraction S v^{m-2}: shape (n, n), or (B, n, n) for a batch.

    A factored tensor with a pair-product table makes one product of the
    coefficients against it and spreads the upper triangle over both
    halves, so the result is exactly symmetric by construction. Without a
    table (it would exceed the dense cap), and for dense storage, the
    result is symmetrized against roundoff."""
    x = _check_operand(tensor, v)
    if tensor.entries is None:
        vs = tensor.vectors
        coef = tensor.weights * np.dot(x.T, vs) ** (tensor.order - 2)
        if tensor.pair_products is not None:
            tri = coef.dot(tensor.pair_products)
            # indexing a 1-d tri without an Ellipsis is the cheaper gather
            return tri[tensor.pair_index] if tri.ndim == 1 \
                else tri[:, tensor.pair_index]
        out = (vs * coef[..., None, :]) @ vs.T
    else:
        out = _dense_contract(tensor.entries, x, tensor.order - 2)
    return 0.5 * (out + out.mT)


def tensor_to_payload(tensor: SymmetricTensor) -> dict:
    """A dense tensor's flat entries cannot give their own shape, so its
    payload states ``dim``; a factored payload's term vectors give it."""
    if tensor.is_dense:
        return {
            "order": tensor.order,
            "dim": tensor.dim,
            "repr": "dense",
            "entries": [float(x) for x in tensor.entries.ravel(order="C")],
        }
    return {
        "order": tensor.order,
        "repr": "factored",
        "terms": [
            {"weight": float(c), "vector": [float(x) for x in w]}
            for c, w in zip(tensor.weights, tensor.vectors.T)
        ],
    }


def tensor_from_payload(payload: dict) -> SymmetricTensor:
    with jsonio.reading("order"):
        order = int(payload["order"])
        _check_order(order)
    kind = payload["repr"]
    if kind == "dense":
        with jsonio.reading("dim"):
            dim = int(payload["dim"])
            if dim < 1:
                raise ValueError(f"dense payload needs dim >= 1, got {dim}")
            _check_capacity(dim, order)
        with jsonio.reading("entries"):
            flat = np.asarray(payload["entries"], dtype=float)
            if flat.size != dim ** order:
                raise ValueError(f"dense payload has {flat.size} entries, "
                                 f"expected {dim ** order}")
            return from_dense(flat.reshape((dim,) * order))
    if kind == "factored":
        with jsonio.reading("terms"):
            return from_rank_one_sum(
                ((t["weight"], t["vector"]) for t in payload["terms"]), order)
    raise ValueError(f"unknown tensor repr {kind!r}")


def save_tensor(tensor: SymmetricTensor, path) -> None:
    jsonio.dump(tensor_to_payload(tensor), path)


def load_tensor(path) -> SymmetricTensor:
    with jsonio.reading(path):
        return tensor_from_payload(jsonio.load(path))
