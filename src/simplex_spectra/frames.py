"""Unit-vector frames: the regular simplex frame, certification, and the
symmetric tensors frames generate.

The regular simplex frame packs n+1 unit vectors into R^n with every pairwise
inner product equal to -1/n. It is an equiangular tight frame: W W^T is
((n+1)/n) I and the vectors sum to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import jsonio
from .tensors import SymmetricTensor

FRAME_GRAM_TOL = 1e-10
CERTIFY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Frame:
    """A finite set of vectors in R^dim, stored as the columns of the
    (dim, count) array ``vectors``.

    Only the shape and finiteness are checked here, so hand-built frames may
    carry arbitrary columns; certify() checks the frame conditions.
    """

    vectors: np.ndarray

    def __post_init__(self):
        vecs = np.array(self.vectors, dtype=float, copy=True)
        if vecs.ndim != 2 or vecs.size == 0:
            raise ValueError(
                f"frame vectors must be a nonempty (dim, count) array, "
                f"got shape {vecs.shape}"
            )
        if not np.all(np.isfinite(vecs)):
            raise ValueError("frame vectors must be finite")
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def count(self) -> int:
        return self.vectors.shape[1]


def regular_simplex_frame(n: int) -> Frame:
    """The n+1 unit vectors in R^n with all pairwise inner products -1/n.

    Construction: take the n+1 standard basis vectors of R^{n+1}, subtract
    their centroid, orthonormalize the first n centered vertices in index
    order (Gram-Schmidt), express all n+1 in that basis and normalize.
    Deterministic, so every caller sees the identical frame.
    """
    if n < 1:
        raise ValueError("regular simplex frame needs n >= 1")
    verts = np.eye(n + 1) - 1.0 / (n + 1)  # row i: e_i minus the centroid
    basis = []
    for i in range(n):
        q = verts[i].copy()
        for b in basis:
            q -= (q @ b) * b
        q /= np.linalg.norm(q)
        basis.append(q)
    coords = np.asarray(basis) @ verts.T  # (n, n+1)
    coords /= np.linalg.norm(coords, axis=0)
    gram = coords.T @ coords
    off = gram[~np.eye(n + 1, dtype=bool)]
    if np.max(np.abs(off + 1.0 / n)) > FRAME_GRAM_TOL \
            or np.max(np.abs(coords @ coords.T - (n + 1) / n * np.eye(n))) \
            > FRAME_GRAM_TOL:
        raise ValueError(f"simplex frame construction failed for n = {n}")
    return Frame(coords)


def orthonormal_frame(n: int) -> Frame:
    """The standard basis of R^n as a frame (coherence 0, tight constant 1)."""
    if n < 1:
        raise ValueError("orthonormal frame needs n >= 1")
    return Frame(np.eye(n))


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of checking the equiangular tight-frame conditions."""

    unit_norms: bool
    equiangular: bool
    alpha: Optional[float]
    tight: bool
    a: float
    max_violation: float


def certify(frame: Frame) -> CertificationReport:
    """Check unit norms, equiangularity and tightness against CERTIFY_TOL.

    Violations are measured on the Gram matrix (diagonal against 1,
    off-diagonal absolute values against their mean) and on W W^T against
    (trace/dim) I; ``max_violation`` is the largest of them all.
    """
    w = frame.vectors
    gram = w.T @ w
    unit_violation = float(np.max(np.abs(np.diag(gram) - 1.0)))
    iu = np.triu_indices(frame.count, k=1)
    off = np.abs(gram[iu])
    if off.size:
        alpha = float(np.mean(off))
        eq_violation = float(np.max(np.abs(off - alpha)))
    else:
        alpha = None
        eq_violation = 0.0
    outer = w @ w.T
    a = float(np.trace(outer) / frame.dim)
    tight_violation = float(np.max(np.abs(outer - a * np.eye(frame.dim))))
    return CertificationReport(
        unit_norms=unit_violation <= CERTIFY_TOL,
        equiangular=eq_violation <= CERTIFY_TOL,
        alpha=alpha,
        tight=tight_violation <= CERTIFY_TOL,
        a=a,
        max_violation=max(unit_violation, eq_violation, tight_violation),
    )


def frame_tensor(frame: Frame, order: int) -> SymmetricTensor:
    """Factored symmetric tensor sum_j w_j^{(x) order} over the frame vectors.

    The one refusal of an order below 3. The frame's columns go to
    SymmetricTensor as they are, with unit weights; its constructor rejects
    a non-unit column.
    """
    if order < 3:
        raise ValueError("frame tensors are studied for order m >= 3")
    return SymmetricTensor(order=order, weights=np.ones(frame.count),
                           vectors=frame.vectors)


def simplex_tensor(n: int, m: int) -> SymmetricTensor:
    """The order-m tensor generated by the regular simplex frame in R^n. At
    n = 1 the frame is w and -w, so odd m, whose tensor is zero, is refused."""
    if n == 1 and m % 2 == 1:
        raise ValueError("the simplex tensor for n = 1 and odd m is zero")
    return frame_tensor(regular_simplex_frame(n), m)


def frame_to_payload(frame: Frame) -> dict:
    return {"vectors": [[float(x) for x in frame.vectors[:, j]]
                        for j in range(frame.count)]}


def frame_from_payload(payload: dict) -> Frame:
    """The frame whose columns are the listed vectors; Frame refuses a list
    that is empty, ragged or not finite."""
    with jsonio.reading("vectors"):
        return Frame(np.array(payload["vectors"], dtype=float).T)


def save_frame(frame: Frame, path) -> None:
    jsonio.dump(frame_to_payload(frame), path)


def load_frame(path) -> Frame:
    with jsonio.reading(path):
        return frame_from_payload(jsonio.load(path))
