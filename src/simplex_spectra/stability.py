"""Second-order classification of Z-eigenpairs.

Two spectra drive the verdicts. The projected Hessian
K = P ((m-1) S v^{m-2} - lambda I) P with P = I - v v^T classifies the pair
as a constrained local max / min / saddle of S v^m on the sphere. The
power-map Jacobian J = ((m-1)/lambda) (S v^{m-2} - lambda v v^T) classifies
robustness: the pair is an attracting fixed point of the normalized power map
exactly when the spectral radius of J is below 1. Both matrices annihilate v
and are tied together by the identity lambda J = K + lambda (I - v v^T).

For eigenpairs at the vectors of a regular simplex frame everything is known
in closed form, and ``frame_vector_prediction`` evaluates those formulas in
exact rational arithmetic so that the boundary rho = 1 cases are decided
without floating-point ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .eigensolve import Eigenpair, pair_to_payload
from .tensors import SymmetricTensor, apply_m2

LAMBDA_FLOOR = 1e-8
STATIONARITY_TOL = 1e-8
ROBUSTNESS_TOL = 1e-9
V_MODE_OVERLAP = 0.9

STAT_LOCAL_MAX = "local_max"
STAT_LOCAL_MIN = "local_min"
STAT_SADDLE = "saddle"
STAT_DEGENERATE = "degenerate"

ROB_ROBUST = "robust"
ROB_NOT_ROBUST = "not_robust"
ROB_BOUNDARY = "boundary"
ROB_UNDEFINED = "undefined"


def second_order(tensor: SymmetricTensor, pair: Eigenpair
                 ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """K and J at one eigenpair, both from a single contraction S v^{m-2}.

    K = P ((m-1) S v^{m-2} - lambda I) P with P = I - v v^T, symmetrized
    against the roundoff of the two products. J = ((m-1)/lambda)
    (S v^{m-2} - lambda v v^T) is already exactly symmetric, since
    apply_m2 and the outer product are; it is None when |lambda| is at or
    below LAMBDA_FLOOR, where the power map has no Jacobian.
    """
    s = apply_m2(tensor, pair.v)
    vv = np.outer(pair.v, pair.v)
    p = np.eye(tensor.dim) - vv
    k = p @ ((tensor.order - 1) * s - pair.lam * np.eye(tensor.dim)) @ p
    k = 0.5 * (k + k.T)
    if abs(pair.lam) <= LAMBDA_FLOOR:
        return k, None
    return k, ((tensor.order - 1) / pair.lam) * (s - pair.lam * vv)


def _drop_forced_zero(spectrum: np.ndarray, vectors: np.ndarray,
                      v: np.ndarray) -> Optional[np.ndarray]:
    """Remove the eigenvalue belonging to the forced v-mode (K v = J v = 0).

    The mode is identified by eigenvector overlap |<u, v>| > 0.9; among
    qualifying modes the one with the smallest magnitude is dropped. Returns
    None when no eigenvector lines up with v, which callers report as
    degenerate rather than guessing.
    """
    overlaps = np.abs(vectors.T @ v)
    candidates = np.flatnonzero(overlaps > V_MODE_OVERLAP)
    if candidates.size == 0:
        return None
    drop = candidates[int(np.argmin(np.abs(spectrum[candidates])))]
    return np.delete(spectrum, drop)


def classify_stationarity(k_spectrum, k_vectors, v) -> str:
    """Constrained stationarity from the projected Hessian spectrum.

    After discarding the forced zero along v: all remaining eigenvalues
    below -STATIONARITY_TOL is a local max, all above +STATIONARITY_TOL a
    local min, any within STATIONARITY_TOL of 0 degenerate, otherwise a
    saddle.
    """
    spectrum = np.asarray(k_spectrum, dtype=float)
    rest = _drop_forced_zero(spectrum, np.asarray(k_vectors, dtype=float),
                             np.asarray(v, dtype=float))
    if rest is None:
        return STAT_DEGENERATE
    if rest.size == 0:
        return STAT_LOCAL_MAX  # dim 1: the sphere is two points, both maxima
    if np.any(np.abs(rest) <= STATIONARITY_TOL):
        return STAT_DEGENERATE
    if np.all(rest < -STATIONARITY_TOL):
        return STAT_LOCAL_MAX
    if np.all(rest > STATIONARITY_TOL):
        return STAT_LOCAL_MIN
    return STAT_SADDLE


def classify_robustness(j_spectrum, lam: float) -> str:
    """Attractiveness of the pair under the power map, from the J spectrum.

    rho < 1 - ROBUSTNESS_TOL is robust, rho > 1 + ROBUSTNESS_TOL is not,
    anything within ROBUSTNESS_TOL of 1 is boundary. Pairs with |lambda| at
    or below LAMBDA_FLOOR have no Jacobian and come back undefined.
    """
    if abs(lam) <= LAMBDA_FLOOR:
        return ROB_UNDEFINED
    rho = float(np.max(np.abs(np.asarray(j_spectrum, dtype=float))))
    if abs(rho - 1.0) <= ROBUSTNESS_TOL:
        return ROB_BOUNDARY
    return ROB_ROBUST if rho < 1.0 else ROB_NOT_ROBUST


def lemma_bridge_residual(tensor: SymmetricTensor, pair: Eigenpair) -> float:
    """Frobenius residual of lambda J = K + lambda (I - v v^T).

    The identity couples the two classification matrices; on a true eigenpair
    it holds to roundoff. second_order builds K and J by separate formulas
    from one contraction, so the residual checks those formulas against
    each other.
    """
    k, j = second_order(tensor, pair)
    if j is None:
        raise ValueError("bridge identity needs |lambda| above the floor")
    p = np.eye(tensor.dim) - np.outer(pair.v, pair.v)
    return float(np.linalg.norm(pair.lam * j - k - pair.lam * p, ord="fro"))


@dataclass(frozen=True)
class ClosedFormReport:
    """Exact rational predictions for an eigenpair at a simplex frame vector."""

    n: int
    m: int
    lam: Fraction
    j_nonzero_eig: Fraction
    rho: Fraction


def frame_vector_prediction(n: int, m: int) -> ClosedFormReport:
    """Closed forms at a regular simplex frame vector, in exact arithmetic.

    lambda = 1 + n / (-n)^m; the power-map Jacobian has eigenvalue 0 (once)
    and (n+1)(m-1) / (1 + (-n)^{m-2} n) with multiplicity n-1, so
    rho = (n+1)(m-1) / (n^{m-1} - 1) for odd m and
    rho = (n+1)(m-1) / (n^{m-1} + 1) for even m. Exact rationals make the
    rho = 1 boundary decision unambiguous. n = 1 is admitted for even m only
    (odd m degenerates: the frame tensor vanishes); there the nonzero
    eigenvalue has multiplicity 0, the Jacobian is the 1x1 zero and rho = 0.
    """
    if n < 1:
        raise ValueError("frame prediction needs n >= 1")
    if m < 3:
        raise ValueError("frame prediction needs m >= 3")
    denom = 1 + ((-n) ** (m - 2)) * n
    if denom == 0:
        raise ValueError("degenerate case n = 1 with odd m: the tensor is zero")
    lam = 1 + Fraction(n, (-n) ** m)
    j_nonzero = Fraction((n + 1) * (m - 1), denom)
    rho = abs(j_nonzero) if n > 1 else Fraction(0)
    return ClosedFormReport(
        n=n,
        m=m,
        lam=lam,
        j_nonzero_eig=j_nonzero,
        rho=rho,
    )


def closed_form_verdict(rho: Fraction) -> str:
    """Exact robustness verdict from a rational spectral radius."""
    if rho < 1:
        return ROB_ROBUST
    if rho == 1:
        return ROB_BOUNDARY
    return ROB_NOT_ROBUST


@dataclass(eq=False)
class StabilityReport:
    """Both classifications for one eigenpair. ``j_spectrum`` and ``rho`` are
    None when |lambda| sits at or below LAMBDA_FLOOR (no power-map Jacobian)."""

    pair: Eigenpair
    k_spectrum: np.ndarray
    j_spectrum: Optional[np.ndarray]
    rho: Optional[float]
    stationarity: str
    robust: str


def classify_pair(tensor: SymmetricTensor, pair: Eigenpair) -> StabilityReport:
    """Run both classifiers on one eigenpair and collect the evidence."""
    k, j = second_order(tensor, pair)
    k_values, k_vectors = np.linalg.eigh(k)
    stationarity = classify_stationarity(k_values, k_vectors, pair.v)
    if j is None:
        return StabilityReport(pair, k_values, None, None,
                               stationarity, ROB_UNDEFINED)
    j_values, _ = np.linalg.eigh(j)
    rho = float(np.max(np.abs(j_values)))
    robust = classify_robustness(j_values, pair.lam)
    return StabilityReport(pair, k_values, j_values, rho, stationarity, robust)


def report_to_payload(report: StabilityReport) -> dict:
    return {
        "pair": pair_to_payload(report.pair),
        "k_spectrum": [float(x) for x in report.k_spectrum],
        "j_spectrum": (None if report.j_spectrum is None
                       else [float(x) for x in report.j_spectrum]),
        "rho": None if report.rho is None else float(report.rho),
        "stationarity": report.stationarity,
        "robust": report.robust,
    }
