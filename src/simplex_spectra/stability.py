"""Second-order classification of Z-eigenpairs.

Two matrices drive the verdicts. The projected Hessian
K = P ((m-1) S v^{m-2} - lambda I) P with P = I - v v^T classifies the pair
as a constrained local max / min / saddle of S v^m on the sphere. The
power-map Jacobian J = ((m-1)/lambda) (S v^{m-2} - lambda v v^T) classifies
robustness: the pair is an attracting fixed point of the normalized power map
exactly when the spectral radius of J is below 1. Since S v^{m-1} = lambda v,
both annihilate v and leave v^perp invariant. With Q an orthonormal basis of
v^perp and the tangent block A = (m-1) Q^T S v^{m-2} Q (``tangent_block``),
the tangent K spectrum is that of A - lambda and the tangent J spectrum that
of A / lambda, so one symmetric eigenvalue problem of size n-1 classifies the
pair. Reports give both spectra at length n, with the exact 0.0 of the
forced v-mode put back.

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

STAT_LOCAL_MAX = "local_max"
STAT_LOCAL_MIN = "local_min"
STAT_SADDLE = "saddle"
STAT_DEGENERATE = "degenerate"

ROB_ROBUST = "robust"
ROB_NOT_ROBUST = "not_robust"
ROB_BOUNDARY = "boundary"
ROB_UNDEFINED = "undefined"


def tangent_block(tensor: SymmetricTensor, pair: Eigenpair
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis q of v^perp and a = (m-1) q^T S v^{m-2} q.

    q is columns 1..n-1 of the Householder reflector H = I - 2 u u^T / u^T u
    with u = v + sigma e_0, sigma = +1 when v_0 >= 0 and -1 otherwise; the
    choice of sigma keeps u^T u = 2 (1 + |v_0|) away from zero, and H e_0 =
    -sigma v, so the other columns span v^perp. a comes from one contraction
    and is symmetrized, since eigvalsh reads one triangle only.
    """
    u = np.array(pair.v)
    u[0] += 1.0 if u[0] >= 0.0 else -1.0
    q = np.eye(tensor.dim)[:, 1:] - (2.0 / u.dot(u)) * np.outer(u, u[1:])
    a = (tensor.order - 1) * (q.T @ apply_m2(tensor, pair.v) @ q)
    return q, 0.5 * (a + a.T)


def classify_stationarity(k_spectrum) -> str:
    """Constrained stationarity from the tangent K spectrum on v^perp.

    All eigenvalues below -STATIONARITY_TOL is a local max, all above
    +STATIONARITY_TOL a local min, any within STATIONARITY_TOL of 0
    degenerate, otherwise a saddle.
    """
    spectrum = np.asarray(k_spectrum, dtype=float)
    if spectrum.size == 0:
        return STAT_LOCAL_MAX  # dim 1: the sphere is two points, both maxima
    if np.any(np.abs(spectrum) <= STATIONARITY_TOL):
        return STAT_DEGENERATE
    if np.all(spectrum < -STATIONARITY_TOL):
        return STAT_LOCAL_MAX
    if np.all(spectrum > STATIONARITY_TOL):
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


def _with_forced_zero(tangent: np.ndarray) -> np.ndarray:
    """The full-space spectrum: a tangent spectrum with the exact 0.0 of the
    forced v-mode put back, in ascending order."""
    return np.sort(np.concatenate((tangent, [0.0])))


def classify_pair(tensor: SymmetricTensor, pair: Eigenpair) -> StabilityReport:
    """Run both classifiers on one eigenpair from one tangent spectrum."""
    values = np.linalg.eigvalsh(tangent_block(tensor, pair)[1])
    k_tangent = values - pair.lam
    stationarity = classify_stationarity(k_tangent)
    k_values = _with_forced_zero(k_tangent)
    if abs(pair.lam) <= LAMBDA_FLOOR:
        return StabilityReport(pair, k_values, None, None,
                               stationarity, ROB_UNDEFINED)
    j_values = _with_forced_zero(values / pair.lam)
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
