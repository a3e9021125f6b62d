"""Nonsingular M-matrix certificates and Perron-Frobenius data.

The classifiers test Z-matrices ``-(Q + diag b)``, Q a generator.  For a
Z-matrix A, "nonsingular M-matrix", "all leading principal minors positive",
"A^-1 >= 0", "some x >> 0 has A x >> 0" and "least real eigenvalue positive"
are equivalent (Berman and Plemmons, ch. 6).  The verdict is the minors test,
read from the pivots of one elimination of A / scale, which no size or
entry of A can overflow; a positive vector x = A^-k 1 with a residual proof
confirms it, and alone proves A an M-matrix.  The certificates take
Z-matrices only; ``leading_minors`` takes any square matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InconsistentChecks, NoConvergence
from .markov import QMatrix

# A pivot of A / scale within BOUNDARY_BAND of zero marks the certificate as
# boundary; callers must report such cases inconclusive instead of letting the
# verdict flip on round-off.
BOUNDARY_BAND = 1e-8
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_SUBNORMAL = np.finfo(float).smallest_subnormal
# solves A x <- x tried for the positive vector; see semipositive_certificate
SOLVE_STEPS = 3
PERRON_MAX_ITER = 100000


def z_pattern(a) -> bool:
    """True iff every off-diagonal entry is <= 0, exactly: generator
    validation already zeroes the round-off it tolerates."""
    off = np.array(a, dtype=float)
    np.fill_diagonal(off, 0.0)
    return bool(off.max() <= 0.0)


def _square(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    return m


def _z_matrix(a) -> np.ndarray:
    m = _square(a)
    if not (np.isfinite(m).all() and z_pattern(m)):
        raise ValueError("matrix must be a finite Z-matrix")
    return m


def leading_minors(a, return_pivots: bool = False):
    """Determinants of the top-left k x k blocks, k = 1..n.

    One elimination of A / scale without row exchanges, scale = max(1, max
    |a_ij|); pivot k is minor_k / (scale * minor_{k-1}).  It stops at the
    first pivot within BOUNDARY_BAND of zero, so the result can be shorter
    than n.  Minors beyond the float range come back as +-inf or 0; the
    pivots (``return_pivots=True``) stay in range.
    """
    m = _square(a)
    scale = max(1.0, float(np.abs(m).max()))
    m = m / scale
    n = m.shape[0]
    pivots = np.empty(n)
    for k in range(n):
        pivots[k] = piv = m[k, k]
        if abs(piv) <= BOUNDARY_BAND:
            pivots = pivots[:k + 1]
            break
        if k + 1 == n:
            break
        # stays multiply.outer: a BLAS product (np.dot) or einsum writes +0
        # where outer writes -0, and a pivot's zero sign reaches the reported
        # minors; the simplex can take the BLAS product because no zero sign
        # inside its tableau reaches its vertex
        m[k + 1:, k + 1:] -= np.multiply.outer(m[k + 1:, k] / piv, m[k, k + 1:])
    with np.errstate(over="ignore", invalid="ignore"):
        minors = np.cumprod(scale * pivots)
    minors[np.isnan(minors)] = 0.0  # an exact zero pivot after an overflowed minor
    return (minors, pivots) if return_pivots else minors


def semipositive_certificate(a) -> Optional[np.ndarray]:
    """A vector x with x >= 1 and A x >> 0 componentwise for the Z-matrix A, or None.

    x = A^-k 1 scaled to min x = 1 for the first k <= SOLVE_STEPS with
    fl(A x) - gamma_{n+2} |A| x > (n+2) * smallest subnormal, which proves
    A x >> 0 exactly (gamma_k = k u / (1 - k u), u the unit round-off;
    Higham, *Accuracy and Stability of Numerical Algorithms*, section 3.5).
    As A^-1 >= 0, later powers lean towards the Perron vector of A^-1, whose
    margin survives an ill-conditioned A that spreads A^-1 1 past the proof.
    """
    m = _z_matrix(a)
    n = m.shape[0]
    gamma = (n + 2) * _UNIT_ROUNDOFF / (1 - (n + 2) * _UNIT_ROUNDOFF)
    abs_m = np.abs(m)
    x = np.ones(n)
    for _ in range(SOLVE_STEPS):
        try:
            x = np.linalg.solve(m, x)
        except np.linalg.LinAlgError:
            return None
        if not (np.isfinite(x).all() and (x > 0).all()):
            return None
        # a spread past the float range gives inf; the next solve fails
        with np.errstate(over="ignore", invalid="ignore"):
            x = x / x.min()
            if np.isfinite(x).all() and (
                    m @ x - gamma * (abs_m @ x) > (n + 2) * _SUBNORMAL).all():
                return x
    return None


def least_real_eigenvalue(a) -> float:
    """Least real eigenvalue s - rho(sI - A) of the Z-matrix A, s its largest diagonal entry."""
    m = _z_matrix(a)
    s = float(np.diag(m).max())
    rho = float(np.abs(np.linalg.eigvals(s * np.eye(m.shape[0]) - m)).max())
    return s - rho


@dataclass(frozen=True, eq=False)
class MMatrixCertificate:
    """Evidence for or against the nonsingular M-matrix verdict on a Z-matrix.

    ``verdict`` is the minors test, and ``positive_vector`` (x >> 0 with
    A x >> 0, proved) comes only with a true verdict, which is unproved
    without it.  ``boundary`` flags a pivot within the round-off band of
    zero; ``minors`` then stops at the first leading block singular to
    working accuracy.
    """

    verdict: bool
    minors: np.ndarray
    positive_vector: Optional[np.ndarray]
    boundary: bool


def is_nonsingular_mmatrix(a) -> MMatrixCertificate:
    """Run the minors and semipositivity checks on the Z-matrix A.

    A proved positive vector with the minors test failing away from the
    boundary band raises InconsistentChecks (that signals ill-conditioning;
    perturb the input or fall back to exact arithmetic at small sizes).
    """
    m = np.asarray(a, dtype=float)
    x = semipositive_certificate(m)  # validates m as a finite square Z-matrix
    minors, pivots = leading_minors(m, return_pivots=True)
    minors_ok = bool((pivots > BOUNDARY_BAND).all())
    boundary = bool((np.abs(pivots) <= BOUNDARY_BAND).any())
    if not boundary and x is not None and not minors_ok:
        raise InconsistentChecks("a proved positive vector contradicts the minors off the band")

    minors.setflags(write=False)
    if x is not None:
        x.setflags(write=False)
    return MMatrixCertificate(verdict=minors_ok, minors=minors, positive_vector=x,
                              boundary=boundary)


# ---------------------------------------------------------------------------
# Perron-Frobenius data for Q + p diag(beta)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PerronData:
    """Spectral data of Q_p = Q + p diag(beta).

    ``eta_p`` is the negated spectral abscissa of Q_p and ``xi`` the strictly
    positive right eigenvector with ||xi||_1 = 1.
    """

    p: float
    eta_p: float
    xi: np.ndarray


def perron(q: QMatrix, beta, p: float) -> PerronData:
    """Power iteration for the Perron pair of Q + p diag(beta).

    The iteration runs on the shifted matrix M = Q_p + c I with
    c = max_i(q_i + p |beta_i|) + 1, which is entrywise nonnegative with a
    strictly positive diagonal, hence primitive for irreducible Q; the Perron
    pair is then the unique attractor and eta_p = c - rho(M).
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    b = q.per_regime(beta)
    qp = q.entries + p * np.diag(b)
    c = float((q.exit_rates + p * np.abs(b)).max()) + 1.0
    m = qp + c * np.eye(q.n)

    scale_qp = float(np.abs(qp).max())
    res_target = 1e-10 * max(scale_qp, 1e-6)

    x = np.full(q.n, 1.0 / q.n)
    rho_prev = np.inf
    for _ in range(PERRON_MAX_ITER):
        y = m @ x
        rho = float(x @ y / (x @ x))
        x = y / y.sum()
        if abs(rho - rho_prev) <= 1e-12 * max(1.0, abs(rho)):
            if float(np.abs(m @ x - rho * x).max()) <= res_target:
                break
        rho_prev = rho
    else:
        raise NoConvergence("power iteration did not reach tolerance")

    # polish the eigenvalue with one Rayleigh quotient on the final vector
    y = m @ x
    rho = float(x @ y / (x @ x))
    if x.min() <= 0:
        raise NoConvergence("Perron vector lost positivity; generator may be reducible")
    x = x / x.sum()
    x.setflags(write=False)
    return PerronData(p=float(p), eta_p=c - rho, xi=x)
