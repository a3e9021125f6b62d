"""Nonsingular M-matrix certificates and Perron-Frobenius data.

The classifiers in this package test matrices of two shapes: ``-(Q + diag b)``,
which always has the Z-sign pattern, and ``-(Q + diag b) H``, with H the
upper-triangular all-ones matrix, which usually does not.  The operative
verdict everywhere is "all leading principal minors are positive".  For
Z-matrices that is equivalent to nonsingular M-matrix status, and the
semipositivity and least-real-eigenvalue tests must then agree; away from the
Z pattern the minors condition is the test itself and the other checks are
reported as evidence only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InconsistentChecks, NoConvergence, NotApplicable, SolverFailure
from .markov import QMatrix, invariant_measure
from .simplex import feasible_point

# Minor k within BOUNDARY_BAND * scale**k of zero marks the certificate as
# boundary; callers must report such cases inconclusive instead of letting the
# verdict flip on round-off.
BOUNDARY_BAND = 1e-8
Z_TOL = 1e-12
# largest matrix whose leading minors are computed (one dense det per minor)
_MINORS_CAP = 64


def upper_ones(m: int) -> np.ndarray:
    """The m x m upper-triangular all-ones matrix H, (H v)_i = v_i + ... + v_m."""
    if m < 1:
        raise ValueError("size must be positive")
    return np.triu(np.ones((m, m)))


def z_pattern(a, tol: float = Z_TOL) -> bool:
    """True iff every off-diagonal entry is <= 0, treating |entry| <= tol*scale as 0."""
    m = np.asarray(a, dtype=float)
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    scale = max(1.0, float(np.abs(m).max()))
    return bool(off.max() <= tol * scale)


def leading_minors(a) -> np.ndarray:
    """Determinants of the top-left k x k blocks, k = 1..n (LU with pivoting)."""
    m = np.asarray(a, dtype=float)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("matrix must be square")
    if n > _MINORS_CAP:
        raise ValueError(f"dense minor sequence is limited to n <= {_MINORS_CAP}")
    return np.array([np.linalg.det(m[:k, :k]) for k in range(1, n + 1)])


def semipositive_certificate(a) -> Optional[np.ndarray]:
    """A vector x with x >= 1 and A x >= 1 componentwise, or None.

    Existence is scale-invariant, so this is exactly the classical
    semipositivity condition (some x >> 0 with A x >> 0).  Substituting
    x = 1 + y turns it into feasibility of {y >= 0 : -A y <= A 1 - 1}.
    """
    m = np.asarray(a, dtype=float)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("matrix must be square")
    y = feasible_point(-m, m @ np.ones(n) - 1.0)
    if y is None:
        return None
    x = 1.0 + y
    ax = m @ x
    if ax.min() <= 0 or x.min() <= 0:
        # the LP vertex should satisfy A x >= 1 - eps; anything else is a solver bug
        raise SolverFailure("feasible vertex failed the semipositivity recheck")
    return x


def least_real_eigenvalue(a) -> Optional[float]:
    """Smallest real eigenvalue of A, or None when no eigenvalue is real.

    For Z-matrices the value is computed as s - rho(sI - A) with s the largest
    diagonal entry, which is exact Perron arithmetic and always real.
    """
    m = np.asarray(a, dtype=float)
    scale = max(1.0, float(np.abs(m).max()))
    if z_pattern(m):
        s = float(np.diag(m).max())
        rho = float(np.abs(np.linalg.eigvals(s * np.eye(m.shape[0]) - m)).max())
        return s - rho
    ev = np.linalg.eigvals(m)
    real = ev.real[np.abs(ev.imag) <= 1e-9 * scale]
    return float(real.min()) if real.size else None


@dataclass(frozen=True, eq=False)
class MMatrixCertificate:
    """Evidence for or against the positive-minors / M-matrix verdict.

    ``verdict`` is the minors test.  ``z_pattern_ok`` records whether the
    classical equivalences apply; when they do, ``positive_vector`` (x >> 0
    with A x >> 0) is populated exactly when the verdict is true and
    ``eigen_witness`` (the least real eigenvalue) has the matching sign.
    ``boundary`` flags verdicts within the round-off band of singularity.
    """

    verdict: bool
    z_pattern_ok: bool
    minors: np.ndarray
    positive_vector: Optional[np.ndarray]
    eigen_witness: Optional[float]
    boundary: bool


def is_nonsingular_mmatrix(a) -> MMatrixCertificate:
    """Run the minors, semipositivity, and eigenvalue checks on A.

    For Z-matrices away from the boundary band the three checks must agree or
    InconsistentChecks is raised (that signals ill-conditioning; perturb the
    input or fall back to exact arithmetic at small sizes).
    """
    m = np.asarray(a, dtype=float)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("matrix must be square")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.abs(m).max()))

    z_ok = z_pattern(m)
    minors = leading_minors(m)
    bands = BOUNDARY_BAND * scale ** np.arange(1, n + 1)
    minors_ok = bool((minors > bands).all())
    boundary = bool((np.abs(minors) <= bands).any())

    eig_w = least_real_eigenvalue(m)
    x = semipositive_certificate(m)

    if z_ok:
        if eig_w is not None and abs(eig_w) <= BOUNDARY_BAND * scale:
            boundary = True
        if not boundary:
            sem_ok = x is not None
            eig_ok = eig_w is not None and eig_w > 0
            if not (minors_ok == sem_ok == eig_ok):
                raise InconsistentChecks(
                    f"minors={minors_ok}, semipositive={sem_ok}, eigen={eig_ok} "
                    "disagree away from the singularity boundary")

    minors.setflags(write=False)
    if x is not None:
        x.setflags(write=False)
    return MMatrixCertificate(verdict=minors_ok, z_pattern_ok=z_ok, minors=minors,
                              positive_vector=x, eigen_witness=eig_w, boundary=boundary)


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


def perron(q: QMatrix, beta, p: float, max_iter: int = 100000) -> PerronData:
    """Power iteration for the Perron pair of Q + p diag(beta).

    The iteration runs on the shifted matrix M = Q_p + c I with
    c = max_i(q_i + p |beta_i|) + 1, which is entrywise nonnegative with a
    strictly positive diagonal, hence primitive for irreducible Q; the Perron
    pair is then the unique attractor and eta_p = c - rho(M).
    """
    b = np.asarray(beta, dtype=float).ravel()
    if p < 0:
        raise ValueError("p must be nonnegative")
    if b.shape != (q.n,):
        raise ValueError("beta length must match the number of regimes")
    qp = q.entries + p * np.diag(b)
    c = float((q.exit_rates + p * np.abs(b)).max()) + 1.0
    m = qp + c * np.eye(q.n)

    scale_qp = float(np.abs(qp).max())
    res_target = 1e-10 * max(scale_qp, 1e-6)

    x = np.full(q.n, 1.0 / q.n)
    rho_prev = np.inf
    for _ in range(max_iter):
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


def critical_p(q: QMatrix, beta, p_max: float = 1.0, tol: float = 1e-8) -> float:
    """Largest p in (0, p_max] below which eta_p stays positive (diagnostic).

    Requires the averaged drift sum(mu_i beta_i) to be negative, which makes
    eta_p > 0 near p = 0; returns p_max when eta never turns negative on the
    bracket.
    """
    b = np.asarray(beta, dtype=float).ravel()
    mu = invariant_measure(q)
    s = float(mu @ b)
    if s >= -1e-12 * max(1.0, float(np.abs(b).max())):
        raise NotApplicable(f"averaged drift {s:g} is not negative")
    if perron(q, b, p_max).eta_p > 0:
        return float(p_max)
    lo = min(1e-6, p_max / 2)
    for _ in range(40):
        if perron(q, b, lo).eta_p > 0:
            break
        lo /= 10
    else:
        raise NotApplicable("could not locate a positive eta near p = 0")
    hi = p_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if perron(q, b, mid).eta_p > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
