"""Classification criteria: one operation per certificate family.

Every classifier returns a :class:`Classification` whose certificate carries
the numbers needed to re-check the verdict independently (invariant measure,
averaged drift, minor sequences, resolvent pairs, feasible vectors).  Sign
tests use a relative tolerance band; verdicts inside the band come back
inconclusive rather than manufactured, with one deliberate exception: the
1-d power-drift dichotomy, whose boundary genuinely belongs to the recurrent
side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ChainNotRecurrent, SingularSolve
from .markov import (
    BetaSequence,
    Partition,
    QMatrix,
    TailHomogeneousChain,
    coarsen,
    invariant_measure,
)
from .mmatrix import is_nonsingular_mmatrix
from .simplex import feasible_point

SIGN_TOL = 1e-10
BISECT_TOL = 1e-9
BISECT_MAX_ITER = 200


class Verdict(str, enum.Enum):
    RECURRENT = "recurrent"
    TRANSIENT = "transient"
    EXPONENTIALLY_ERGODIC = "exponentially-ergodic"
    INCONCLUSIVE = "inconclusive"


class Limit(str, enum.Enum):
    """Limit behaviour of the measuring function at infinity."""

    TO_INFINITY = "to-infinity"
    TO_ZERO = "to-zero"


@dataclass(frozen=True, eq=False)
class LyapunovBehavior:
    """Per-regime drift bounds beta_i, outside some ball, and the limit tag
    of the function they bound.

    The V-criteria (thm21-thm23) read L_i V <= beta_i V and the limit of V;
    the two-function criteria (thm31, thm32) read L_i h <= beta_i g and the
    limit of h.  The functions stay on the caller's side; only (beta, tag)
    enter computation.
    """

    tag: Limit
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float).ravel())
        if not np.isfinite(self.beta).all():
            raise ValueError("beta must be finite")


@dataclass(frozen=True, eq=False)
class Classification:
    verdict: Verdict
    criterion: str
    certificate: dict = field(default_factory=dict)
    reason: Optional[str] = None

    @property
    def conclusive(self) -> bool:
        return self.verdict is not Verdict.INCONCLUSIVE


def _averaged(q: QMatrix, v) -> tuple:
    """``v`` checked to have one entry per regime, the invariant measure mu,
    the average mu @ v and its sign tolerance."""
    v = q.per_regime(v)
    mu = invariant_measure(q)
    return v, mu, float(mu @ v), SIGN_TOL * max(1.0, float(np.abs(v).max()))


def _verdict(tag: Limit, at_infinity: Verdict) -> Verdict:
    """What a test concludes: ``at_infinity`` for a function tending to
    infinity, transience for one tending to zero."""
    return at_infinity if tag is Limit.TO_INFINITY else Verdict.TRANSIENT


def _certify(criterion: str, a: np.ndarray, payload: dict, verdict: Verdict,
             failure: str) -> Classification:
    """Positive-minors / M-matrix test on the Z-matrix ``a``: ``verdict`` when
    it passes off the singularity boundary with a proved positive vector,
    inconclusive otherwise.  ``a`` and its certificate are appended to
    ``payload``."""
    cert = is_nonsingular_mmatrix(a)
    payload.update(matrix=a, mmatrix=dict(vars(cert)))
    if cert.verdict and not cert.boundary and cert.positive_vector is not None:
        return Classification(verdict, criterion, payload)
    if cert.boundary:
        reason = "verdict sits on the singularity boundary"
    elif cert.verdict:
        reason = "no positive vector x with A x >> 0 is provable in floating point"
    else:
        reason = failure
    return Classification(Verdict.INCONCLUSIVE, criterion, payload, reason=reason)


# ---------------------------------------------------------------------------
# averaged-drift and M-matrix criteria (common measuring function V)
# ---------------------------------------------------------------------------

def classify_avg(q: QMatrix, lyap: LyapunovBehavior) -> Classification:
    """Averaged-drift test: sum(mu_i beta_i) < 0 certifies the V-limit verdict.

    V -> infinity gives exponential ergodicity, V -> 0 gives transience; a
    nonnegative average is inconclusive for this test.
    """
    _, mu, s, tol = _averaged(q, lyap.beta)
    cert = {"mu": mu, "mu_beta": s, "tol": tol}
    if s < -tol:
        return Classification(_verdict(lyap.tag, Verdict.EXPONENTIALLY_ERGODIC), "thm21", cert)
    return Classification(Verdict.INCONCLUSIVE, "thm21", cert,
                          reason=f"averaged drift {s:.6g} is not negative beyond tolerance")


def classify_mmatrix(q: QMatrix, lyap: LyapunovBehavior) -> Classification:
    """M-matrix test on -(Q + diag beta); conclusion follows the V-limit tag."""
    return _certify("thm22", -(q.entries + np.diag(q.per_regime(lyap.beta))), {},
                    _verdict(lyap.tag, Verdict.EXPONENTIALLY_ERGODIC),
                    "matrix is not a nonsingular M-matrix (the test is sufficient only)")


def classify_state_dependent(q_tilde: QMatrix, lyap: LyapunovBehavior) -> Classification:
    """State-dependent variant: the paper tests the leading minors of A H_N,
    A = -(Q~ + diag beta) and H_N the upper-triangular all-ones matrix.  H_N
    is unit upper triangular, so A H_N has the minors of A, and the Z-matrix
    A is certified."""
    out = _certify("thm23", -(q_tilde.entries + np.diag(q_tilde.per_regime(lyap.beta))),
                   {}, _verdict(lyap.tag, Verdict.EXPONENTIALLY_ERGODIC),
                   "transformed matrix fails the positive-minors test")
    out.certificate["conclusion_strength"] = ("exponentially-ergodic (implies recurrent); some "
                                              "statements of this test claim only recurrence")
    return out


def classify_infinite(chain: TailHomogeneousChain, beta: BetaSequence,
                      partition: Partition, tag: Limit) -> Classification:
    """Finite-partition test for an infinite birth-death regime space.

    Requires the switching chain itself to be recurrent (tail down-rate at
    least the up-rate).  Coarsens onto the partition classes and certifies
    -(diag beta^F + Q^F), whose minors are those of the paper's matrix times
    H_m (see :func:`classify_state_dependent`).  The conclusion is
    deliberately weaker than the finite-space tests: V -> infinity certifies
    recurrence only.
    """
    if not chain.is_recurrent():
        raise ChainNotRecurrent(
            f"tail rates up={chain.tail_up:g} > down={chain.tail_down:g}: the switching "
            "chain is transient, the partition criterion does not apply")
    beta_f, q_f = coarsen(chain, beta, partition)
    out = _certify("thm24", -(np.diag(beta_f) + q_f), {"beta_f": beta_f, "q_f": q_f},
                   _verdict(tag, Verdict.RECURRENT),
                   "coarsened matrix fails the positive-minors test")
    out.certificate["partition"] = partition.classes
    out.certificate["chain_recurrent"] = True
    return out


def classify_ou(q: QMatrix, b) -> Classification:
    """Linear-drift (Ornstein-Uhlenbeck type) criterion from the sign of sum(mu_i b_i).

    Negative average: exponentially ergodic.  Positive: transient.  The zero
    boundary is left open here.
    """
    _, mu, s, tol = _averaged(q, b)
    cert = {"mu": mu, "mu_b": s, "tol": tol}
    if s < -tol:
        return Classification(Verdict.EXPONENTIALLY_ERGODIC, "prop22", cert)
    if s > tol:
        return Classification(Verdict.TRANSIENT, "prop22", cert)
    return Classification(Verdict.INCONCLUSIVE, "prop22", cert,
                          reason="averaged linear drift vanishes; the linear boundary "
                                 "case is outside this test")


# ---------------------------------------------------------------------------
# two-function (h, g) criteria
# ---------------------------------------------------------------------------

def _pinned_solve(q: QMatrix, mu: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve Q xi = rhs with the normalisation sum(mu xi) = 0.

    rhs must be mu-orthogonal for solvability; the last row of Q is replaced
    by mu, which keeps the system square and nonsingular.
    """
    m = q.entries.copy()
    m[-1, :] = mu
    b = rhs.copy()
    b[-1] = 0.0
    try:
        xi = np.linalg.solve(m, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSolve(f"pinned resolvent solve failed: {exc}") from None
    return xi


def classify_two_function(q: QMatrix, lyap: LyapunovBehavior) -> Classification:
    """Two-function test: negative averaged beta certifies the h-limit verdict.

    ``lyap`` holds beta_i with L_i h <= beta_i g and the limit of h:
    h -> infinity gives recurrence, h -> 0 transience; the certificate is the
    resolvent pair: kappa = -sum(mu beta) and xi with Q xi = -kappa 1 - beta,
    pinned by sum(mu xi) = 0, whose residual is checked against 1e-9 of the
    data scale.
    """
    b, mu, s, tol = _averaged(q, lyap.beta)
    if s < -tol:
        kappa = -s
        xi = _pinned_solve(q, mu, -kappa - b)
        scale = q.scale() + float(np.abs(b).max())
        residual = float(np.abs(q.entries @ xi + kappa + b).max())
        if residual > 1e-9 * max(scale, 1e-300):
            raise SingularSolve(f"resolvent residual {residual:g} exceeds tolerance")
        xi.setflags(write=False)
        cert = {"mu": mu, "mu_beta": s,
                "fredholm": {"kappa": kappa, "xi": xi, "residual": residual}}
        return Classification(_verdict(lyap.tag, Verdict.RECURRENT), "thm31", cert)
    return Classification(Verdict.INCONCLUSIVE, "thm31", {"mu": mu, "mu_beta": s},
                          reason="averaged beta is not negative; for 1-d power drift the "
                                 "boundary is settled by the cor31 classifier")


def classify_two_function_state_dependent(q_tilde: QMatrix, beta, tag: Limit) -> Classification:
    """State-dependent two-function test via a nonincreasing weight eta.

    Searches for eta_1 >= ... >= eta_n >= 1 with beta_i + (Q~ eta)_i <= -1
    componentwise: the strict inequalities, posed with a unit margin.  Feasible
    eta certifies the verdict of ``tag``, the limit of h.

    Every row of Q~ sums to 0, so adding a constant to eta leaves Q~ eta
    unchanged, and eta_n = 1 loses nothing.  The LP is posed over the n - 1
    increments d_l = eta_l - eta_{l+1} >= 0, whose signs are the monotonicity:
    eta_k = 1 + sum_{l >= k} d_l gives (Q~ eta)_i = sum_l d_l sum_{k <= l} q~_ik,
    so its n rows are the first n - 1 columns of the row-wise cumulative sums
    of Q~, with right-hand side -1 - beta.
    """
    b = q_tilde.per_regime(beta)
    d = feasible_point(np.cumsum(q_tilde.entries, axis=1)[:, :-1], -1.0 - b)
    if d is None:
        return Classification(Verdict.INCONCLUSIVE, "thm32", {"beta": b},
                              reason="no nonincreasing positive eta satisfies "
                                     "beta + Q~ eta << 0")
    eta = 1.0 + np.cumsum(np.append(d, 0.0)[::-1])[::-1]
    return Classification(_verdict(tag, Verdict.RECURRENT), "thm32", {"beta": b, "eta": eta})


# ---------------------------------------------------------------------------
# radial drift samples and the 1-d power-drift dichotomy
# ---------------------------------------------------------------------------

# the drift |x|^delta against the sigma^2 / (2|x|) that Ito's formula adds to
# the radial drift: below delta = -1 the noise term dominates, at -1 they tie
_ITO_ORDER = ("at delta <= -1 Ito's sigma^2/(2|x|) term is of the drift's order or "
              "larger, so the verdict depends on sigma; this test needs delta > -1")


def classify_radial_sampled(q: QMatrix, radial_samples, delta: float) -> Classification:
    """Radial criterion from samples of b^(phi, i) . phi, shaped (n_directions,
    n_regimes): recurrent when the mu-average of the per-regime maxima (the
    limsup bound) is negative, transient when that of the minima is positive.
    It ignores sigma, so it needs delta > -1 and is inconclusive otherwise."""
    s = np.asarray(radial_samples, dtype=float)
    if s.ndim != 2 or s.shape[1] != q.n:
        raise ValueError("samples must be (n_directions, n_regimes)")
    mu = invariant_measure(q)
    beta_up, beta_lo = s.max(axis=0), s.min(axis=0)
    s_up, s_lo = float(mu @ beta_up), float(mu @ beta_lo)
    tol = SIGN_TOL * max(1.0, float(np.abs(s).max()))
    cert = {"mu": mu, "beta": beta_up, "beta_tilde": beta_lo,
            "mu_beta": s_up, "mu_beta_tilde": s_lo, "delta": delta}
    if delta <= -1.0:
        return Classification(Verdict.INCONCLUSIVE, "thm33", cert, reason=_ITO_ORDER)
    if s_up < -tol:
        return Classification(Verdict.RECURRENT, "thm33", cert)
    if s_lo > tol:
        return Classification(Verdict.TRANSIENT, "thm33", cert)
    return Classification(Verdict.INCONCLUSIVE, "thm33", cert,
                          reason="averaged radial bounds straddle zero (criterion gap)")


def classify_power_1d(q: QMatrix, b, sigma, delta: float) -> Classification:
    """Complete dichotomy for 1-d power drift b_i x^delta with reflecting zero.

    For delta in (-1, 1) the process is recurrent exactly when
    sum(mu_i b_i) <= 0 (boundary included), transient otherwise; this test is
    total there, never inconclusive.  At the boundary the certificate
    additionally records the strictly negative proof-side quantity
    sum(mu_i b_i (Q^-1 b)_i).  delta = 1 is the linear case and is delegated
    to :func:`classify_ou`.  At delta = -1 the verdict depends on sigma (one
    regime with b = 0.4, sigma = 1 is a Bessel process of dimension 1.8, so
    recurrent), and the test is inconclusive.
    """
    sv = np.asarray(sigma, dtype=float).ravel()
    if sv.size not in (1, q.n):
        raise ValueError("sigma must be scalar or per-regime")
    if np.abs(sv).min() == 0:
        raise ValueError("sigma entries must be nonzero")
    if not -1.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [-1, 1]")
    if delta == 1.0:
        out = classify_ou(q, b)
        out.certificate["delegated_from"] = "cor31"
        return out

    bv, mu, s, tol = _averaged(q, b)
    cert = {"mu": mu, "mu_b": s, "delta": delta, "tol": tol}
    if delta == -1.0:
        return Classification(Verdict.INCONCLUSIVE, "cor31", cert, reason=_ITO_ORDER)
    if s <= tol:
        if abs(s) <= tol and float(np.abs(bv).max()) > tol:
            w = _pinned_solve(q, mu, bv.copy())
            cert["boundary_certificate"] = {
                "w": w, "mu_b_w": float(np.sum(mu * bv * w))}
        return Classification(Verdict.RECURRENT, "cor31", cert)
    return Classification(Verdict.TRANSIENT, "cor31", cert)


# ---------------------------------------------------------------------------
# closed-form thresholds for the built-in birth-death benchmark
# ---------------------------------------------------------------------------

def kappa_thresholds(a: float, b: float) -> tuple:
    """Closed-form drift thresholds for the two-class birth-death benchmark
    with down-rate ``a`` and up-rate ``b`` (requires finite a >= b > 0).

    Returns ``(kappa_rec, kappa_trans)``: drift slopes below/above which the
    two-class partition certificate proves recurrence/transience.  Rates
    whose squares overflow (about 1e154 and up) are refused.
    """
    if not (a >= b > 0 and np.isfinite(a)):
        raise ValueError("need finite a >= b > 0")
    s = a + b + 1.0
    kappa_rec = (s - np.sqrt(s * s - 4.0 * a)) / 2.0
    if 2.0 * a * b <= 1.0 - b:
        kappa_trans = 1.0 - b
    else:
        t = a + b - 1.0
        kappa_trans = (1.0 - b - a + np.sqrt(t * t + 4.0 * a + 2.0 * b - 2.0)) / 2.0
    if not np.isfinite([kappa_rec, kappa_trans]).all():
        raise ValueError(f"the closed forms overflow at a = {a:g}, b = {b:g}")
    return float(kappa_rec), float(kappa_trans)


def bisect_verdict(fn: Callable[[float], bool], lo: float, hi: float) -> float:
    """Bisect the flip point of a boolean-valued function of one parameter."""
    flo, fhi = fn(lo), fn(hi)
    if flo == fhi:
        raise ValueError("verdict does not flip on the bracket")
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if fn(mid) == flo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
