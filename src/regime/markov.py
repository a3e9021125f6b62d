"""Markov-chain core: generator validation, invariant measures, rate bounding,
and finite coarsening of infinite birth-death regime spaces.

Finite chains index regimes 0..n-1.  Infinite birth-death chains use 1-based
states {1, 2, ...}, which keeps the half-line examples readable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    EmptyClass,
    EmptyGrid,
    NegativeOffDiagonal,
    Reducible,
    RowSumNonzero,
    ScanNotStabilized,
    SingularSolve,
    UnboundedBeta,
    UnboundedRate,
)

# Entries below PATTERN_TOL * max|Q| count as structural zeros for the
# irreducibility test; the sign and row-sum tolerances are relative as well.
PATTERN_TOL = 1e-14
OFFDIAG_TOL = 1e-12
ROWSUM_TOL = 1e-12
RATE_CAP = 1e8  # largest scanned rate bound_rates accepts


@dataclass(frozen=True, eq=False)
class QMatrix:
    """A validated conservative, irreducible generator matrix.

    Construct through :func:`validate_qmatrix`; the entries array is marked
    read-only so instances are safely shareable.
    """

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def exit_rates(self) -> np.ndarray:
        """q_i = -q_ii, the total jump rate out of each regime."""
        return -np.diag(self.entries)

    def scale(self) -> float:
        return float(np.abs(self.entries).max())

    def per_regime(self, values) -> np.ndarray:
        """``values`` as a float vector with one entry per regime; the one
        length check of every per-regime beta or b a criterion reads."""
        v = np.asarray(values, dtype=float).ravel()
        if v.shape != (self.n,):
            raise ValueError(f"expected one value per regime ({self.n}), got {v.size}")
        return v


def _strongly_connected(adj: np.ndarray) -> bool:
    """True iff every node reaches every other.  Each squaring of the
    reflexive reachability matrix doubles the path length it covers, so
    (n-1).bit_length() squarings reach every simple path; the float product
    runs in BLAS."""
    n = adj.shape[0]
    reach = (adj | np.eye(n, dtype=bool)).astype(float)
    for _ in range((n - 1).bit_length()):
        reach = (reach @ reach > 0).astype(float)
    return bool(reach.all())


def validate_qmatrix(raw) -> QMatrix:
    """Validate a raw rate matrix: signs, zero row sums, irreducibility.

    Raises
    ------
    NegativeOffDiagonal, RowSumNonzero, Reducible
    """
    a = np.array(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError("generator must be a square matrix")
    if not np.isfinite(a).all():
        raise ValueError("generator entries must be finite")
    n = a.shape[0]
    scale = max(1.0, float(np.abs(a).max()))
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    if off.min() < -OFFDIAG_TOL * scale:
        i, j = divmod(int(np.argmin(off)), n)
        raise NegativeOffDiagonal(f"q[{i},{j}] = {off[i, j]:g} is negative")
    rows = a.sum(axis=1)
    if np.abs(rows).max() > ROWSUM_TOL * scale:
        i = int(np.argmax(np.abs(rows)))
        raise RowSumNonzero(f"row {i} sums to {rows[i]:g}, expected 0")
    if not _strongly_connected(off > PATTERN_TOL * scale):
        raise Reducible("positivity pattern of the generator is not strongly connected")
    a[off < 0] = 0.0  # tolerated round-off: off-diagonal entries are >= 0 exactly
    a.setflags(write=False)
    return QMatrix(entries=a)


def invariant_measure(q: QMatrix) -> np.ndarray:
    """Probability vector mu with mu Q = 0 and sum(mu) = 1.

    The last balance equation is replaced by the normalisation row, which is
    a well-conditioned square system for irreducible generators.  The result
    is strictly positive.

    Raises
    ------
    SingularSolve
        if the solve fails or the residual check ``max|mu Q| <= 1e-10 max|Q|``
        does not hold.
    """
    n = q.n
    m = q.entries.T.copy()
    m[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        mu = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSolve(f"balance system is numerically singular: {exc}") from None
    resid = float(np.abs(mu @ q.entries).max())
    if not np.isfinite(mu).all() or mu.min() <= 0.0 or resid > 1e-10 * max(q.scale(), 1e-300):
        raise SingularSolve("invariant measure failed validation (residual or positivity)")
    mu = mu / mu.sum()
    mu.setflags(write=False)
    return mu


# ---------------------------------------------------------------------------
# bounding state-dependent rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScanGrid:
    """1-d evaluation grid used to bound state-dependent rates by scanning."""

    lo: float
    hi: float
    points: int = 129
    spacing: str = "geometric"

    def build(self) -> np.ndarray:
        """The grid refined once: ``2 * points - 1`` nodes, whose even nodes are
        the ``points`` nodes of the grid itself, bit for bit."""
        if self.points < 2 or not self.hi > self.lo:
            raise EmptyGrid(f"scan grid [{self.lo}, {self.hi}] with {self.points} points is empty")
        m = 2 * self.points - 1
        if self.spacing == "geometric":
            if self.lo <= 0:
                raise EmptyGrid("geometric spacing needs lo > 0")
            return np.geomspace(self.lo, self.hi, m)
        if self.spacing == "linear":
            return np.linspace(self.lo, self.hi, m)
        raise ValueError(f"unknown spacing {self.spacing!r}")


@dataclass(frozen=True, eq=False)
class StateDependentRates:
    """Bounded switching rates q_ij(x) on a 1-d state space.

    ``rate_fn(x, lam)`` is called with positions ``x`` of shape (k,) and the
    regime of each, an integer array ``lam`` of shape (k,), and returns the
    (n, k) rate table: entry (j, p) is q_{lam[p], j}(x[p]), and entry
    (lam[p], p) is 0.  Optional ``hints[(i, j)] = (inf, sup)``, with
    ``inf <= sup``, give closed-form bounds over the whole domain;
    :func:`bound_rates` uses them in place of scanned bounds once the scan
    agrees with them.
    """

    n: int
    rate_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hints: Optional[dict] = None

    def __post_init__(self):
        for (i, j), (inf_v, sup_v) in (self.hints or {}).items():
            if not inf_v <= sup_v:
                raise ValueError(f"hint for q[{i},{j}] needs inf <= sup, "
                                 f"got [{inf_v:g}, {sup_v:g}]")

    def evaluate(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """``rate_fn(x, lam)`` as floats, checked to have the shape (n, k) and
        no negative or NaN entry; the first bad path raises."""
        q = np.asarray(self.rate_fn(x, lam), dtype=float)
        if q.shape != (self.n, x.shape[0]):
            raise ValueError(f"rate_fn(x, lam) must return the rate table shape (n, k) = "
                             f"{(self.n, x.shape[0])}, got {q.shape}")
        if not q.min() >= 0.0:
            _raise_bad_rate(q, x, lam)
        return q


def _check_diagonal(q: np.ndarray, xs: np.ndarray, lam: np.ndarray, p: int):
    """Raise ValueError unless entry (lam[p], p) of the rate table is 0."""
    if q[lam[p], p] != 0.0:
        raise ValueError(f"rate_fn(x, lam) entry (lam[p], p) = ({lam[p]}, {p}) must be 0, "
                         f"got {q[lam[p], p]:.6g} at x = {xs[p]:.6g}")


def _raise_bad_rate(q: np.ndarray, xs: np.ndarray, lam: np.ndarray):
    """Raise for the first path (in batch order) whose rates out of its regime
    include a negative or non-finite value."""
    bad = ~(np.isfinite(q) & (q >= 0.0))
    p = int(bad.any(axis=0).argmax())
    _check_diagonal(q, xs, lam, p)
    j = int(bad[:, p].argmax())
    i, value = int(lam[p]), float(q[j, p])
    where = f"q[{i},{j}](x = {float(xs[p]):.6g}) = {value:.6g}"
    if not np.isfinite(value):
        raise UnboundedRate(f"switching rate {where} is not finite")
    raise NegativeOffDiagonal(f"switching rate {where} is negative")


def _extremum(vals: np.ndarray, i: int, j: int, want_sup: bool) -> float:
    # evaluate has rejected NaN; an infinite rate fails the cap
    if np.abs(vals).max() > RATE_CAP:
        raise UnboundedRate(f"q[{i},{j}] exceeds the rate cap {RATE_CAP:g} on the scan grid")
    return float(vals.max() if want_sup else vals.min())


def bound_rates(rates: StateDependentRates, grid: ScanGrid) -> QMatrix:
    """Bounding generator: sup of each rate below the diagonal, inf above.

    One ``rate_fn`` call reads each row on ``grid.build()``.  A hint
    ``(inf, sup)`` must contain every scanned value (else ValueError) and is
    the bound; any other entry takes its scanned extremum, which must agree to
    1e-6 relative with that of the even (unrefined) nodes and stay within
    RATE_CAP.  The diagonal is chosen conservative and the result is validated
    like any generator, so a reducible or negative bounding matrix raises.
    """
    n = rates.n
    out = np.zeros((n, n))
    hints = rates.hints or {}
    xs = grid.build()
    for i in range(n):
        scan = rates.evaluate(xs, np.full(xs.size, i))
        for j in range(n):
            if i == j:
                continue
            want_sup = j < i
            hint = hints.get((i, j))
            if hint is not None:
                inf_v, sup_v = hint
                outside = (scan[j] < inf_v) | (scan[j] > sup_v)
                if outside.any():
                    p = int(outside.argmax())
                    raise ValueError(f"q[{i},{j}](x = {xs[p]:.6g}) = {scan[j, p]:.6g} lies "
                                     f"outside its hint [inf, sup] = [{inf_v:g}, {sup_v:g}]")
                val = float(sup_v if want_sup else inf_v)
            else:
                coarse = _extremum(scan[j, ::2], i, j, want_sup)
                fine = _extremum(scan[j], i, j, want_sup)
                if abs(fine - coarse) > 1e-6 * max(1.0, abs(fine)):
                    raise ScanNotStabilized(
                        f"q[{i},{j}] bound moved from {coarse:g} to {fine:g} under refinement")
                val = fine
            out[i, j] = val
    np.fill_diagonal(out, 0.0)
    np.fill_diagonal(out, -out.sum(axis=1))
    return validate_qmatrix(out)


# ---------------------------------------------------------------------------
# infinite birth-death chains and finite coarsening
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailHomogeneousChain:
    """Birth-death chain on {1, 2, ...} with rates constant beyond index K0.

    ``up_rates[i-1]`` is the rate i -> i+1 for i <= K0 (and the constant tail
    value beyond); ``down_rates[i-2]`` is the rate i -> i-1 for 2 <= i <= K0+1
    (constant beyond).  Both tuples have length K0 (a property, not a field).
    """

    up_rates: tuple
    down_rates: tuple

    def __post_init__(self):
        if not 1 <= len(self.up_rates) == len(self.down_rates):
            raise ValueError("up_rates and down_rates must both have length K0 >= 1")
        if min(self.up_rates) <= 0 or min(self.down_rates) <= 0:
            raise ValueError("birth and death rates must be positive (irreducibility)")

    @classmethod
    def constant(cls, up: float, down: float) -> "TailHomogeneousChain":
        return cls(up_rates=(float(up),), down_rates=(float(down),))

    @property
    def K0(self) -> int:
        return len(self.up_rates)

    def up(self, i: int) -> float:
        return float(self.up_rates[min(i, self.K0) - 1])

    def down(self, i: int) -> float:
        if i < 2:
            raise ValueError("state 1 has no downward transition")
        return float(self.down_rates[min(i - 1, self.K0) - 1])

    @property
    def tail_up(self) -> float:
        return float(self.up_rates[-1])

    @property
    def tail_down(self) -> float:
        return float(self.down_rates[-1])

    def is_recurrent(self) -> bool:
        # a tail-homogeneous birth-death chain is recurrent iff the constant
        # tail does not drift upward
        return self.tail_down >= self.tail_up


@dataclass(frozen=True)
class BetaSequence:
    """Per-state drift bounds beta_j for j in {1, 2, ...}.

    The first ``len(head)`` values are explicit; beyond the head the sequence
    is assumed to approach ``tail_limit`` monotonically, so the supremum over
    any tail set is the larger of the remaining head values and the limit.
    """

    head: tuple
    tail_limit: float

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(self.head))  # a list head works too
        vals = np.asarray(self.head + (self.tail_limit,), dtype=float)
        if vals.size < 2:
            raise ValueError("head must contain at least one value")
        if not np.isfinite(vals).all():
            raise UnboundedBeta("beta sequence has non-finite entries")

    def value(self, j: int) -> float:
        if j < 1:
            raise ValueError("states are 1-based")
        return float(self.head[j - 1]) if j <= len(self.head) else float(self.tail_limit)

    def sup_over(self, lo: int, hi: Optional[int]) -> float:
        """Supremum of beta_j over the state interval [lo, hi] (hi=None: infinite)."""
        if hi is not None:
            if hi > len(self.head):
                raise ValueError("finite classes must lie inside the explicit head")
            return float(max(self.head[lo - 1:hi]))
        cands = [self.tail_limit]
        if lo <= len(self.head):
            cands.append(max(self.head[lo - 1:]))
        return float(max(cands))

    def sup(self) -> float:
        return self.sup_over(1, None)


@dataclass(frozen=True)
class Partition:
    """Ordered partition of {1, 2, ...} into contiguous state intervals.

    ``classes`` is a tuple of ``(lo, hi)`` pairs, 1-based and inclusive, with
    ``hi=None`` marking the single infinite tail class, which must come last.
    """

    classes: tuple

    def __post_init__(self):
        if not self.classes:
            raise ValueError("partition needs at least one class")
        nxt = 1
        for k, (lo, hi) in enumerate(self.classes):
            last = k == len(self.classes) - 1
            if lo != nxt:
                raise ValueError("classes must tile {1,2,...} contiguously in order")
            if last:
                if hi is not None:
                    raise ValueError("the final class must be the infinite tail (hi=None)")
            else:
                if hi is None or hi < lo:
                    raise ValueError("non-final classes must be nonempty finite intervals")
                nxt = hi + 1

    @property
    def m(self) -> int:
        return len(self.classes)

    @classmethod
    def from_cutpoints(cls, beta: BetaSequence, cutpoints: Sequence[float]) -> "Partition":
        """Derive classes {j : beta_j in (k_{i-1}, k_i]} from increasing cutpoints.

        The last cutpoint must be an upper bound for the whole sequence, and
        states beyond the explicit head must all land in the class of the
        tail limit; otherwise extend the head.  Every class must be nonempty,
        and the bins of beta_1, beta_2, ..., tail limit may never decrease, so
        classes are state intervals in order (monotone sequences guarantee it).
        """
        cuts = np.asarray(cutpoints, dtype=float)
        if cuts.ndim != 1 or cuts.size < 1:
            raise ValueError("cutpoints must be a nonempty 1-d sequence")
        if not np.isfinite(cuts).all() or (np.diff(cuts) <= 0).any():
            raise ValueError("cutpoints must be finite and strictly increasing")
        # a beta within round-off above a cutpoint (0.65 - 0.5 against 0.15) is on
        # it; sound, as coarsening bounds classes by beta values, not cutpoints
        cuts_up = cuts + 1e-12 * np.maximum(1.0, np.abs(cuts))
        if beta.sup() > cuts_up[-1]:
            raise ValueError("last cutpoint must dominate the whole beta sequence")
        # the tail behaves like one more state
        bins = np.searchsorted(cuts_up, beta.head + (beta.tail_limit,), side="left")
        h_last = beta.head[-1]
        lo_gap, hi_gap = min(h_last, beta.tail_limit), max(h_last, beta.tail_limit)
        if ((cuts_up > lo_gap) & (cuts_up < hi_gap)).any():
            raise ValueError("a cutpoint falls between the last head value and the tail "
                             "limit; extend the beta head")
        m = cuts.size
        empty = np.flatnonzero(np.bincount(bins, minlength=m) == 0).tolist()
        if empty:
            raise EmptyClass(f"partition bins {empty} contain no state; delete those cutpoints")
        if (np.diff(bins) < 0).any():
            raise ValueError("cutpoint classes are not contiguous state intervals in order; "
                             "supply explicit classes instead")
        # the bins run 0..m-1 without decreasing: bin k starts at the first state in it
        starts = (np.searchsorted(bins, np.arange(m)) + 1).tolist()
        his = [lo - 1 for lo in starts[1:]] + [None]
        return cls(classes=tuple(zip(starts, his)))


def coarsen(chain: TailHomogeneousChain, beta: BetaSequence,
            partition: Partition) -> tuple:
    """Collapse an infinite birth-death regime space onto partition classes.

    Returns ``(beta_f, q_f)``: the per-class suprema of ``beta`` and the m x m
    bounding generator with row sups toward lower classes, row infs toward
    higher ones, and a conservative diagonal.  Tail homogeneity makes every
    supremum and infimum a finite max/min.
    """
    classes = partition.classes
    m = partition.m
    beta_f = np.array([beta.sup_over(lo, hi) for lo, hi in classes])

    q_f = np.zeros((m, m))
    for i, (lo, hi) in enumerate(classes):
        # birth-death moves reach only the adjacent classes, and only from the
        # boundary states of the current class
        if i > 0:
            # toward the class below: sup over r in F_i of the mass into F_{i-1},
            # which is down(lo) from the bottom state and 0 elsewhere
            q_f[i, i - 1] = chain.down(lo)
        if i < m - 1:
            # toward the class above: inf over r in F_i, which vanishes unless
            # the class is the single state hi
            q_f[i, i + 1] = chain.up(hi) if lo == hi else 0.0
    np.fill_diagonal(q_f, -q_f.sum(axis=1))
    beta_f.setflags(write=False)
    q_f.setflags(write=False)
    return beta_f, q_f
