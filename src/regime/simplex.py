"""Small dense phase-1 simplex for linear feasibility questions.

Its one run-time caller is the thm32 test
(``criteria.classify_two_function_state_dependent``), which asks "is there an
x >= 0 with A x <= b" with n rows and n - 1 variables for n regimes, so a
dense tableau with Bland's rule is plenty and keeps the answer
self-contained.

The tableau is one numpy array whose last row holds the phase-1 reduced
costs, and each pivot is a few whole-array operations: one masked comparison
on the cost row picks Bland's entering column (the smallest eligible index),
the ratio test and its smallest-basis-index tie-break run on the entering
column as arrays, and one rank-1 update eliminates that column from every row
that has a nonzero entry in it, the cost row included; rows with a zero
entry are not written.

Bland's rule makes the pivot sequence a function of the data alone, and each
tableau entry still sees the same floating-point operations as in a
row-by-row elimination: one multiply and one subtract per pivot, with the
cost row formed by subtracting the artificial rows one after another in row
order.  So the vertex returned is the same to the last bit as that of the
row-by-row loop, which ``tests/test_simplex.py`` keeps as the reference.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import SolverFailure

_TOL = 1e-9
MAX_ITER = 20000  # pivots before SolverFailure


def feasible_point(a_ub, b_ub) -> Optional[np.ndarray]:
    """Return some x >= 0 with ``a_ub @ x <= b_ub``, or None if infeasible.

    Raises SolverFailure if the pivoting breaks down (iteration cap or a
    structurally impossible unbounded phase-1), which is distinct from a
    clean infeasibility verdict.
    """
    a = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b = np.asarray(b_ub, dtype=float).ravel()
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError("b_ub length must match the number of rows of a_ub")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("feasibility data must be finite")
    if (b >= 0).all():
        return np.zeros(n)  # the slack basis is already feasible
    if n == 0:
        return None  # with no variables row i reads 0 <= b_i, and some b_i < 0

    # row-equilibrate, flip rows to rhs >= 0, add slacks and artificials
    norms = np.maximum(np.abs(a).max(axis=1), np.abs(b))
    norms = np.where(norms > 0, norms, 1.0)
    a = a / norms[:, None]
    b = b / norms

    neg = b < 0
    art_rows = np.flatnonzero(neg)
    sign = np.where(neg, -1.0, 1.0)
    first_art = n + m
    width = first_art + art_rows.size + 1
    art_cols = np.arange(first_art, width - 1)
    basis = np.arange(n, first_art)
    basis[art_rows] = art_cols
    # rows 0..m-1 are the constraints, row m the phase-1 reduced costs, so one
    # rank-1 update per pivot eliminates the entering column from both
    t = np.zeros((m + 1, width))
    np.multiply(a, sign[:, None], out=t[:m, :n])
    t.reshape(-1)[n:m * (width + 1):width + 1] = sign  # slack (i, n + i)
    t[art_rows, art_cols] = 1.0
    np.multiply(b, sign, out=t[:m, -1])
    # minimise the artificial total: subtract the artificial rows from the
    # cost row one after another, in row order; each artificial column meets
    # its own 1 once, so its reduced cost is 1 - 1 = 0
    np.subtract.reduce(t[art_rows], axis=0, initial=0.0, out=t[m])
    t[m, first_art:-1] = 0.0
    red = t[m, :-1]
    rhs = t[:m, -1]

    prod = np.empty_like(t)  # rank-1 products, reused by every pivot
    blocked: set = set()
    for _ in range(MAX_ITER):
        eligible = red < -_TOL
        if blocked:
            eligible[list(blocked)] = False
        entering = int(eligible.argmax())  # Bland: smallest eligible index
        if not eligible[entering]:
            break
        col = t[:m, entering]
        ratio = rhs / np.where(col > _TOL, col, np.nan)  # NaN: not a candidate
        best = float(np.fmin.reduce(ratio))  # skips the NaNs
        if math.isnan(best):
            # phase-1 is bounded below by 0, so a seemingly unbounded column is
            # round-off at a degenerate vertex; retire it and move on
            blocked.add(entering)
            continue
        tied = np.flatnonzero(ratio <= best + _TOL)
        leave = tied[0] if tied.size == 1 else tied[basis[tied].argmin()]
        t[leave] /= t[leave, entering]
        f = t[:, entering]
        touched = f != 0.0
        touched[leave] = False
        # rank-1 elimination on the rows (cost row included) that have the
        # entering column; the others keep their exact bits
        np.multiply.outer(f, t[leave], out=prod)
        np.subtract(t, prod, out=t, where=touched[:, None])
        basis[leave] = entering
        blocked.clear()
    else:
        raise SolverFailure("phase-1 simplex hit the iteration cap")

    # the artificial total, accumulated in row order
    infeas = np.add.accumulate(rhs[basis >= first_art])
    if infeas.size and infeas[-1] > 1e-7:
        return None
    x = np.zeros(n)
    own = basis < n
    v = rhs[own]
    x[basis[own]] = np.where(v < 0.0, 0.0, v)  # clip round-off, keeping a -0.0
    return x
