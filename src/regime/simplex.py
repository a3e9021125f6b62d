"""Small dense phase-1 simplex for linear feasibility questions.

Its one run-time caller is the thm32 test
(``criteria.classify_two_function_state_dependent``), which asks "is there an
x >= 0 with A x <= b" with n rows and n - 1 variables for n regimes, so a
dense tableau is plenty and keeps the answer self-contained.

The entering column is the one with the most negative phase-1 reduced cost
(Dantzig's rule), the lowest index on ties.  The pivot after a degenerate
one, whose minimum ratio was <= _TOL, takes the smallest eligible index
instead (Bland's rule).  On the n = 50 thm32 systems of the certify
benchmark this takes about a third of the pivots of Bland's rule alone.  The
run ends, since no basis recurs:

- the artificial total is a function of the basis, and no pivot raises it;
  a pivot whose minimum ratio is > _TOL strictly lowers it, so no basis
  recurs across one;
- a recurring basis would close a cycle of pivots that all leave the total
  unchanged, so each of them follows a degenerate pivot and is chosen by
  Bland's rule, and Bland's rule cannot cycle (Bland, "New finite pivoting
  rules for the simplex method", Math. Oper. Res. 2, 1977).

Both arguments assume exact arithmetic; MAX_ITER still bounds the pivots.
``tests/test_simplex.py`` holds a system on which Dantzig's rule alone
cycles.

The tableau is one numpy array whose last row holds the phase-1 reduced
costs, and each pivot is a few whole-array operations: one masked argmin or
argmax on the cost row picks the entering column, the ratio test and its
smallest-basis-index tie-break run on the entering column as arrays, and
one rank-1 update eliminates that column from every row, the cost row
included: one BLAS product of the entering column (zeroed in the pivot row)
with the pivot row, then one plain subtract.

The vertex returned is the same to the last bit as that of the row-by-row
loop under the same rule, which ``tests/test_simplex.py`` keeps as the
reference; only the signs of zeros inside the tableau may differ from it.
The argument:

- The rule makes the pivot sequence a function of the data alone: it reads
  the reduced costs below -_TOL, which are nonzero, and whether the last
  minimum ratio was <= _TOL.  The cost row is formed, as in the loop, by
  subtracting the artificial rows one after another in row order.
- With k = 1 every nonzero product is f_r * t_lc rounded once, exactly as
  the loop's multiply.  A zero product comes out as +0, where the loop can
  form -0.  Since x - (+0) is x to the bit, -0 included, the rows with
  f_r = 0 and the pivot row keep their bits without a mask.
- The sign of a zero changes no comparison (the eligibility and ratio tests,
  the degeneracy test, the most negative reduced cost, ``f == 0``, the ratio
  ties) and no nonzero result: +-0 - y = -y, +-0 * y = +-0 and
  +-0 / p = +-0.  So the basis sequence and every nonzero entry are the
  loop's.
- The vertex reads only the right-hand-side column and the basis.  That
  column takes the loop's exact products (zero where the loop skips the
  row), so x is the loop's to the bit, a -0.0 coordinate included.
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
    ratio = np.empty(m)  # ratio test, reused; NaN marks a non-candidate row
    blocked: set = set()
    stalled = False  # the last pivot was degenerate: its minimum ratio <= _TOL
    for _ in range(MAX_ITER):
        eligible = red < -_TOL
        if blocked:
            eligible[list(blocked)] = False
        if stalled:
            entering = int(eligible.argmax())  # Bland: smallest eligible index
        else:
            # Dantzig: most negative reduced cost, lowest index on ties
            entering = int(np.where(eligible, red, np.inf).argmin())
        if not eligible[entering]:
            break
        f = t[:, entering].copy()  # the entering column, cost row included
        col = f[:m]
        ratio.fill(np.nan)
        np.divide(rhs, col, out=ratio, where=col > _TOL)
        best = float(np.fmin.reduce(ratio))  # skips the NaNs
        if math.isnan(best):
            # phase-1 is bounded below by 0, so a seemingly unbounded column is
            # round-off at a degenerate vertex; retire it and move on
            blocked.add(entering)
            continue
        stalled = best <= _TOL
        tied = (ratio <= best + _TOL).nonzero()[0]
        leave = tied[0] if tied.size == 1 else tied[basis[tied].argmin()]
        t[leave] /= t[leave, entering]
        f[leave] = 0.0  # the pivot row keeps its values
        # rank-1 elimination from every row, cost row included, as one gemm
        # with k = 1 (see the module docstring): zero signs inside the tableau
        # may differ from the row loop's, but the vertex is the loop's to the
        # bit, because the right-hand side, which it reads, takes the loop's
        # exact products and zero signs
        np.dot(f[:, None], t[None, leave], out=prod)
        prod[:, -1] = 0.0
        np.multiply(f, t[leave, -1], out=prod[:, -1], where=f != 0.0)
        t -= prod
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
