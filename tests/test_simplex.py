"""The phase-1 simplex: golden vertices, a loop reference, and error paths.

``feasible_point`` enters the column of the most negative reduced cost
(Dantzig's rule, lowest index on ties), and after a degenerate pivot the
smallest eligible one (Bland's rule), so its pivot sequence, and with it the
returned vertex, is fixed by the data.  ``_loop_feasible_point`` is the
row-by-row loop implementation that preceded the vectorised tableau, under
the same rule; the golden digests below were recorded from it, and every
float of a result goes through ``float.hex``, so a change that moves one
coordinate by one ulp fails here.  The corpus holds the LPs the classifiers
pose (semipositivity of -(Q + diag beta) for thm22, of -(Q + diag beta) H
for thm23, and the nonincreasing-eta system of thm32, at n = 5, 20, 50), an
infeasible system, the b >= 0 shortcut, a ratio-test tie, a vertex with a
-0.0 coordinate, a degenerate system that retires a column through the
``blocked`` branch and one on which Dantzig's rule alone cycles.  The loop
also counts its pivots, retired columns and Bland fallbacks that differ
from Dantzig's choice; the counts are pinned for the n = 50 systems, so a
slip back to Bland's rule alone fails without any timing.  Seeded random
and degenerate systems are compared against the loop bit for bit.

The invariant is the vertex: it is bit-identical to the row loop's, the
signs of its zero coordinates included.  The tableau itself is not: its
rank-1 update is one BLAS product, whose zero products are +0 where the loop
can form -0, so zero signs inside the tableau may differ.  The systems with
signed zeros pin the one place where that would reach the vertex, the
right-hand-side column, which must keep the loop's exact products.
"""

import hashlib

import numpy as np
import pytest

from regime.errors import SolverFailure
from regime import simplex
from regime.simplex import _TOL, feasible_point


def _loop_feasible_point(a_ub, b_ub, max_iter=20000, stats=None):
    """The row-by-row tableau loop, kept as the bitwise reference.

    A ``stats`` dict, if given, receives the counts of the run: ``pivots``,
    ``retired`` (columns retired through the ``blocked`` branch) and
    ``fallback`` (pivots after a degenerate one whose Bland column is not
    the one Dantzig's rule would have taken).
    """
    a = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b = np.asarray(b_ub, dtype=float).ravel()
    m, n = a.shape
    if (b >= 0).all():
        return np.zeros(n)
    norms = np.maximum(np.abs(a).max(axis=1), np.abs(b))
    norms = np.where(norms > 0, norms, 1.0)
    a = a / norms[:, None]
    b = b / norms
    n_art = int((b < 0).sum())
    width = n + m + n_art + 1
    t = np.zeros((m, width))
    basis = np.empty(m, dtype=int)
    art_col = {}
    k = 0
    for i in range(m):
        if b[i] < 0:
            t[i, :n] = -a[i]
            t[i, n + i] = -1.0
            col = n + m + k
            t[i, col] = 1.0
            t[i, -1] = -b[i]
            basis[i] = col
            art_col[i] = col
            k += 1
        else:
            t[i, :n] = a[i]
            t[i, n + i] = 1.0
            t[i, -1] = b[i]
            basis[i] = n + i
    cost = np.zeros(width)
    for col in art_col.values():
        cost[col] = 1.0
    red = cost.copy()
    for i in range(m):
        if basis[i] in art_col.values():
            red -= t[i]
    first_art = n + m
    blocked = set()
    stalled = False
    counts = {"pivots": 0, "retired": 0, "fallback": 0}
    for _ in range(max_iter):
        eligible = [j for j in range(width - 1) if j not in blocked and red[j] < -_TOL]
        if not eligible:
            break
        dantzig = min(eligible, key=lambda j: red[j])  # the first of equal minima
        entering = eligible[0] if stalled else dantzig
        counts["fallback"] += entering != dantzig
        col = t[:, entering]
        cand = [i for i in range(m) if col[i] > _TOL]
        if not cand:
            blocked.add(entering)
            counts["retired"] += 1
            continue
        best = min(t[i, -1] / col[i] for i in cand)
        stalled = best <= _TOL
        leave = min((i for i in cand if t[i, -1] / col[i] <= best + _TOL),
                    key=lambda i: basis[i])
        piv = t[leave, entering]
        t[leave] /= piv
        for i in range(m):
            if i != leave and t[i, entering] != 0.0:
                t[i] -= t[i, entering] * t[leave]
        red -= red[entering] * t[leave]
        basis[leave] = entering
        blocked.clear()
        counts["pivots"] += 1
    else:
        raise SolverFailure("phase-1 simplex hit the iteration cap")
    if stats is not None:
        stats.update(counts)
    infeas = sum(t[i, -1] for i in range(m) if basis[i] >= first_art)
    if infeas > 1e-7:
        return None
    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = max(t[i, -1], 0.0)
    return x


def _digest(x):
    if x is None:
        return "infeasible"
    return hashlib.sha256(";".join(float(v).hex() for v in x).encode()).hexdigest()


def _generator(rng, n):
    q = rng.uniform(0.2, 1.5, size=(n, n))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def _semipositivity_lp(a):
    """{y >= 0 : -A y <= A 1 - 1}, the system behind the M-matrix certificate."""
    return -a, a @ np.ones(a.shape[0]) - 1.0


def _thm22(n, seed, dominant):
    rng = np.random.default_rng(seed)
    q = _generator(rng, n)
    beta = -(0.5 + rng.random(n)) if dominant else rng.standard_normal(n)
    return _semipositivity_lp(-(q + np.diag(beta)))


def _thm23(n, seed, dominant):
    rng = np.random.default_rng(seed)
    q = _generator(rng, n)
    beta = -(0.5 + rng.random(n)) if dominant else rng.standard_normal(n)
    return _semipositivity_lp(-(q + np.diag(beta)) @ np.triu(np.ones((n, n))))


def _thm32(n, seed, by_construction):
    """eta_{i+1} <= eta_i, eta_n >= 1 and Q eta <= -1 - beta."""
    rng = np.random.default_rng(seed)
    q = _generator(rng, n)
    if by_construction:
        eta = 1.0 + np.sort(2.0 * rng.random(n))[::-1]
        beta = -1.0 - q @ eta - (0.1 + 0.4 * rng.random(n))
    else:
        beta = rng.standard_normal(n)
    order = np.eye(n, k=1)[:-1] - np.eye(n)[:-1]
    last = -np.eye(n)[-1:]
    a_ub = np.vstack([order, last, q])
    b_ub = np.concatenate([np.zeros(n - 1), [-1.0], -1.0 - beta])
    return a_ub, b_ub


CORPUS = {
    **{f"thm22_n{n}_{kind}": _thm22(n, 100 + n, kind == "dominant")
       for n in (5, 20, 50) for kind in ("dominant", "mixed")},
    **{f"thm23_n{n}_{kind}": _thm23(n, 200 + n, kind == "dominant")
       for n in (5, 20, 50) for kind in ("dominant", "mixed")},
    **{f"thm32_n{n}_{kind}": _thm32(n, 300 + n, kind == "constructed")
       for n in (5, 20, 50) for kind in ("constructed", "mixed")},
    # x1 + x2 <= 1 and x1 + x2 >= 3
    "infeasible": (np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([1.0, -3.0])),
    "nonnegative_rhs": (np.array([[1.0, -2.0, 3.0], [-4.0, 5.0, -6.0]]),
                        np.array([0.0, 2.0])),
    # a pivot with two rows at the minimum ratio, where taking the first of
    # them instead of the smallest basis index ends at another vertex
    "ratio_tie": (np.array([[2.0, 0.0, -2.0], [-2.0, -1.0, 1.0], [-1.0, 1.0, -2.0],
                            [0.0, 0.0, 1.0]]),
                  np.array([-2.0, -1.0, 1.0, 1.0])),
    # x1 <= -0.0 leaves at ratio -0.0, so x1 is basic at -0.0 and is
    # returned with that sign
    "negative_zero": (np.array([[1.0, 0.0], [-1.0, -1.0]]), np.array([-0.0, -1.0])),
    # the first column's entries sit below the pivot tolerance in every row
    # while their sum pushes its reduced cost below -tolerance.  Dantzig's
    # rule enters x2 in the row x2 - x3 <= 0, at ratio 0; after that
    # degenerate pivot Bland's rule takes the smallest eligible column, the
    # first, and retires it as blocked before x3 enters
    "blocked_column": (np.array([[-9e-10, -1.0, 0.0], [-9e-10, -1.0, 0.0],
                                 [-9e-10, -1.0, 0.0], [0.0, 1.0, -1.0]]),
                       np.array([-1.0, -1.0, -1.0, 0.0])),
    # three rows with zero right-hand side and one artificial row: under
    # Dantzig's rule alone seven degenerate pivots lead back to the same
    # basis, over and over, until the iteration cap; the Bland fallback ends
    # the run after seven pivots
    "dantzig_cycle": (np.array([[1.0, 55.0, 357.0, 0.0, -6.0, 12.0],
                                [311.0, -4.0, 228.0, 59.0, -124.0, 8.0],
                                [-196.0, 11.0, 88.0, 81.0, 100.0, -415.0],
                                [-15.0, -59.0, 8.0, -5.0, 4.0, 14.0]]),
                      np.array([0.0, 0.0, 0.0, -50.0])),
}

GOLDEN = {
    "blocked_column": "fb3922eec858eeab3157868f432fac0f7ba3c01f149f0689a2fa71289e5f165f",
    "dantzig_cycle": "a615ac981f5036b64f3874892e2ab740948ae76bde73b37aff77f77ea3752e64",
    "infeasible": "infeasible",
    "negative_zero": "dac82949772d4b1b2db079fface111845e297685f51fc2a7995a12eca0b962a2",
    "nonnegative_rhs": "f775576e9cda80398f73cde0265943624b2b78ba9a86fdd60dfc22732b7cedac",
    "ratio_tie": "fb0ea8275cee3d27b08c58c1627298397c345b72a1a184479a61139ecac60cf5",
    "thm22_n20_dominant": "77d06d63f64d3f7d7407a2f45b8db8d175c19cd8820f8e8c239b8dd8f40ad1f4",
    "thm22_n20_mixed": "39e0fbc58bbf3586a93e16e7d7dc58af9c1a1b8d75313f12a4b37599febf77bd",
    "thm22_n50_dominant": "be9b082bdb1d5a9cfd99f7aef8b5bf97ec5ac08cd479610ac9f72bf30caf94a0",
    "thm22_n50_mixed": "infeasible",
    "thm22_n5_dominant": "3388d85dd8b985f28697c40d051499996ab42216a2bd726c74f5b2194541d8d3",
    "thm22_n5_mixed": "infeasible",
    "thm23_n20_dominant": "91b4e3cca9af68d800e05f637c91e41ac2359ede3fbcee610a6e393cb6ea2057",
    "thm23_n20_mixed": "infeasible",
    "thm23_n50_dominant": "f12357ac8d2fc7b7c0846f937af4e45dd1ff277b2034c833f7b1772e65ad1732",
    "thm23_n50_mixed": "infeasible",
    "thm23_n5_dominant": "35d3426d62fc6e9499098c26aac15e8a86496d67aa0a8ff1538a4f62bfa0dd3a",
    "thm23_n5_mixed": "f0a60d633b12c0fd94a643fd56fdc4b5a27f9d7574af47de2e3c2965f39d4831",
    "thm32_n20_constructed": "787a3e6f2c3232131dfed62e5f1cee776f518f4e786cb6ff75741ddc503b7776",
    "thm32_n20_mixed": "infeasible",
    "thm32_n50_constructed": "b3ed17f4e52df32b5aa3269147a45d317add8894c879daaefcaca5bfa480775b",
    "thm32_n50_mixed": "infeasible",
    "thm32_n5_constructed": "a8b5e9c819e03a41cf3bd9b377ab7eee16f283bd8845cb7067746e6d9bf5f194",
    "thm32_n5_mixed": "infeasible",
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_vertex_is_bitwise_golden(name):
    a_ub, b_ub = CORPUS[name]
    assert _digest(feasible_point(a_ub, b_ub)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_loop_reference_reproduces_golden(name):
    a_ub, b_ub = CORPUS[name]
    assert _digest(_loop_feasible_point(a_ub, b_ub)) == GOLDEN[name]


@pytest.mark.parametrize("seed", range(40))
def test_matches_loop_reference_on_random_systems(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 12, size=2)
    if seed % 2:
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(-3, 4, size=m).astype(float)
    else:
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
    assert _digest(feasible_point(a, b)) == _digest(_loop_feasible_point(a, b))


def _signed_zero_system(seed):
    """A small integer system whose zero entries are -0.0: every zero of b,
    and every zero of a for even seeds."""
    rng = np.random.default_rng(seed)
    m, n = rng.integers(2, 7, size=2)
    a = rng.integers(-2, 3, size=(m, n)).astype(float)
    b = rng.integers(-2, 2, size=m).astype(float)
    b[b == 0.0] = -0.0
    if seed % 2 == 0:
        a[a == 0.0] = -0.0
    return a, b


# seeds whose vertex takes the sign of a zero from the right-hand-side
# column: an update that let that column take the BLAS product's +0 where
# the loop forms -0 returns a -0.0 coordinate for one of the loop's +0.0
# (seed 716: (0, 0, 1, 0, -0, 0) for the loop's (0, 0, 1, 0, 0, 0)).  Seed
# 1442 did so under Bland's rule alone and stays as a plain comparison.
@pytest.mark.parametrize("seed", [80, 159, 556, 716, 1442, 1803, 2240])
def test_signed_zeros_match_loop_reference(seed):
    a, b = _signed_zero_system(seed)
    assert _digest(feasible_point(a, b)) == _digest(_loop_feasible_point(a, b))


def _degenerate_system(seed):
    """A small integer system with zero right-hand sides in about 40% of its
    rows, so pivots stall at ratio 0 with ties between the zero rows."""
    rng = np.random.default_rng(seed)
    m, n = rng.integers(3, 9), rng.integers(2, 6)
    a = rng.integers(-2, 3, size=(m, n)).astype(float)
    b = rng.integers(-2, 2, size=m).astype(float)
    b[rng.random(m) < 0.4] = 0.0
    return a, b


# seeds where a pivot after a degenerate one takes Bland's column, not
# Dantzig's, and the vertex then differs from the one Dantzig's rule alone
# would reach
DEGENERATE_SEEDS = [16, 31, 79, 92, 98, 115, 122, 160]


@pytest.mark.parametrize("seed", DEGENERATE_SEEDS)
def test_bland_fallback_matches_loop_reference(seed):
    a, b = _degenerate_system(seed)
    stats = {}
    want = _loop_feasible_point(a, b, stats=stats)
    assert stats["fallback"] > 0
    assert _digest(feasible_point(a, b)) == _digest(want)


# the loop reference's counts for the n = 50 systems and the two degenerate
# ones; Bland's rule alone takes 144 pivots on thm32_n50_constructed and 85
# on thm23_n50_dominant
PIVOTS = {
    "blocked_column": {"pivots": 4, "retired": 1, "fallback": 1},
    "dantzig_cycle": {"pivots": 7, "retired": 0, "fallback": 2},
    "thm22_n50_dominant": {"pivots": 40, "retired": 0, "fallback": 0},
    "thm22_n50_mixed": {"pivots": 49, "retired": 0, "fallback": 0},
    "thm23_n50_dominant": {"pivots": 24, "retired": 0, "fallback": 0},
    "thm23_n50_mixed": {"pivots": 3, "retired": 0, "fallback": 0},
    "thm32_n50_constructed": {"pivots": 78, "retired": 0, "fallback": 11},
    "thm32_n50_mixed": {"pivots": 54, "retired": 0, "fallback": 16},
}


@pytest.mark.parametrize("name", sorted(PIVOTS))
def test_pivot_counts_are_pinned(name, monkeypatch):
    a_ub, b_ub = CORPUS[name]
    stats = {}
    _loop_feasible_point(a_ub, b_ub, stats=stats)
    assert stats == PIVOTS[name]
    # feasible_point makes one pass per pivot and per retired column, and a
    # last one that finds no eligible column: it needs exactly that many
    passes = stats["pivots"] + stats["retired"] + 1
    monkeypatch.setattr(simplex, "MAX_ITER", passes)
    feasible_point(a_ub, b_ub)
    monkeypatch.setattr(simplex, "MAX_ITER", passes - 1)
    with pytest.raises(SolverFailure, match="iteration cap"):
        feasible_point(a_ub, b_ub)


def test_feasible_vertex_satisfies_constraints():
    for name, (a_ub, b_ub) in CORPUS.items():
        x = feasible_point(a_ub, b_ub)
        if x is not None:
            assert x.min() >= 0.0, name
            assert (a_ub @ x <= b_ub + 1e-7 * (1.0 + np.abs(b_ub))).all(), name


def test_iteration_cap_raises_solver_failure(monkeypatch):
    a_ub, b_ub = CORPUS["thm32_n20_constructed"]
    assert feasible_point(a_ub, b_ub) is not None
    monkeypatch.setattr(simplex, "MAX_ITER", 2)
    with pytest.raises(SolverFailure, match="iteration cap"):
        feasible_point(a_ub, b_ub)


@pytest.mark.parametrize("a_ub, b_ub", [
    ([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0, 3.0]),
    ([[1.0, 2.0]], [[1.0], [2.0]]),
])
def test_shape_mismatch_raises_value_error(a_ub, b_ub):
    with pytest.raises(ValueError, match="b_ub length"):
        feasible_point(a_ub, b_ub)


@pytest.mark.parametrize("a_ub, b_ub", [
    ([[1.0, np.nan]], [-1.0]),
    ([[1.0, 2.0]], [-np.inf]),
    ([[np.inf, 2.0]], [1.0]),
])
def test_nonfinite_data_raises_value_error(a_ub, b_ub):
    with pytest.raises(ValueError, match="finite"):
        feasible_point(a_ub, b_ub)


def test_no_variables_is_feasible_only_when_b_is_nonnegative():
    assert feasible_point(np.zeros((2, 0)), [1.0, -1.0]) is None
    x = feasible_point(np.zeros((2, 0)), [1.0, 0.0])
    assert x is not None and x.shape == (0,)
