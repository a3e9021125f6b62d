"""The phase-1 simplex: golden vertices, a loop reference, and error paths.

``feasible_point`` follows Bland's rule, so its pivot sequence, and with it
the returned vertex, is fixed by the data.  The golden digests below were
recorded from the row-by-row loop implementation that preceded the
vectorised tableau; every float of a result goes through ``float.hex``, so a
change that moves one coordinate by one ulp fails here.  The corpus holds
the LPs the classifiers pose (semipositivity of -(Q + diag beta) for thm22,
of -(Q + diag beta) H for thm23, and the nonincreasing-eta system of thm32,
at n = 5, 20, 50), an infeasible system, the b >= 0 shortcut, a ratio-test
tie, a vertex with a -0.0 coordinate and a degenerate system that retires a
column through the ``blocked`` branch.  ``_loop_feasible_point`` keeps that loop as the reference the
seeded random systems are compared against.
"""

import hashlib

import numpy as np
import pytest

from regime.errors import SolverFailure
from regime import simplex
from regime.simplex import _TOL, feasible_point


def _loop_feasible_point(a_ub, b_ub, max_iter=20000):
    """The row-by-row tableau loop, kept as the bitwise reference."""
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
    for _ in range(max_iter):
        entering = -1
        for j in range(width - 1):
            if j not in blocked and red[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            break
        col = t[:, entering]
        cand = [i for i in range(m) if col[i] > _TOL]
        if not cand:
            blocked.add(entering)
            continue
        best = min(t[i, -1] / col[i] for i in cand)
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
    else:
        raise SolverFailure("phase-1 simplex hit the iteration cap")
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
    # while their sum pushes its reduced cost below -tolerance, so the column
    # is retired as blocked before the second one enters
    "blocked_column": (np.array([[-9e-10, -1.0], [-9e-10, -1.0], [-9e-10, -1.0]]),
                       np.array([-1.0, -1.0, -1.0])),
}

GOLDEN = {
    "blocked_column": "57a02ffe20e77ebc0719f20993cb9a401c16fe340d412a2d95e971fd7c22e1ed",
    "infeasible": "infeasible",
    "negative_zero": "dac82949772d4b1b2db079fface111845e297685f51fc2a7995a12eca0b962a2",
    "nonnegative_rhs": "f775576e9cda80398f73cde0265943624b2b78ba9a86fdd60dfc22732b7cedac",
    "ratio_tie": "fb0ea8275cee3d27b08c58c1627298397c345b72a1a184479a61139ecac60cf5",
    "thm22_n20_dominant": "34f9fa282acc1278f17deec2ca186786d6d9eb36487393ef4e7361f0084ec6c9",
    "thm22_n20_mixed": "2fa7311f41f85f6da71cfe12b4d596659316fd4976fc0dc064141116762c338a",
    "thm22_n50_dominant": "18f745af1ff2a0ba56dceef0999970d8f365119cc5a88e87bdc76ba1030a9ea0",
    "thm22_n50_mixed": "infeasible",
    "thm22_n5_dominant": "59543c92f11babce8eaccfe856fdd78c6da2201696c27f59a28281fe1aa74798",
    "thm22_n5_mixed": "infeasible",
    "thm23_n20_dominant": "9fe964bb5a49f596435f52f3be24c35518a606c988c24d4779a1615b7d520a83",
    "thm23_n20_mixed": "infeasible",
    "thm23_n50_dominant": "bac9c4e2a79e0b8222dfc46efd24b840a95ba9f8e4307169999f046c5d0f5959",
    "thm23_n50_mixed": "infeasible",
    "thm23_n5_dominant": "c456b4bdd5dc6fa88d2de48458cb6da5388347d563d9432b6cc3ef1fc2da5cd2",
    "thm23_n5_mixed": "47ec2d311447c65c59d47cd9fc41cdac74f392595447e3a74032096753b4fe5d",
    "thm32_n20_constructed": "ccab55641aec4ab89b292f5ec7e308d73ab10c2d3dfef56acbb488b65a74caac",
    "thm32_n20_mixed": "infeasible",
    "thm32_n50_constructed": "81be0d5e2327adbfd6ec1dc91f09b00cf2a61245ac3ace24632aaa09017c6ef5",
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
