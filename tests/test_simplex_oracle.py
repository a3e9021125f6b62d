"""``feasible_point`` against an independent LP solver on generated systems.

HiGHS (through ``scipy.optimize.linprog``) decides the same feasibility
question with other algorithms, so on small integer systems a disagreement
points to a defect in one of the two.  The systems are feasible by
construction (some with tight, degenerate rows), infeasible by construction
(a contradictory pair of rows), or drawn freely, with many zero and unit
entries, in one strategy zeros of either sign, and in another mostly zero
right-hand sides, where pivots stall and the next one falls back to Bland's
rule.  The same systems also check that the vectorised tableau returns the
row-by-row loop's vertex bit for bit, a -0.0 coordinate included, although
zero signs inside the tableau may differ from the loop's.  The thm32
verdict, which poses its LP over the increments of eta, is checked against
HiGHS on the row system over eta itself.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
linprog = pytest.importorskip("scipy.optimize").linprog

from hypothesis import given, settings, strategies as st  # noqa: E402

from regime import Limit, classify_two_function_state_dependent, validate_qmatrix  # noqa: E402
from regime.simplex import feasible_point  # noqa: E402
from test_criteria import thm32_row_system, thm32_systems  # noqa: E402
from test_simplex import (  # noqa: E402
    CORPUS, DEGENERATE_SEEDS, _degenerate_system, _digest, _loop_feasible_point)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def _matrix(draw, m, n, lo, hi):
    return np.array(draw(st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                                  min_size=m, max_size=m)), dtype=float)


@st.composite
def free_systems(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lo, hi = draw(st.sampled_from([(-1, 1), (-4, 4)]))
    a = _matrix(draw, m, n, lo, hi)
    b = np.array(draw(st.lists(st.integers(lo, hi), min_size=m, max_size=m)), dtype=float)
    return a, b


@st.composite
def feasible_systems(draw):
    """b = A x0 + s with x0 >= 0 and s >= 0; a zero slack makes the row tight."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = _matrix(draw, m, n, -3, 3)
    x0 = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
    s = np.array(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)), dtype=float)
    return a, a @ x0 + s


@st.composite
def infeasible_systems(draw):
    """Any rows plus r x <= c and -r x <= -c - 1, which no x satisfies."""
    a, b = draw(free_systems())
    n = a.shape[1]
    r = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    c = float(draw(st.integers(-3, 3)))
    rows = np.vstack([a, r, -r])
    rhs = np.concatenate([b, [c, -c - 1.0]])
    order = np.array(draw(st.permutations(range(rows.shape[0]))))
    return rows[order], rhs[order]


def _highs_feasible(a, b):
    res = linprog(np.zeros(a.shape[1]), A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def _check(a, b, want=None):
    x = feasible_point(a, b)
    feasible = _highs_feasible(a, b)
    assert (x is not None) == feasible
    if want is not None:
        assert feasible == want
    if x is not None:
        assert x.shape == (a.shape[1],) and (x >= 0.0).all()
        assert (a @ x <= b + 1e-7 * (1.0 + np.abs(a) @ x + np.abs(b))).all()
    assert _digest(x) == _digest(_loop_feasible_point(a, b))


@SETTINGS
@given(free_systems())
def test_free_systems_agree_with_highs(system):
    _check(*system)


@SETTINGS
@given(feasible_systems())
def test_feasible_systems_agree_with_highs(system):
    _check(*system, want=True)


@SETTINGS
@given(infeasible_systems())
def test_infeasible_systems_agree_with_highs(system):
    _check(*system, want=False)


@st.composite
def degenerate_systems(draw):
    """Integer systems whose right-hand sides are mostly 0 and otherwise -1,
    at least one of them -1, so pivots stall at ratio 0 and the next one
    takes Bland's column (in about one system in six)."""
    m, n = draw(st.integers(3, 7)), draw(st.integers(2, 6))
    a = _matrix(draw, m, n, -3, 3)
    b = np.array(draw(st.lists(st.sampled_from([0, 0, -1]), min_size=m, max_size=m)),
                 dtype=float)
    b[draw(st.integers(0, m - 1))] = -1.0
    return a, b


@SETTINGS
@given(degenerate_systems())
def test_degenerate_systems_agree_with_highs(system):
    _check(*system)


@pytest.mark.parametrize("seed", DEGENERATE_SEEDS)
def test_bland_fallback_systems_agree_with_highs(seed):
    _check(*_degenerate_system(seed))


@pytest.mark.parametrize("name", ["blocked_column", "dantzig_cycle"])
def test_degenerate_corpus_systems_agree_with_highs(name):
    _check(*CORPUS[name], want=True)


@st.composite
def signed_zero_systems(draw):
    """Small integer systems in which each zero entry is drawn as +0.0 or -0.0."""
    m, n = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    a = _matrix(draw, m, n, -2, 2)
    b = np.array(draw(st.lists(st.integers(-2, 1), min_size=m, max_size=m)), dtype=float)
    for arr in (a, b):
        negative = draw(st.lists(st.booleans(), min_size=arr.size, max_size=arr.size))
        arr[(arr == 0.0) & np.reshape(negative, arr.shape)] = -0.0
    return a, b


@SETTINGS
@given(signed_zero_systems())
def test_signed_zero_systems_agree_with_highs(system):
    _check(*system)


@st.composite
def thm32_integer_systems(draw):
    """An n-regime generator with integer rates 1..3 and integer beta."""
    n = draw(st.integers(1, 5))
    a = _matrix(draw, n, n, 1, 3)
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1))
    beta = np.array(draw(st.lists(st.integers(-6, 2), min_size=n, max_size=n)), dtype=float)
    return validate_qmatrix(a), beta


@SETTINGS
@given(thm32_integer_systems())
def test_thm32_integer_systems_agree_with_highs(system):
    q, beta = system
    out = classify_two_function_state_dependent(q, beta, Limit.TO_INFINITY)
    assert out.conclusive == _highs_feasible(*thm32_row_system(q, beta))


def test_thm32_verdicts_agree_with_highs():
    for n, kind, q, beta in thm32_systems():
        out = classify_two_function_state_dependent(q, beta, Limit.TO_INFINITY)
        assert out.conclusive == _highs_feasible(*thm32_row_system(q, beta)), (n, kind)
