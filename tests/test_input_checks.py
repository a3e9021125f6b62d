"""Input checks: each bad argument raises its own error, and every per-regime
vector a criterion or ``perron`` reads has one length check."""

import numpy as np
import pytest

from regime import (
    BetaSequence,
    Limit,
    LyapunovBehavior,
    ScanGrid,
    SdeModel,
    StateDependentRates,
    TailHomogeneousChain,
    bisect_verdict,
    classify_avg,
    classify_mmatrix,
    classify_ou,
    classify_power_1d,
    classify_state_dependent,
    classify_two_function,
    classify_two_function_state_dependent,
    leading_minors,
    perron,
    power_drift,
    regime_sigma,
    truncate_chain,
    validate_qmatrix,
)
from regime.errors import UnboundedBeta

Q2 = validate_qmatrix([[-1.0, 1.0], [2.0, -2.0]])
TO_INF = Limit.TO_INFINITY

# every reader of a per-regime beta or b, called with that vector
PER_REGIME_READERS = {
    "thm21": lambda v: classify_avg(Q2, LyapunovBehavior(TO_INF, v)),
    "thm22": lambda v: classify_mmatrix(Q2, LyapunovBehavior(TO_INF, v)),
    "thm23": lambda v: classify_state_dependent(Q2, LyapunovBehavior(TO_INF, v)),
    "thm31": lambda v: classify_two_function(Q2, LyapunovBehavior(TO_INF, v)),
    "thm32": lambda v: classify_two_function_state_dependent(Q2, v, TO_INF),
    "prop22": lambda v: classify_ou(Q2, v),
    "cor31": lambda v: classify_power_1d(Q2, v, [1.0], 0.5),
    "fredholm": lambda v: classify_two_function(
        Q2, LyapunovBehavior(TO_INF, v)).certificate["fredholm"],
    "perron": lambda v: perron(Q2, v, 0.5),
}


@pytest.mark.parametrize("values", [[-0.5], [-0.5, -0.5, -0.5]], ids=["short", "long"])
@pytest.mark.parametrize("reader", sorted(PER_REGIME_READERS))
def test_per_regime_vector_of_another_length_is_refused(reader, values):
    # a one-entry beta once broadcast over the whole matrix in thm22 and thm23:
    # -(Q + beta J) was certified in place of -(Q + diag beta)
    with pytest.raises(ValueError) as exc:
        PER_REGIME_READERS[reader](values)
    assert str(exc.value) == f"expected one value per regime (2), got {len(values)}"


CHAIN = TailHomogeneousChain.constant(up=1.0, down=2.0)
SDE = SdeModel(dim=1, drift=power_drift([-1.0, 2.0]), sigma=regime_sigma(1.0), rates=Q2)
RATES = StateDependentRates(n=2, rate_fn=lambda x, lam: np.ones((2, x.shape[0])))

INPUT_CHECKS = [
    ("qmatrix-not-square", lambda: validate_qmatrix([[0.0, 0.0]]), ValueError,
     "generator must be a square matrix"),
    ("qmatrix-not-finite", lambda: validate_qmatrix([[-1.0, np.nan], [1.0, -1.0]]),
     ValueError, "generator entries must be finite"),
    ("scan-spacing", lambda: ScanGrid(1.0, 2.0, spacing="cubic").build(), ValueError,
     "unknown spacing 'cubic'"),
    ("chain-down-from-1", lambda: CHAIN.down(1), ValueError,
     "state 1 has no downward transition"),
    ("beta-head-empty", lambda: BetaSequence(head=(), tail_limit=0.0), ValueError,
     "head must contain at least one value"),
    ("beta-head-not-finite", lambda: BetaSequence(head=(1.0, np.inf), tail_limit=0.0),
     UnboundedBeta, "beta sequence has non-finite entries"),
    ("beta-value-0", lambda: BetaSequence(head=(1.0,), tail_limit=0.0).value(0), ValueError,
     "states are 1-based"),
    ("beta-sup-past-head",
     lambda: BetaSequence(head=(1.0, 0.5), tail_limit=0.0).sup_over(1, 3), ValueError,
     "finite classes must lie inside the explicit head"),
    ("lyapunov-not-finite", lambda: LyapunovBehavior(TO_INF, [np.inf, 0.0]), ValueError,
     "beta must be finite"),
    ("power-sigma-length", lambda: classify_power_1d(Q2, [-1.0, 2.0], [1.0] * 3, 0.5),
     ValueError, "sigma must be scalar or per-regime"),
    ("power-sigma-zero", lambda: classify_power_1d(Q2, [-1.0, 2.0], [0.0], 0.5),
     ValueError, "sigma entries must be nonzero"),
    ("power-delta", lambda: classify_power_1d(Q2, [-1.0, 2.0], [1.0], 2.0), ValueError,
     "delta must lie in [-1, 1]"),
    ("bisect-no-flip", lambda: bisect_verdict(lambda k: True, 0.0, 1.0), ValueError,
     "verdict does not flip on the bracket"),
    ("minors-not-square", lambda: leading_minors(np.ones(3)), ValueError,
     "matrix must be square"),
    ("perron-negative-p", lambda: perron(Q2, [1.0, 1.0], -0.5), ValueError,
     "p must be nonnegative"),
    ("sde-dim", lambda: SdeModel(dim=0, drift=SDE.drift, sigma=SDE.sigma, rates=Q2),
     ValueError, "dimension must be positive"),
    ("sde-boundary",
     lambda: SdeModel(dim=1, drift=SDE.drift, sigma=SDE.sigma, rates=Q2, boundary="wrap"),
     ValueError, "boundary must be 'none' or 'reflect'"),
    ("sde-rates-dim", lambda: SdeModel(dim=2, drift=SDE.drift, sigma=SDE.sigma, rates=RATES),
     ValueError, "state-dependent rates are supported on 1-d state spaces"),
    ("truncate-K", lambda: truncate_chain(CHAIN, 1), ValueError, "truncation needs K >= 2"),
]


@pytest.mark.parametrize("call, error, text", [row[1:] for row in INPUT_CHECKS],
                         ids=[row[0] for row in INPUT_CHECKS])
def test_bad_input_raises_its_error(call, error, text):
    with pytest.raises(error) as exc:
        call()
    assert text in str(exc.value)

