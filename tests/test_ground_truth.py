"""Ground truth: the criteria against seeded models whose answer is known.

Three families, all 1-d with linear drift b_i x (slopes beta_j for the
birth-death family), sigma = 1 and reflection at zero, drawn from fixed seeds
and classified in-process.  Each model keeps a margin from the boundary, so
no case sits where a tolerance band decides.

- Constant Q on n <= 4 regimes.  Truth: the sign of mu . b, the paper's
  linear case, which prop22 decides exactly.  Checks thm21 and thm22 with
  V = |x| and V = 1/|x|, prop22, and thm31 with beta = b.
- Two regimes with rates ``l + (s - l)*exp(-x)``, hinted by [min, max].
  Truth: the sign of mu(inf) . b for the generator of the limits l: outside
  a large ball the rates are as close to their limits as one likes, and the
  averaged drift there decides.  Checks thm23 with both V and thm32 with
  beta = b.
- A constant birth-death chain, down-rate a above up-rate b, with
  per-state slopes beta_j: a head closed by the tail value.  Truth: the sign
  of sum_j pi_j beta_j for the chain's stationary law
  pi_j = (1 - r) r**(j - 1), r = b / a.  This is the least proved of the
  three truths: it is the linear case's averaged drift carried over to an
  infinite chain, which Monte Carlo on truncated chains has agreed with.
  Checks thm24.

A verdict is wrong when it is conclusive and disagrees with the truth:
``transient`` where the truth is negative, ``recurrent`` or
``exponentially-ergodic`` where it is positive.  thm23 and thm24 are known
to give wrong verdicts here (ROADMAP items 1 and 2), so their tests are
strict expected failures until those criteria are made sound.
"""

import functools

import numpy as np
import pytest

from regime.cli import RUNNERS
from regime.criteria import Verdict
from regime.modelfile import parse_model

# verdict -> the sign of the truth it claims; 0 for inconclusive
CLAIM = {Verdict.RECURRENT: -1, Verdict.EXPONENTIALLY_ERGODIC: -1, Verdict.TRANSIENT: 1,
         Verdict.INCONCLUSIVE: 0}
PRESETS = {"abs": {"preset": "abs"}, "inverse-abs": {"preset": "inverse-abs", "r0": 1.0}}


def _stationary(q: np.ndarray) -> np.ndarray:
    """mu with mu Q = 0 and sum(mu) = 1, by least squares."""
    n = len(q)
    a = np.vstack([q.T, np.ones(n)])
    return np.linalg.lstsq(a, np.r_[np.zeros(n), 1.0], rcond=None)[0]


def _tally(cases) -> dict:
    """criterion label -> list of (truth sign, claimed sign), one per model
    the criterion was run on; a claim of None is a refused document."""
    out = {}
    for truth, label, doc, criterion in cases:
        try:
            claim = CLAIM[RUNNERS[criterion](parse_model(doc)).verdict]
        except ValueError as exc:
            if criterion != "thm24" or "contiguous" not in str(exc):
                raise
            claim = None  # drawn cutpoints whose classes are not state intervals
        out.setdefault(label, []).append((truth, claim))
    return out


@functools.cache
def constant_q() -> dict:
    rng = np.random.default_rng(2)
    cases = []
    for _ in range(300):
        n = int(rng.integers(2, 5))
        q = rng.uniform(0.1, 10.0, (n, n))
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        b = rng.uniform(-3.0, 3.0, n)
        truth = float(_stationary(q) @ b)
        if abs(truth) < 1e-3:
            continue
        base = {"regimes": n, "q": {"kind": "matrix", "entries": q.tolist()},
                "drift": {"kind": "ou", "b": b.tolist()}, "sigma": 1.0, "boundary": "reflect"}
        sign = int(np.sign(truth))
        cases.append((sign, "prop22", base, "prop22"))
        cases.append((sign, "thm31", dict(base, two_function={"beta": b.tolist(),
                                                              "h_limit": "to-infinity"}),
                      "thm31"))
        for name, preset in PRESETS.items():
            for criterion in ("thm21", "thm22"):
                cases.append((sign, f"{criterion} {name}", dict(base, lyapunov=preset),
                              criterion))
    return _tally(cases)


@functools.cache
def two_regime_rates() -> dict:
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(400):
        b = rng.uniform(-3.0, 3.0, 2)
        (s12, l12), (s21, l21) = rng.uniform(0.1, 10.0, (2, 2)).tolist()
        truth = float(np.array([l21, l12]) @ b / (l12 + l21))
        if abs(truth) < 1e-3:
            continue
        entries = [{"i": i, "j": j, "expr": f"{lim!r} + ({s!r} - {lim!r})*exp(-x)",
                    "inf": min(s, lim), "sup": max(s, lim)}
                   for i, j, s, lim in ((1, 2, s12, l12), (2, 1, s21, l21))]
        base = {"regimes": 2,
                "q": {"kind": "rates", "entries": entries,
                      "scan": {"lo": 1e-3, "hi": 1e3}},
                "drift": {"kind": "ou", "b": b.tolist()}, "sigma": 1.0, "boundary": "reflect"}
        sign = int(np.sign(truth))
        cases.append((sign, "thm32", dict(base, two_function={"beta": b.tolist(),
                                                              "h_limit": "to-infinity"}),
                      "thm32"))
        for name, preset in PRESETS.items():
            cases.append((sign, f"thm23 {name}", dict(base, lyapunov=preset), "thm23"))
    return _tally(cases)


@functools.cache
def birth_death() -> dict:
    rng = np.random.default_rng(1)
    cases = []
    for _ in range(275):
        down = float(rng.uniform(1.0, 4.0))
        up = down * float(rng.uniform(0.2, 0.95))
        tail = float(rng.uniform(-1.0, 1.0))
        beta = rng.uniform(-2.0, 2.0, int(rng.integers(1, 4))).tolist() + [tail]
        r = up / down
        pi = (1.0 - r) * r ** np.arange(len(beta))
        truth = float(pi @ beta + tail * r ** len(beta))
        if abs(truth) < 0.05:
            continue
        doc = {"regimes": "infinite", "q": {"kind": "birth-death", "a": down, "b": up},
               "lyapunov": {"beta_values": beta, "beta_tail_limit": tail,
                            "tag": "to-infinity"},
               "partition": {"cutpoints": sorted(set(beta))}}
        cases.append((int(np.sign(truth)), "thm24", doc, "thm24"))
    return _tally(cases)


def wrong(pairs: list) -> list:
    return [(truth, claim) for truth, claim in pairs if claim and claim != truth]


def coverage(pairs: list) -> float:
    return sum(bool(claim) for _, claim in pairs) / len(pairs)


SOUND = [(constant_q, label) for label in ("prop22", "thm31", "thm21 abs", "thm21 inverse-abs",
                                           "thm22 abs", "thm22 inverse-abs")]
SOUND.append((two_regime_rates, "thm32"))


@pytest.mark.parametrize("family, label", SOUND, ids=[label for _, label in SOUND])
def test_sound_criteria_give_no_wrong_verdict(family, label):
    pairs = family()[label]
    assert wrong(pairs) == []
    assert coverage(pairs) > 0.05  # a criterion that decides nothing checks nothing


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="thm23 certifies Q~ with fixed directions, a Lyapunov function "
                          "only for a nonincreasing positive vector (ROADMAP item 1)")
@pytest.mark.parametrize("preset", list(PRESETS))
def test_thm23_gives_no_wrong_verdict(preset):
    assert wrong(two_regime_rates()[f"thm23 {preset}"]) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="thm24's class-constant weights are a Lyapunov function only if "
                          "they do not increase from class to class (ROADMAP item 2)")
def test_thm24_gives_no_wrong_verdict():
    assert wrong(birth_death()["thm24"]) == []

