"""Built-in benchmarks: threshold tables with independent bisection cross-checks,
plus optional Monte Carlo corroboration and model-file emission.

The four benchmark names match the CLI: ``ex21`` (infinite birth-death
switching, drift slopes kappa - 1/j), ``ex22`` (its two-state state-dependent
cousin), ``ou`` (linear drift), and ``cor31`` (the 1-d power-drift dichotomy).
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from . import simulate
from .criteria import (
    Limit,
    LyapunovBehavior,
    Verdict,
    bisect_verdict,
    classify_infinite,
    classify_ou,
    classify_power_1d,
    classify_state_dependent,
    kappa_thresholds,
)
from .markov import BetaSequence, Partition, QMatrix, TailHomogeneousChain
from .modelfile import RegimeModel, parse_model

MC_SEED = 20240811  # seed of every Monte Carlo corroboration
EX21_HEAD = 8  # explicit beta values before the tail limit
EX21_REGIMES = 12  # regimes of the truncated chain that ex21 simulates

# Reference values for the a=2, b=1 benchmark: the closed forms of the
# two-class minors conditions and their three-class refinements.
EX21_REFERENCES = {
    "two-class recurrence": 2.0 - math.sqrt(2.0),
    "two-class transience": math.sqrt(3.0) - 1.0,
    "three-class recurrence": (11.0 - math.sqrt(73.0)) / 4.0,
    "three-class transience": (math.sqrt(17.0) - 1.0) / 4.0,
}


# ---------------------------------------------------------------------------
# benchmark model builders (shared with the test suite); the models are
# parsed from their documents in ``benchmark_documents``
# ---------------------------------------------------------------------------

@functools.cache
def ex21_chain() -> TailHomogeneousChain:
    """The switching chain of the ``ex21`` document, parsed once per
    process; the chain is immutable, so every caller can share it."""
    return _document_model("ex21").switching


def ex21_beta(kappa: float) -> BetaSequence:
    """Drift slopes beta_j = kappa - 1/j, increasing to kappa."""
    return BetaSequence(head=tuple(kappa - 1.0 / j for j in range(1, EX21_HEAD + 1)),
                        tail_limit=kappa)


def ex21_partition(m: int) -> Partition:
    """Singleton classes {1}, ..., {m-1} and the tail {m, m+1, ...}."""
    classes = tuple((j, j) for j in range(1, m)) + ((m, None),)
    return Partition(classes=classes)


def ex21_recurrence_verdict(kappa: float, m: int) -> bool:
    """Partition certificate for the V = x branch at drift slope kappa."""
    return _ex21_verdict(ex21_beta(kappa), m, Limit.TO_INFINITY) is Verdict.RECURRENT


def ex21_transience_verdict(kappa: float, m: int) -> bool:
    """Partition certificate for the V = 1/x branch, r0 -> infinity.

    The drift bounds are the closed forms 1 - kappa, 1/2 - kappa, ..., -kappa:
    singleton classes keep their own values and the tail class takes its
    limiting value.
    """
    beta = BetaSequence(head=tuple(1.0 / j - kappa for j in range(1, m)), tail_limit=-kappa)
    return _ex21_verdict(beta, m, Limit.TO_ZERO) is Verdict.TRANSIENT


def _ex21_verdict(beta: BetaSequence, m: int, tag: Limit) -> Verdict:
    return classify_infinite(ex21_chain(), beta, ex21_partition(m), tag).verdict


def _document_model(stem: str, b=None) -> RegimeModel:
    """The parsed benchmark document ``stem``, its drift slopes set to ``b``
    when given."""
    doc = benchmark_documents()[stem]
    if b is not None:
        doc["drift"]["b"] = [float(v) for v in b]
    return parse_model(doc, source=stem)


def ex22_qtilde() -> QMatrix:
    return _document_model("ex22").q_tilde


def ex22_sde_model(kappa: float) -> simulate.SdeModel:
    """dX = (kappa - 1/regime_index) X dt + sqrt(2) dB on the half-line."""
    return _document_model("ex22", (kappa - 1.0, kappa)).sde()


def ou_sde_model(b=(-2.0, 1.0)) -> simulate.SdeModel:
    """Linear drift b_i x with unit additive noise on the half-line."""
    return _document_model("ou", b).sde()


def ex21_sde_model(kappa: float) -> simulate.SdeModel:
    """Truncated-chain simulation stand-in for the infinite benchmark."""
    q = simulate.truncate_chain(ex21_chain(), EX21_REGIMES)
    slopes = [kappa - 1.0 / (i + 1) for i in range(EX21_REGIMES)]
    return simulate.SdeModel(dim=1, drift=simulate.power_drift(slopes),
                             sigma=simulate.regime_sigma(math.sqrt(2.0)), rates=q,
                             boundary="reflect")


# ---------------------------------------------------------------------------
# reproduction reports
# ---------------------------------------------------------------------------

def _threshold_row(case: str, reference: float, closed_form: float,
                   verdict_fn, lo: float, hi: float) -> dict:
    bis = bisect_verdict(verdict_fn, lo, hi)
    return {"case": case, "reference": reference, "closed_form": closed_form,
            "bisection": bis, "closed_vs_bisect": abs(closed_form - bis),
            "agree_1e-6": bool(abs(closed_form - bis) <= 1e-6)}


def reproduce_ex21(mc: bool = False) -> dict:
    """Threshold table for the infinite birth-death benchmark (a=2, b=1)."""
    chain = ex21_chain()
    a, b = chain.tail_down, chain.tail_up
    k_rec, k_trans = kappa_thresholds(a, b)
    rows = [
        _threshold_row("two-class recurrence", EX21_REFERENCES["two-class recurrence"],
                       k_rec, lambda k: ex21_recurrence_verdict(k, 2), 0.01, 1.0),
        _threshold_row("two-class transience", EX21_REFERENCES["two-class transience"],
                       k_trans, lambda k: ex21_transience_verdict(k, 2), 0.01, 1.2),
        _threshold_row("three-class recurrence",
                       EX21_REFERENCES["three-class recurrence"],
                       EX21_REFERENCES["three-class recurrence"],
                       lambda k: ex21_recurrence_verdict(k, 3), 0.01, 1.0),
        _threshold_row("three-class transience",
                       EX21_REFERENCES["three-class transience"],
                       EX21_REFERENCES["three-class transience"],
                       lambda k: ex21_transience_verdict(k, 3), 0.2, 1.5),
    ]
    report = {"benchmark": "ex21", "a": a, "b": b, "thresholds": rows,
              "notes": ["three-class recurrence improves on two-class; "
                        "three-class transience does not (larger bound)"]}
    if mc:
        report["monte_carlo"] = [
            _mc_summary(ex21_sde_model(0.3), "kappa=0.3 (recurrent side)"),
            _mc_summary(ex21_sde_model(1.2), "kappa=1.2 (transient side)"),
        ]
    return report


def reproduce_ex22(mc: bool = False) -> dict:
    """Threshold table for the two-state state-dependent benchmark, whose
    rates carry the ex21 tail rates a and b."""
    chain = ex21_chain()
    a, b = chain.tail_down, chain.tail_up
    k_rec, k_trans = kappa_thresholds(a, b)
    qt = ex22_qtilde()

    def certified(tag: Limit, beta) -> bool:
        lyap = LyapunovBehavior(tag=tag, beta=np.array(beta))
        return classify_state_dependent(qt, lyap).conclusive
    rows = [
        _threshold_row("recurrence", EX21_REFERENCES["two-class recurrence"], k_rec,
                       lambda k: certified(Limit.TO_INFINITY, [k - 1.0, k]), 0.01, 1.0),
        # V = 1/x bounds with r0 -> infinity: beta = (1 - kappa, -kappa)
        _threshold_row("transience", EX21_REFERENCES["two-class transience"], k_trans,
                       lambda k: certified(Limit.TO_ZERO, [1.0 - k, -k]), 0.01, 1.2),
    ]
    report = {"benchmark": "ex22", "a": a, "b": b,
              "bounding_generator": qt.entries, "thresholds": rows}
    if mc:
        report["monte_carlo"] = [
            _mc_summary(ex22_sde_model(0.3), "kappa=0.3 (recurrent side)"),
            _mc_summary(ex22_sde_model(1.2), "kappa=1.2 (transient side)"),
        ]
    return report


def reproduce_ou(mc: bool = False) -> dict:
    """Sign table: averaged linear drift against the verdict."""
    q = _document_model("ou").switching
    rows = []
    for b in [(-2.0, 1.0), (-1.0, 2.0), (1.0, 1.0), (-0.5, -0.5), (2.0, -1.0)]:
        out = classify_ou(q, np.array(b))
        rows.append({"b": list(b), "mu_b": out.certificate["mu_b"],
                     "verdict": out.verdict.value})
    report = {"benchmark": "ou", "q": q.entries, "sign_table": rows}
    if mc:
        report["monte_carlo"] = [
            _mc_summary(ou_sde_model((-2.0, 1.0)), "b=(-2,1) (ergodic side)")]
    return report


def reproduce_cor31(mc: bool = False) -> dict:
    """Boundary sweep of the complete 1-d dichotomy: averaged drift in
    {-0.1, 0, 0.1} gives recurrent, recurrent, transient.  It has no Monte
    Carlo rows and ignores ``mc``."""
    model = _document_model("cor31")
    rows = []
    for shift in (-0.1, 0.0, 0.1):
        b = model.drift_b + shift  # mu = (2/3, 1/3) zeroes the base
        out = classify_power_1d(model.switching, b, sigma=model.sigma, delta=model.delta)
        rows.append({"b": b, "mu_b": out.certificate["mu_b"],
                     "verdict": out.verdict.value})
    return {"benchmark": "cor31", "q": model.switching.entries, "delta": model.delta,
            "boundary_sweep": rows}


def _mc_summary(model: simulate.SdeModel, label: str) -> dict:
    report = simulate.run_ensemble(model, x0=5.0, i0=0, r0=1.0, T=60.0, dt=1e-3,
                                   trials=200, seed=MC_SEED, escape_radius=50.0)
    return {"label": label, "return_fraction": report.return_fraction,
            "escape_fraction": report.escape_fraction,
            "mean_hitting_time": report.mean_hitting_time,
            "trials": report.trials, "t_horizon": report.t_horizon}


REPRODUCERS = {"ex21": reproduce_ex21, "ex22": reproduce_ex22,
               "ou": reproduce_ou, "cor31": reproduce_cor31}


# ---------------------------------------------------------------------------
# model-file emission (round-trips through the parser)
# ---------------------------------------------------------------------------

def benchmark_documents() -> dict:
    """Model documents for the built-in benchmarks, keyed by file stem."""
    kappa = 0.5
    ex21 = {
        "regimes": "infinite",
        "q": {"kind": "birth-death", "a": 2.0, "b": 1.0},
        "lyapunov": {"beta_values": list(ex21_beta(kappa).head),
                     "beta_tail_limit": kappa, "tag": "to-infinity"},
        "partition": {"cutpoints": [kappa - 1.0, kappa]},
    }
    # q_12 = b (1+2x)/(1+x) and q_21 = a (1+2x)/(2(1+x)) with the ex21 tail
    # rates a = 2, b = 1: both are (1+2x)/(1+x)
    ex22 = {
        "regimes": 2,
        "q": {"kind": "rates",
              "entries": [
                  {"i": 1, "j": 2, "expr": "(1+2*x)/(1+x)", "inf": 1.0, "sup": 2.0},
                  {"i": 2, "j": 1, "expr": "(1+2*x)/(1+x)", "inf": 1.0, "sup": 2.0},
              ],
              "scan": {"lo": 1e-6, "hi": 1e6, "points": 129}},
        "drift": {"kind": "power", "b": [kappa - 1.0, kappa], "delta": 1.0},
        "sigma": math.sqrt(2.0),
        "lyapunov": {"beta": [kappa - 1.0, kappa], "tag": "to-infinity"},
        "boundary": "reflect",
    }
    ou = {
        "regimes": 2,
        "q": {"kind": "matrix", "entries": [[-1.0, 1.0], [2.0, -2.0]]},
        "drift": {"kind": "ou", "b": [-2.0, 1.0]},
        "sigma": 1.0,
        "boundary": "reflect",
    }
    cor31 = {
        "regimes": 2,
        "q": {"kind": "matrix", "entries": [[-1.0, 1.0], [2.0, -2.0]]},
        "drift": {"kind": "power", "b": [-1.0, 2.0], "delta": 0.5},
        "sigma": 1.0,
        "boundary": "reflect",
    }
    return {"ex21": ex21, "ex22": ex22, "ou": ou, "cor31": cor31}


def emit_models(dest: Path) -> list:
    """Write the benchmark model files into ``dest`` and return their paths."""
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, doc in benchmark_documents().items():
        path = dest / f"{stem}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        paths.append(path)
    return paths
