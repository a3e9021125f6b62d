"""Workload definitions: inputs made from a seed, the fixed list of operations
one pass runs, and an independent reference check for every output.

Workloads (see README.md for why each exists):

* ``mc``: Monte Carlo ensembles of two kinds.  Escaping: the transient ex22
  model (kappa = 1.2) at 100, 500 and 2000 paths; paths almost never return,
  so every step runs the full batch.  Returning: two constant-Q models whose
  paths return and retire (OU with 2 regimes, truncated ex21 with 12),
  ensembles of 500 paths, two of OU and six of ex21 per pass.
* ``certify``: no simulation.  The four ``reproduce`` tables, thm21/22/23/32
  and Perron data on seed-generated generators at n = 5, 20, 50, and
  in-process ``regime classify`` on the four emitted model files.

Every operation is called through its module attribute at call time, so a
traced run sees the patched function.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from regime import cli, criteria, markov, mmatrix, reproduce, simulate

X0, R0, DT, ESCAPE_RADIUS = 5.0, 1.0, 1e-3, 50.0
ESCAPE_T = 1.0
ESCAPE_WIDTHS = (100, 500, 2000)
RETURN_TRIALS = 500
# about 98% of paths return by these horizons, and a few are still out at T at
# nearly every seed, so each runs the full horizon and the run time does not
# hang on the slowest path
RETURN_T = {"q2": 7.0, "q12": 10.0}
# a coarser step than the escaping ensembles': dt * (largest exit rate) is 0.03 and
# dt * |drift slope| at most 0.02, and an ensemble takes a tenth of the steps,
# so a pass holds several ensembles and a run many passes
RETURN_DT = 1e-2
# ensembles per pass, each on its own seed.  Both regimes of q2 stay occupied
# to the end, so its cost hardly depends on the seed.  Of q12's 12 regimes the
# upper ones hold a path or none by chance (the chain's stationary weights
# halve per regime), and the regime loop's length with them: one q12
# ensemble's cost spreads about 15% (interquartile over median) across seeds,
# the sum of six about 6%.
RETURN_ENSEMBLES = {"q2": 2, "q12": 6}
PERRON_P = 0.05

# certify: per size, the cases in one round and the cycle of case kinds they
# take; a pass runs ROUNDS rounds of fresh cases, 1090 verdict calls, so its
# 99th percentile has ten calls beyond it.  The mix places the median call
# inside the n = 5 matrix-test group (about 39-72% of calls sorted by latency)
# and the 99th percentile inside the n = 50 feasible-LP thm32 group (the
# slowest 1.8%), so neither sits on the edge between two latency groups.
KINDS = ("dominant", "positive", "lp", "negative")
SCHEDULE = {
    5: (12, KINDS),
    20: (5, KINDS),
    50: (4, ("lp", "dominant", "lp", "positive", "lp", "negative")),
}
ROUNDS = 10


@dataclass
class Op:
    """One timed call and the check of its output.

    ``check(out)`` returns None when the output is correct, else a reason.
    ``doc(out)`` gives the report whose digest is compared bit for bit.
    ``key`` groups operations for the latency breakdown (and names the
    ns-per-path-step group of an ensemble); ``verdict`` marks the calls that
    count toward the verdict latency percentiles.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    doc: Callable[[object], object]
    key: str
    verdict: bool = True
    trials: int = 0
    dim: int = 1


@dataclass
class Workload:
    ops: list = field(default_factory=list)
    sde: dict = field(default_factory=dict)   # key -> SdeModel used by mc ops


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

def _ensemble_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def path_steps(report) -> int:
    """Exact path-steps executed by an ensemble, derived from its report."""
    n_steps = int(round(report.t_horizon / report.dt))
    hit_steps = 0
    if report.returned:
        hit_steps = int(round(report.mean_hitting_time * report.returned / report.dt))
    return (report.trials - report.returned) * n_steps + hit_steps


def _check_escape(rep) -> Optional[str]:
    # from |x| = 5 with outward drift, a return to |x| <= 1 within T = 1 is
    # rare enough that 5% returning is far outside any seed's sampling error
    if rep.return_fraction > 0.05:
        return f"return fraction {rep.return_fraction} > 0.05 on the transient side"
    if rep.growth_exponent is None or not rep.growth_exponent > 0:
        return f"growth exponent {rep.growth_exponent} is not positive"
    return None


def _check_return(rep) -> Optional[str]:
    # about 98% or more return in expectation, so 90% is > 9 standard errors away
    if rep.return_fraction < 0.90:
        return f"return fraction {rep.return_fraction} < 0.90 on the recurrent side"
    mh = rep.mean_hitting_time
    if mh is None or not 0 < mh < rep.t_horizon:
        return f"mean hitting time {mh} outside (0, T)"
    return None


def _ensemble_op(wl: Workload, key: str, label: str, trials: int, T: float, dt: float,
                 seed: int, check, group: str) -> Op:
    def call():
        return simulate.run_ensemble(wl.sde[key], x0=X0, i0=0, r0=R0, T=T, dt=dt,
                                     trials=trials, seed=seed,
                                     escape_radius=ESCAPE_RADIUS)

    def checked(rep):
        if rep.trials != trials or abs(rep.t_horizon - T) > 1e-9:
            return "report does not describe the requested ensemble"
        return check(rep)

    return Op(label, call, checked, lambda rep: rep.__dict__, key=group,
              trials=trials, dim=wl.sde[key].dim)


def build_mc(seed: int) -> Workload:
    """The escaping ensembles, then the returning ones, each on its own seed."""
    wl = Workload(sde={"ex22": reproduce.ex22_sde_model(1.2),
                       "q2": reproduce.ou_sde_model((-2.0, 1.0)),
                       "q12": reproduce.ex21_sde_model(0.3)})
    ensembles = (
        [("ex22", f"w{k}", k, ESCAPE_T, DT, _check_escape, f"w{k}") for k in ESCAPE_WIDTHS]
        + [(key, f"{key}/{e}", RETURN_TRIALS, RETURN_T[key], RETURN_DT, _check_return, key)
           for key, count in RETURN_ENSEMBLES.items() for e in range(count)])
    for i, (key, label, trials, T, dt, check, group) in enumerate(ensembles):
        wl.ops.append(_ensemble_op(wl, key, label, trials, T, dt, _ensemble_seed(seed, i),
                                   check, group))
    return wl


# ---------------------------------------------------------------------------
# certify: independent numpy references
# ---------------------------------------------------------------------------

def _null_left(q: np.ndarray) -> np.ndarray:
    """Invariant measure from the SVD null vector of Q^T (not a balance solve)."""
    v = np.linalg.svd(q.T)[2][-1]
    return v / v.sum()


def _minor_signs(a: np.ndarray) -> str:
    """'yes' / 'no' / 'either' for "all leading minors positive", from an
    elimination without pivoting (the pivots are ratios of successive
    minors).  'either' marks a minor within ten times the package's
    documented boundary band 1e-8 * scale**k, where inconclusive is allowed.
    """
    m = np.array(a, dtype=float)
    n = m.shape[0]
    scale = max(1.0, float(np.abs(m).max()))
    log_minor = 0.0
    sign = 1.0
    for k in range(n):
        piv = m[k, k]
        if piv == 0.0:
            return "either"
        log_minor += math.log(abs(piv))
        sign *= math.copysign(1.0, piv)
        if log_minor <= math.log(1e-7) + (k + 1) * math.log(scale):
            return "either"
        if sign < 0:
            return "no"
        if k + 1 < n:
            m[k + 1:, k:] -= np.outer(m[k + 1:, k] / piv, m[k, k:])
    return "yes"


def _inverse_positive(a: np.ndarray) -> str:
    """Z-matrix test: A is a nonsingular M-matrix iff inv(A) >= 0 (Berman and
    Plemmons, ch. 6).  Falls back to 'either' where the minors sit in the band."""
    near = _minor_signs(a)
    if near == "either":
        return "either"
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return "either"
    return "yes" if inv.min() >= -1e-12 * float(np.abs(inv).max()) else "no"


class Case:
    """One seed-generated generator with drift bounds beta of a given kind.

    The references are numpy computations independent of the package's
    algorithms, made on first use (after the timed call, never in set-up).
    Each test reference is 'yes' (must be conclusive), 'no' (must not be) or
    'either' (too close to the boundary to tell).
    """

    def __init__(self, q, beta: np.ndarray, kind: str, tag):
        self.q, self.beta, self.kind, self.tag = q, beta, kind, tag
        self.entries = np.asarray(q.entries)

    @functools.cached_property
    def mu_beta(self) -> float:
        return float(_null_left(self.entries) @ self.beta)

    @functools.cached_property
    def thm21(self) -> str:
        band = 1e-6 * max(1.0, float(np.abs(self.beta).max()))
        if abs(self.mu_beta) <= band:
            return "either"
        return "yes" if self.mu_beta < 0 else "no"

    @functools.cached_property
    def thm22(self) -> str:
        return _inverse_positive(-(self.entries + np.diag(self.beta)))

    @functools.cached_property
    def thm23(self) -> str:
        h = np.triu(np.ones(self.entries.shape))
        return _minor_signs(-(self.entries + np.diag(self.beta)) @ h)

    @functools.cached_property
    def thm32(self) -> str:
        # feasible by construction, or infeasible because a feasible eta
        # would give mu.beta = mu.(beta + Q eta) <= -1
        if self.kind == "lp":
            return "yes"
        return "no" if self.mu_beta > -1.0 + 1e-6 else "either"

    @functools.cached_property
    def eta(self) -> float:
        """-(spectral abscissa) of Q + p diag(beta), from numpy eigvals."""
        return -float(np.linalg.eigvals(self.qp).real.max())

    @functools.cached_property
    def qp(self) -> np.ndarray:
        return self.entries + PERRON_P * np.diag(self.beta)


def _make_case(rng: np.random.Generator, n: int, kind: str, tag) -> Case:
    a = rng.uniform(0.2, 1.5, size=(n, n))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1))
    q = markov.validate_qmatrix(a)
    entries = np.asarray(q.entries)
    if kind == "dominant":
        beta = -(0.5 + rng.random(n))
    elif kind == "lp":
        eta = 1.0 + np.sort(2.0 * rng.random(n))[::-1]
        beta = -1.0 - entries @ eta - (0.1 + 0.4 * rng.random(n))
    else:
        beta = rng.standard_normal(n)
        mu = _null_left(entries)
        beta += (0.5 if kind == "positive" else -0.5) - float(mu @ beta)
    return Case(q, beta, kind, tag)


def _expect(label: str, ref: str, result) -> Optional[str]:
    if ref == "either":
        return None
    if result.conclusive != (ref == "yes"):
        return f"{label}: conclusive={result.conclusive} but reference says {ref}"
    return None


def _classify_check(case: Case, test: str):
    """Check for thm21/22/23: conclusiveness against the reference, and the
    conclusion named by the tag."""
    def check(res) -> Optional[str]:
        if res.criterion != test:
            return f"criterion {res.criterion} != {test}"
        bad = _expect(test, getattr(case, test), res)
        if bad or not res.conclusive:
            return bad
        want = ("exponentially-ergodic" if case.tag is criteria.Limit.TO_INFINITY
                else "transient")
        if res.verdict.value != want:
            return f"{test}: verdict {res.verdict.value} != {want}"
        return None
    return check


def _thm32_check(case: Case):
    def check(res) -> Optional[str]:
        bad = _expect("thm32", case.thm32, res)
        if bad or not res.conclusive:
            return bad
        eta = np.asarray(res.certificate["eta"], dtype=float)
        q = case.entries
        tol = 1e-6 * max(1.0, float(np.abs(q).max()), float(np.abs(case.beta).max()))
        lhs = case.beta + q @ eta
        if (np.diff(eta) > tol).any() or eta[-1] < 1.0 - tol or (lhs > -1.0 + tol).any():
            return "thm32: returned eta violates its own constraints"
        want = "recurrent" if case.tag is criteria.Limit.TO_INFINITY else "transient"
        return None if res.verdict.value == want else f"thm32: verdict {res.verdict.value}"
    return check


def _perron_check(case: Case):
    def check(pd) -> Optional[str]:
        qp = case.qp
        scale = max(1.0, float(np.abs(qp).max()))
        if abs(pd.eta_p - case.eta) > 1e-8 * scale:
            return f"perron: eta {pd.eta_p} != eigvals reference {case.eta}"
        xi = np.asarray(pd.xi)
        if xi.min() <= 0 or abs(xi.sum() - 1.0) > 1e-12:
            return "perron: xi is not a positive probability vector"
        if np.abs(qp @ xi + pd.eta_p * xi).max() > 1e-8 * scale:
            return "perron: eigen-residual too large"
        return None
    return check


def _case_ops(case: Case, label: str, n: int) -> list:
    lyap = criteria.LyapunovBehavior(tag=case.tag, beta=case.beta)
    q, beta, tag = case.q, case.beta, case.tag
    to_doc = lambda res: (res.verdict, res.criterion, res.certificate, res.reason)  # noqa: E731
    return [
        Op(f"{label}/thm21", lambda: criteria.classify_avg(q, lyap),
           _classify_check(case, "thm21"), to_doc, f"n{n}/thm21"),
        Op(f"{label}/thm22", lambda: criteria.classify_mmatrix(q, lyap),
           _classify_check(case, "thm22"), to_doc, f"n{n}/thm22"),
        Op(f"{label}/thm23", lambda: criteria.classify_state_dependent(q, lyap),
           _classify_check(case, "thm23"), to_doc, f"n{n}/thm23"),
        Op(f"{label}/thm32",
           lambda: criteria.classify_two_function_state_dependent(q, beta, tag),
           _thm32_check(case), to_doc, f"n{n}/thm32"),
        Op(f"{label}/perron", lambda: mmatrix.perron(q, beta, PERRON_P),
           _perron_check(case),
           lambda pd: (pd.p, pd.eta_p, pd.xi), f"n{n}/perron"),
    ]


# ---------------------------------------------------------------------------
# certify: reproduce tables and the CLI
# ---------------------------------------------------------------------------

# closed forms of the a=2, b=1 birth-death thresholds, written out here so the
# check does not read the package's own table
THRESHOLDS = {
    "two-class recurrence": 2.0 - math.sqrt(2.0),
    "two-class transience": math.sqrt(3.0) - 1.0,
    "three-class recurrence": (11.0 - math.sqrt(73.0)) / 4.0,
    "three-class transience": (math.sqrt(17.0) - 1.0) / 4.0,
}
EX22_CASES = {"recurrence": "two-class recurrence", "transience": "two-class transience"}


def _check_thresholds(rows, names) -> Optional[str]:
    got = {row["case"]: row["bisection"] for row in rows}
    if set(got) != set(names):
        return f"threshold rows {sorted(got)} != {sorted(names)}"
    for case, ref_name in names.items():
        if abs(got[case] - THRESHOLDS[ref_name]) > 1e-6:
            return f"{case}: bisection {got[case]} is not within 1e-6 of {THRESHOLDS[ref_name]}"
    return None


def _sign_verdict(mu_b: float, tol: float) -> str:
    if mu_b < -tol:
        return "exponentially-ergodic"
    return "transient" if mu_b > tol else "inconclusive"


def _check_ou(rep) -> Optional[str]:
    mu = _null_left(np.array([[-1.0, 1.0], [2.0, -2.0]]))
    for row in rep["sign_table"]:
        b = np.asarray(row["b"], dtype=float)
        want = _sign_verdict(float(mu @ b), 1e-9 * max(1.0, float(np.abs(b).max())))
        if row["verdict"] != want:
            return f"ou b={row['b']}: verdict {row['verdict']} != {want}"
    return None


def _check_cor31(rep) -> Optional[str]:
    # averaged drift -0.1, 0, +0.1: the boundary belongs to the recurrent side
    got = [row["verdict"] for row in rep["boundary_sweep"]]
    want = ["recurrent", "recurrent", "transient"]
    return None if got == want else f"cor31 sweep {got} != {want}"


REPRODUCE_CHECKS = {
    "ex21": lambda rep: _check_thresholds(rep["thresholds"],
                                          {name: name for name in THRESHOLDS}),
    "ex22": lambda rep: _check_thresholds(rep["thresholds"], EX22_CASES),
    "ou": _check_ou,
    "cor31": _check_cor31,
}

# expected `regime classify` outcome on the emitted models: ex21 and ex22 sit
# at kappa = 0.5, below the two-class recurrence threshold 2 - sqrt(2); ou has
# mu.b = -1; cor31 has mu.b = 0, which the 1-d dichotomy calls recurrent
CLI_EXPECT = {
    "ex21": ("recurrent", "thm24"),
    "ex22": ("exponentially-ergodic", "thm23"),
    "ou": ("exponentially-ergodic", "prop22"),
    "cor31": ("recurrent", "cor31"),
}


def _cli_op(path: str, stem: str) -> Op:
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["classify", path])
        return code, buf.getvalue()

    def check(out) -> Optional[str]:
        code, text = out
        if code != 0:
            return f"classify {stem}: exit code {code} != 0"
        report = json.loads(text)
        got = (report.get("verdict"), report.get("criterion"))
        return None if got == CLI_EXPECT[stem] else f"classify {stem}: {got} != {CLI_EXPECT[stem]}"

    return Op(f"cli/{stem}", call, check, lambda out: out, key=f"cli/{stem}")


def build_certify(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    tags = (criteria.Limit.TO_INFINITY, criteria.Limit.TO_ZERO)
    models = reproduce.emit_models(workdir / "models")
    wl = Workload()
    for stem, fn in reproduce.REPRODUCERS.items():
        wl.ops.append(Op(f"reproduce/{stem}", lambda fn=fn: fn(), REPRODUCE_CHECKS[stem],
                         lambda rep: rep, key=f"reproduce/{stem}", verdict=False))
    count = 0
    for r in range(ROUNDS):
        for n, (per_round, kinds) in SCHEDULE.items():
            for c in range(per_round):
                kind = kinds[(r * per_round + c) % len(kinds)]
                case = _make_case(rng, n, kind, tags[count % 2])
                count += 1
                wl.ops.extend(_case_ops(case, f"r{r}/n{n}/c{c}/{kind}", n))
        for path in models:
            wl.ops.append(_cli_op(str(path), path.stem))
    return wl


def build(name: str, seed: int, workdir: Path) -> Workload:
    if name == "mc":
        return build_mc(seed)
    if name == "certify":
        return build_certify(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
