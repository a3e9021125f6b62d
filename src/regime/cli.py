"""Command-line front end: classify, simulate, reproduce, thresholds.

Exit codes: 0 for a conclusive verdict (or successful run), 2 for an
inconclusive classification, 1 for any error including usage problems.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import reproduce as repro
from ._util import jsonify, render_text
from .criteria import (
    Classification,
    classify_avg,
    classify_infinite,
    classify_mmatrix,
    classify_ou,
    classify_power_1d,
    classify_radial_sampled,
    classify_state_dependent,
    classify_two_function,
    classify_two_function_state_dependent,
    kappa_thresholds,
)
from .errors import CriterionNotApplicable, RegimeError, SingularSolve
from .markov import Partition, QMatrix, StateDependentRates, TailHomogeneousChain
from .modelfile import RegimeModel, load_model
from .simulate import run_ensemble


# Each applicability rule of a criterion, stated once: a test on the model
# and the reason a criterion that needs it does not apply.
NEEDS = {
    "q": (lambda m: isinstance(m.switching, QMatrix), "needs a constant rate matrix"),
    "rates": (lambda m: isinstance(m.switching, StateDependentRates),
              "needs state-dependent rates"),
    "chain": (lambda m: isinstance(m.switching, TailHomogeneousChain),
              "needs an infinite birth-death switching chain"),
    "power": (lambda m: m.drift_b is not None, "needs a power drift section"),
    "linear": (lambda m: m.drift_b is not None and m.delta == 1.0,
               "needs a linear (ou) drift section"),
    "1-d": (lambda m: m.dim == 1, "needs a 1-d state space"),
    "sigma": (lambda m: m.sigma is not None, "needs a sigma section"),
    "lyapunov": (lambda m: m.lyapunov is not None, "needs a lyapunov section"),
    "beta_seq": (lambda m: m.beta_seq is not None, "needs a lyapunov beta sequence"),
    "cutpoints": (lambda m: m.cutpoints is not None, "needs partition cutpoints"),
    "two_function": (lambda m: m.two_function is not None, "needs a two_function section"),
    "radial": (lambda m: m.radial_component is not None, "needs sampled radial drift components"),
}


@dataclass(frozen=True)
class _Runner:
    """A criterion as ``classify`` runs it: the ``NEEDS`` rules it takes, in
    check order, and its classifier, which is called only once every rule
    holds.  The first rule that fails raises CriterionNotApplicable."""

    needs: tuple
    classify: Callable[[RegimeModel], Classification]

    def __call__(self, model: RegimeModel) -> Classification:
        for holds, reason in (NEEDS[rule] for rule in self.needs):
            if not holds(model):
                raise CriterionNotApplicable(reason)
        return self.classify(model)


# --criterion auto runs these in this order: the complete 1-d dichotomy and the
# linear-drift test first, then the M-matrix certificates, then the averaged
# and two-function tests.
RUNNERS = {
    "cor31": _Runner(("q", "power", "1-d", "sigma"), lambda m: classify_power_1d(
        m.switching, m.drift_b, m.sigma, m.delta)),
    "prop22": _Runner(("q", "linear"), lambda m: classify_ou(m.switching, m.drift_b)),
    "thm22": _Runner(("q", "lyapunov"), lambda m: classify_mmatrix(m.switching, m.lyapunov)),
    "thm23": _Runner(("rates", "lyapunov"),
                     lambda m: classify_state_dependent(m.q_tilde, m.lyapunov)),
    "thm24": _Runner(("chain", "beta_seq", "cutpoints"), lambda m: classify_infinite(
        m.switching, m.beta_seq, Partition.from_cutpoints(m.beta_seq, m.cutpoints),
        m.lyapunov.tag)),
    "thm21": _Runner(("q", "lyapunov"), lambda m: classify_avg(m.switching, m.lyapunov)),
    "thm31": _Runner(("q", "two_function"),
                     lambda m: classify_two_function(m.switching, m.two_function)),
    "thm32": _Runner(("rates", "two_function"), lambda m: classify_two_function_state_dependent(
        m.q_tilde, m.two_function.beta, m.two_function.tag)),
    "thm33": _Runner(("q", "radial"), lambda m: classify_radial_sampled(
        m.switching, m.radial_component, m.delta)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(report: dict, out: str | None, as_text: bool) -> None:
    doc = jsonify(report)
    if out or not as_text:
        text = json.dumps(doc, indent=2, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    print(render_text(doc) if as_text else text)


def cmd_classify(args) -> int:
    model = load_model(args.model)
    order = tuple(RUNNERS) if args.criterion == "auto" else (args.criterion,)
    attempted = []
    final = None
    for name in order:
        try:
            result = RUNNERS[name](model)
        except (CriterionNotApplicable, SingularSolve) as exc:
            if args.criterion != "auto":
                raise
            attempted.append({"criterion": name, "skipped": str(exc)})
            continue
        attempted.append({k: v for k, v in vars(result).items() if v is not None})
        if result.conclusive and final is None:
            final = result
            if args.criterion == "auto":
                break
    report = {"model": str(args.model), "mode": args.criterion,
              "attempted": attempted}
    if final is not None:
        report["verdict"] = final.verdict.value
        report["criterion"] = final.criterion
    else:
        report["verdict"] = "inconclusive"
        reasons = [a.get("reason") or a.get("skipped") for a in attempted]
        report["reasons"] = [r for r in reasons if r]
    _emit(report, args.out, args.text)
    return 0 if final is not None else 2


def cmd_simulate(args) -> int:
    model = load_model(args.model).sde()
    if not 1 <= args.i0 <= model.n_regimes:
        raise ValueError(f"--i0 must lie in 1..{model.n_regimes}, got {args.i0}")
    report = run_ensemble(model, x0=args.x0, i0=args.i0 - 1, r0=args.r0, T=args.T, dt=args.dt,
                          trials=args.trials, seed=args.seed, escape_radius=args.escape_radius)
    sim = dict(vars(report), i0=args.i0)  # the 1-based regime the user gave
    _emit({"model": str(args.model), "simulation": sim}, args.out, args.text)
    return 0


def cmd_reproduce(args) -> int:
    out = None
    if args.out:
        dest = Path(args.out)
        dest.mkdir(parents=True, exist_ok=True)
        out = dest / f"{args.benchmark}.json"
        if args.emit_models:
            repro.emit_models(dest / "models")
    elif args.emit_models:
        repro.emit_models(Path("models"))
    report = repro.REPRODUCERS[args.benchmark](mc=args.mc)  # an unwritable --out fails first
    _emit(report, str(out) if out else None, as_text=not args.json)
    return 0


def cmd_thresholds(args) -> int:
    rec, trans = kappa_thresholds(args.a, args.b)
    _emit({"a": args.a, "b": args.b, "kappa_rec": rec, "kappa_trans": trans},
          args.out, args.text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing never changes it,
    and every default is immutable, so each ``main`` call reuses it.  Every
    caller shares this one object, so none may modify it."""
    parser = _Parser(prog="regime",
                     description="classify and simulate regime-switching diffusions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run classification criteria on a model file")
    p.add_argument("model")
    p.add_argument("--criterion", default="auto", choices=("auto",) + tuple(RUNNERS))
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--text", action="store_true", help="print aligned text instead of JSON")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("simulate", help="Monte Carlo ensemble for a model file")
    p.add_argument("model")
    p.add_argument("--x0", type=float, nargs="+", required=True,
                   help="starting point, one value per axis")
    p.add_argument("--i0", type=int, default=1, help="starting regime (1-based)")
    p.add_argument("--r0", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--escape-radius", type=float, default=50.0)
    p.add_argument("--out", default=None)
    p.add_argument("--text", action="store_true")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("reproduce", help="threshold tables for the built-in benchmarks")
    p.add_argument("benchmark", choices=sorted(repro.REPRODUCERS))
    p.add_argument("--out", default=None, help="directory for JSON output")
    p.add_argument("--mc", action="store_true", help="add Monte Carlo corroboration")
    p.add_argument("--emit-models", action="store_true",
                   help="also write the benchmark model files")
    p.add_argument("--json", action="store_true", help="print JSON instead of text")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("thresholds", help="closed-form benchmark drift thresholds")
    p.add_argument("a", type=float, help="tail down-rate (a >= b)")
    p.add_argument("b", type=float, help="tail up-rate")
    p.add_argument("--out", default=None)
    p.add_argument("--text", action="store_true")
    p.set_defaults(fn=cmd_thresholds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except RegimeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
