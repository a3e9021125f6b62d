"""In-memory span tracing for the benchmark's traced runs.

Tracing is installed only in a worker started with ``--trace 1``.  Each traced
layer function is replaced, in every ``regime.*`` namespace that binds it, by
a wrapper that records a span (id, parent id, name, start, end).  Several
modules import the same function by name (``criteria`` and ``mmatrix`` both
bind ``feasible_point``; ``criteria`` binds ``is_nonsingular_mmatrix``;
``mmatrix`` binds ``invariant_measure``), so patching only the defining module
would miss those calls.

A call whose immediate parent span has the same name records no span of its
own: ``jsonify`` recurses through its module-level name and
``classify_infinite`` delegates to ``classify_coarse``, and each should count
as one call of its layer.

SDE callbacks (drift, sigma, rate_fn) run about 10^5 times per pass, so they
are counted and timed instead of recorded as spans; their time is charged to
the enclosing span as child time, like a span's.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import replace

# span name -> (module, attribute) of the function it wraps
LAYERS = {
    "simulate.run_ensemble": ("regime.simulate", "run_ensemble"),
    "mmatrix.is_nonsingular_mmatrix": ("regime.mmatrix", "is_nonsingular_mmatrix"),
    "mmatrix.leading_minors": ("regime.mmatrix", "leading_minors"),
    "mmatrix.semipositive_certificate": ("regime.mmatrix", "semipositive_certificate"),
    "mmatrix.least_real_eigenvalue": ("regime.mmatrix", "least_real_eigenvalue"),
    "mmatrix.perron": ("regime.mmatrix", "perron"),
    "simplex.feasible_point": ("regime.simplex", "feasible_point"),
    "markov.validate_qmatrix": ("regime.markov", "validate_qmatrix"),
    "markov.invariant_measure": ("regime.markov", "invariant_measure"),
    "markov.bound_rates": ("regime.markov", "bound_rates"),
    "markov.coarsen": ("regime.markov", "coarsen"),
    "modelfile.load_model": ("regime.modelfile", "load_model"),
    "cli.main": ("regime.cli", "main"),
    "util.jsonify": ("regime._util", "jsonify"),
}

# every classify_* function of regime.criteria is traced as one layer
CLASSIFY = "criteria.classify"

# layers whose results split into useful outcomes and wasted attempts
USEFUL = {
    CLASSIFY: lambda result: result.conclusive,
    "simplex.feasible_point": lambda result: result is not None,
}


class Tracer:
    """Span recorder; one per traced worker, reset at each pass boundary."""

    def __init__(self):
        self.spans = []        # (id, parent, name, start, end), all passes
        self._stack = []       # [id, name, child_time] of open spans
        self._next_id = 0
        self.pass_stats = {}   # name -> [calls, self_s] for the current pass
        self.outcomes = {}     # name -> [useful, attempts] for the current pass
        self.callback_calls = 0
        self.callback_s = 0.0

    def start_pass(self):
        self.pass_stats = {}
        self.outcomes = {}
        self.callback_calls = 0
        self.callback_s = 0.0

    def wrap(self, name, fn, useful=None):
        """Span-recording wrapper; ``useful(result)`` counts useful outcomes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][2] += dur
                stat = self.pass_stats.setdefault(name, [0, 0.0])
                stat[0] += 1
                stat[1] += dur - frame[2]
                self.spans.append((sid, parent, name, t0, t1))
            if useful is not None:
                tally = self.outcomes.setdefault(name, [0, 0])
                tally[0] += bool(useful(result))
                tally[1] += 1
            return result

        return traced

    def wrap_callback(self, fn):
        """Counting and timing wrapper for an SDE drift, sigma or rate callable."""

        @functools.wraps(fn)
        def counted(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                dur = time.perf_counter() - t0
                self.callback_calls += 1
                self.callback_s += dur
                if self._stack:
                    self._stack[-1][2] += dur

        return counted

    def traced_sde(self, model):
        """Copy of an SdeModel whose callbacks are counted and timed."""
        from regime.markov import StateDependentRates

        rates = model.rates
        if isinstance(rates, StateDependentRates):
            rates = replace(rates, rate_fn=self.wrap_callback(rates.rate_fn))
        return replace(model, drift=self.wrap_callback(model.drift),
                       sigma=self.wrap_callback(model.sigma), rates=rates)

    def install(self):
        """Replace every traced function in every loaded regime.* namespace.

        Returns the number of bindings replaced.
        """
        import regime.criteria as criteria

        targets = {}  # id(function) -> (function, span name)
        for name, (mod, attr) in LAYERS.items():
            fn = getattr(sys.modules[mod], attr)
            targets[id(fn)] = (fn, name)
        for attr, value in vars(criteria).items():
            if attr.startswith("classify_") and callable(value):
                targets[id(value)] = (value, CLASSIFY)
        wrappers = {oid: self.wrap(name, fn, USEFUL.get(name))
                    for oid, (fn, name) in targets.items()}
        patched = 0
        for modname, module in list(sys.modules.items()):
            if modname != "regime" and not modname.startswith("regime."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is targets[id(value)][0]:
                    setattr(module, attr, wrappers[id(value)])
                    patched += 1
        return patched

    def dump(self, path):
        """Write every recorded span as JSON lines [id, parent, name, start, end]."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")

