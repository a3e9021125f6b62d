"""One workload in a fresh interpreter: set up, report ready, measure, report.

Started by run.py, never by hand.  Protocol on stdout: one line
``READY <json>`` when set-up is done, then (unless ``--setup-only``) one line
``RESULT <json>``.  Set-up covers importing numpy and the package and building
the workload's models and inputs; run.py times it from process start.
"""

from __future__ import annotations

import time

_T_ENTER = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import enum  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import regime  # noqa: E402
import regime.cli  # noqa: E402,F401
import regime.reproduce  # noqa: E402,F401

_T_IMPORTED = time.perf_counter()

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
# an ensemble's time is split into segments of this many drift calls
SEGMENT_CALLS = 256


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _feed(h, obj) -> None:
    """Feed a report into a hash: exact bytes of every number and array, keys
    in sorted order, so equal digests mean bit-for-bit equal reports."""
    if isinstance(obj, dict):
        h.update(b"{")
        for k in sorted(obj, key=str):
            _feed(h, str(k))
            _feed(h, obj[k])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for v in obj:
            _feed(h, v)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, enum.Enum):
        _feed(h, obj.value)
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + float(obj).hex().encode())
    else:
        h.update(f"{type(obj).__name__}:{obj!r};".encode())


def _digest(doc) -> str:
    h = hashlib.sha256()
    _feed(h, doc)
    return h.hexdigest()[:16]


def _quantile(values, q: float) -> float:
    """Linear-interpolation quantile within the sample range."""
    return statistics.quantiles(values, n=100, method="inclusive")[int(round(q * 100)) - 1]


class StepClock:
    """Timestamps of the drift calls of an untraced run's SDE models.

    Every pass repeats each ensemble on the same inputs, so the n-th drift
    call of an ensemble is the same point of the same work in every pass.
    Cutting the ensemble at every SEGMENT_CALLS-th call gives segments of a
    few milliseconds whose fastest time over the passes can be taken one by
    one (``Runner._keep_segments``).  The hook costs one clock read and one
    list append per drift call, well under 1% of a call's time.
    """

    def __init__(self):
        self.stamps = []

    def clocked_sde(self, model):
        drift, stamp, now = model.drift, self.stamps.append, time.perf_counter

        def clocked(x, i):
            stamp(now())
            return drift(x, i)

        return dataclasses.replace(model, drift=clocked)

    def segments(self, t0: float, t1: float) -> list:
        """Durations between t0, every SEGMENT_CALLS-th stamp and t1."""
        cuts = [t0] + self.stamps[SEGMENT_CALLS - 1::SEGMENT_CALLS] + [t1]
        return [b - a for a, b in zip(cuts, cuts[1:])]


class Runner:
    """Runs passes over a workload's operations and keeps what they measured.

    With a tracer, each pass also keeps the tracer's per-layer totals.  With
    a clock, whose models ``wl.sde`` must hold, each ensemble's time is the
    sum of its segments' fastest times, traced or not, so the two runs'
    ``wall_s`` differ by the tracing overhead alone.
    """

    def __init__(self, wl, tracer=None, first=None, clock=None):
        self.wl = wl
        self.tracer = tracer
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.failures = []
        # digests of the first pass; a later runner on the same inputs
        # compares against the earlier runner's
        self.digests = first.digests if first else {}
        self.op_steps = first.op_steps if first else {}   # op label -> path-steps
        self.pass_s = []
        self.best_s = {}         # op label -> fastest time over passes, s
        self.best_seg = {}       # ensemble label -> fastest time of each segment, s
        self.layer_stats = []    # per traced pass: name -> [calls, self_s]
        self.outcomes = {}       # name -> [useful, attempts] of the last pass
        self.callbacks = []      # per traced pass: (calls, seconds)

    def run_pass(self) -> None:
        if self.tracer:
            self.tracer.start_pass()
        total = 0.0
        clocked = self.clock is not None
        for op in self.wl.ops:
            if clocked:
                self.clock.stamps.clear()
            t0 = time.perf_counter()
            try:
                out = op.call()
                err = None
            except Exception as exc:  # a raising operation is a failed one
                out, err = None, f"{op.label}: raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            total += t1 - t0
            self.attempted += 1
            if clocked and op.trials and err is None:
                err = self._keep_segments(op.label, self.clock.segments(t0, t1))
            else:
                self.best_s[op.label] = min(t1 - t0, self.best_s.get(op.label, t1 - t0))
            if err is None:
                err = self._verify(op, out)
            if err is not None:
                self._fail(err)
        self.pass_s.append(total)
        if self.tracer:
            self.layer_stats.append(self.tracer.pass_stats)
            self.outcomes = self.tracer.outcomes
            self.callbacks.append((self.tracer.callback_calls, self.tracer.callback_s))

    def _keep_segments(self, label: str, segs: list):
        """Keep each segment's fastest time; the ensemble's time is their sum.

        On a shared host the neighbours' load slows a run in stretches of
        tenths of a second to seconds, shorter than one ensemble; taking the
        fastest time segment by segment removes most of it.
        """
        best = self.best_seg.get(label)
        if best is None:
            best = self.best_seg[label] = segs
        elif len(best) != len(segs):
            return f"{label}: {len(segs)} timed segments, {len(best)} in the first pass"
        else:
            best[:] = map(min, best, segs)
        self.best_s[label] = sum(best)
        return None

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def _verify(self, op, out):
        """Reference check on first sight, bit-for-bit digest check after."""
        digest = _digest(op.doc(out))
        if op.label not in self.digests:
            self.digests[op.label] = digest
            if op.trials:
                self.op_steps[op.label] = workloads.path_steps(out)
            return op.check(out)
        if digest != self.digests[op.label]:
            return f"{op.label}: report differs from the first pass at the same seed"
        return None

    def measure(self, seconds: float) -> None:
        """Run passes for about ``seconds``: no pass starts that would likely
        end after the deadline, and at least MIN_PASSES run."""
        t_end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            self.run_pass()
            spent = time.perf_counter() - t0
            if len(self.pass_s) >= MIN_PASSES and time.perf_counter() + spent > t_end:
                break

    def wall_s(self) -> float:
        """One pass's time with every operation at its fastest."""
        return sum(self.best_s[op.label] for op in self.wl.ops)

    def exact(self, name: str, counts) -> int:
        """A count that must repeat exactly in every pass; a mismatch fails."""
        counts = set(counts)
        if len(counts) != 1:
            self._fail(f"{name} differs between passes: {sorted(counts)}")
        return max(counts)


def end_to_end(runner: Runner) -> dict:
    """Timings from each operation's fastest call in the run.

    Every pass repeats the same operations on the same inputs, and on a
    shared host interference only ever adds time.  Taking each operation's
    fastest time over the passes removes most of it; the pass median or the
    fastest whole pass did not (their spread from run to run was 2-4 times
    larger).  An ensemble's fastest time is taken segment by segment
    (``StepClock``).  ``wall_s`` is the sum over one pass's operations; p50
    and p99 are over its verdict calls.
    """
    verdict = [runner.best_s[op.label] for op in runner.wl.ops if op.verdict]
    return {
        "wall_s": runner.wall_s(),
        "verdict_ms.p50": 1e3 * _quantile(verdict, 0.50),
        "verdict_ms.p99": 1e3 * _quantile(verdict, 0.99),
        "verdict_calls_per_pass": len(verdict),
        "peak_rss_mb": _rss_mb(),
    }


def per_layer(wl, plain: Runner, traced: Runner, n_spans: int) -> dict:
    """Per-pass layer numbers: counts from the traced passes (exact), self
    times as medians over traced passes.  ns per path-step and the tracing
    overhead use fastest operation times, like ``end_to_end``."""
    out = {}
    stats = traced.layer_stats
    for name in list(spans.LAYERS) + [spans.CLASSIFY]:
        out[f"{name}.calls"] = traced.exact(
            f"{name}.calls", (p.get(name, [0, 0.0])[0] for p in stats))
        out[f"{name}.self_s"] = statistics.median(p.get(name, [0, 0.0])[1] for p in stats)
    for ratio, name in (("criteria.conclusive_ratio", spans.CLASSIFY),
                        ("simplex.feasible_ratio", "simplex.feasible_point")):
        useful, attempts = traced.outcomes.get(name, (0, 0))
        out[ratio] = useful / attempts if attempts else 0.0
    out["simulate.path_steps"] = sum(plain.op_steps.values())
    for group in ("w100", "w500", "w2000", "q2", "q12"):
        ops = [op.label for op in wl.ops if op.key == group]
        steps = sum(plain.op_steps[label] for label in ops)
        out[f"simulate.ns_per_path_step.{group}"] = (
            1e9 * sum(plain.best_s[label] for label in ops) / steps if steps else 0.0)
    out["simulate.callback_calls"] = traced.exact(
        "simulate.callback_calls", (c for c, _ in traced.callbacks))
    out["simulate.callback_s"] = statistics.median(s for _, s in traced.callbacks)
    out["simulate.rng_buffer_mb"] = max(
        (2 * op.trials * regime.simulate.BLOCK * op.dim * 8 / 1e6 for op in wl.ops),
        default=0.0)
    out["trace.wall_s"] = traced.wall_s()
    out["trace.overhead_s"] = out["trace.wall_s"] - plain.wall_s()
    out["trace.spans_per_pass"] = n_spans / len(traced.pass_s)
    return out


def _by_key(runner: Runner) -> dict:
    """Median over each operation kind of the fastest call times, in ms."""
    groups = {}
    for op in runner.wl.ops:
        groups.setdefault(op.key, []).append(runner.best_s[op.label])
    return {k: 1e3 * statistics.median(v) for k, v in groups.items()}


def _clock(wl):
    """A StepClock on the workload's SDE models (None without any)."""
    if not wl.sde:
        return None
    clock = StepClock()
    wl.sde = {k: clock.clocked_sde(m) for k, m in wl.sde.items()}
    return clock


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    t_built0 = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, workdir)
    t_ready = time.perf_counter()
    ready = {"import_s": _T_IMPORTED - _T_ENTER, "build_s": t_ready - t_built0,
             "setup_rss_mb": _rss_mb()}
    print("READY " + json.dumps(ready), flush=True)
    if args.setup_only:
        return 0

    facts = {
        "python": platform.python_version(), "numpy": np.__version__,
        "regime": regime.__version__, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in
                ("REGIME_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "PYTHONHASHSEED", "NUMPY_MADVISE_HUGEPAGE")},
    }
    result = {"facts": facts}
    if args.trace == 0:
        runner = Runner(wl, clock=_clock(wl))
        runner.measure(args.seconds)
        result["metrics"] = end_to_end(runner)
        attempted, failed, failures = runner.attempted, runner.failed, runner.failures
    else:
        # untraced half first: the difference in wall_s is the tracing overhead
        models = wl.sde
        plain = Runner(wl, clock=_clock(wl))
        plain.measure(args.seconds / 2)
        tracer = spans.Tracer()
        result["patched_bindings"] = tracer.install()
        wl.sde = {k: tracer.traced_sde(m) for k, m in models.items()}
        runner = Runner(wl, tracer, first=plain, clock=_clock(wl))
        runner.measure(args.seconds / 2)
        result["metrics"] = per_layer(wl, plain, runner, len(tracer.spans))
        span_path = workdir / f"spans-{args.workload}-s{args.seed}.jsonl"
        tracer.dump(span_path)
        result["spans_file"] = str(span_path)
        attempted = plain.attempted + runner.attempted
        failed = plain.failed + runner.failed
        failures = plain.failures + runner.failures
    result.update(attempted=attempted, failed=failed, failures=failures,
                  pass_s=runner.pass_s, latency_ms=_by_key(runner),
                  digests=runner.digests,
                  digest=_digest(sorted(runner.digests.items())))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
