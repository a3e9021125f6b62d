"""Benchmark runner for the regime package.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout.  Each workload runs in fresh interpreters
(perfbench/worker.py) against the package under ``src/``: a warm-up start
that is not counted, SETUP_PROBES starts that only set up, and one start that
sets up and measures for ``--seconds``.  ``setup_s`` is the median set-up time
over all counted starts, timed here from process launch to the worker's READY
line.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json,
``--trace 1`` the per-layer ones.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A full result, with
machine facts and report digests, is written under .bench_build/perfbench/.
The exit code is 0 only when every reference check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = Path(".bench_build") / "perfbench"
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150


def worker_env() -> dict:
    """Environment pinned for the measured process: one BLAS thread, no
    simulation threads, a fixed hash seed, the package from ``src/``, no
    transparent huge pages for numpy arrays (whether the host grants them
    varies from run to run, and with them the resident set size), and a
    fixed glibc mmap threshold.  By default glibc raises that threshold to
    the size of the largest block freed so far, up to 32 MiB, so a 500-path
    ensemble's 32.8 MB RNG buffers move from mmap to the heap after the first
    ensemble.  A heap block keeps the pages earlier blocks touched, so the
    peak resident set then grew with the seed-dependent layout of the small
    allocations between ensembles (55 to 71 MB between seeds)."""
    env = dict(os.environ)
    env.pop("REGIME_THREADS", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"),
               NUMPY_MADVISE_HUGEPAGE="0", MALLOC_MMAP_THRESHOLD_="131072")
    return env


def start_worker(args, setup_only: bool) -> tuple:
    """Launch a worker and wait for READY; returns (process, setup_s, ready).
    The caller passes the process to ``finish``."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(OUT / args.workload)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if not line.startswith("READY "):
            raise RuntimeError(f"worker for {args.workload} did not report ready: {line!r}")
    except BaseException:
        _stop(proc)
        raise
    return proc, setup_s, json.loads(line[len("READY "):])


def _stop(proc) -> None:
    proc.kill()
    proc.communicate()


def finish(proc, timeout: float) -> str:
    """Wait for a worker's exit and return the rest of its stdout; the worker
    is killed and reaped if it overruns or this process is interrupted."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise RuntimeError("worker timed out") from None
    except BaseException:
        _stop(proc)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(args) -> dict:
    """All starts of one workload; returns the full result document."""
    (OUT / args.workload).mkdir(parents=True, exist_ok=True)
    load_start = os.getloadavg()
    proc, _, _ = start_worker(args, setup_only=True)   # warm-up: bytecode, file cache
    finish(proc, WORKER_TIMEOUT_S)
    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup_s, ready = start_worker(args, setup_only=True)
        finish(proc, WORKER_TIMEOUT_S)
        setups.append((setup_s, ready))
    proc, setup_s, ready = start_worker(args, setup_only=False)
    setups.append((setup_s, ready))
    out = finish(proc, args.seconds + WORKER_TIMEOUT_S)
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise RuntimeError("worker printed no result")
    result = json.loads(lines[-1][len("RESULT "):])

    metrics = result.pop("metrics")
    metrics["setup_s"] = statistics.median(s for s, _ in setups)
    metrics["setup_rss_mb"] = statistics.median(r["setup_rss_mb"] for _, r in setups)
    metrics["setup.import_s"] = statistics.median(r["import_s"] for _, r in setups)
    metrics["setup.build_s"] = statistics.median(r["build_s"] for _, r in setups)
    metrics["failed_frac"] = result["failed"] / result["attempted"]
    result["facts"]["loadavg_start"] = load_start
    result["facts"]["loadavg_end"] = os.getloadavg()
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, all_metrics=metrics,
                  setup_samples_s=[s for s, _ in setups])
    return result


def select(result: dict, declared: list) -> dict:
    """The declared metrics, with their units, from everything measured."""
    measured = result["all_metrics"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}


def save(result: dict) -> Path:
    dest = OUT / "results"
    dest.mkdir(parents=True, exist_ok=True)
    path = dest / (f"{result['workload']}-s{result['seed']}-t{result['trace']}"
                   f"-{time.time_ns()}.json")
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return path


def report(result: dict, metrics: dict, path: Path) -> None:
    w = result["workload"]
    for name, m in metrics.items():
        print(f"{w:10s} {name:42s} {m['value']:14.6g} {m['unit']}")
    am = result["all_metrics"]
    print(f"{w:10s} {'failed_frac':42s} {am['failed_frac']:14.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    if "verdict_calls_per_pass" in am:
        print(f"{w:10s} {'verdict latency samples (calls per pass)':42s} "
              f"{am['verdict_calls_per_pass']:14d}")
    print(f"{w:10s} report digest {result['digest']} over {len(result['digests'])} "
          f"distinct reports, {len(result['pass_s'])} passes")
    for key, ms in result["latency_ms"].items():
        print(f"{w:10s} median latency {key:27s} {ms:14.6g} ms")
    for reason in result["failures"]:
        print(f"{w:10s} FAILED {reason}")
    print(f"{w:10s} full result: {path}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM this process unwinds, so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "regime" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'regime'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    os.chdir(ROOT)

    ok = True
    for name in (names if args.workload == "all" else [args.workload]):
        args.workload = name
        try:
            result = run_workload(args)
            metrics = select(result, declared)
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(result, metrics, save(result))
        ok = ok and result["failed"] == 0
        print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
