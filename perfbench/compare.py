"""Compare two sets of benchmark results, parent (A) against change (B).

    python3 perfbench/compare.py A_DIR B_DIR

Each directory holds result files written by run.py (they land in
.bench_build/perfbench/results/; copy each side's into its own directory).

For every (workload, end-to-end metric) pair this prints each side's median
and quartiles and one of:

* better      B wins at least 9 in 10 pairs (ties count for neither) and the
              medians differ by more than A's interquartile distance;
* no-worse    B's median is not worse than A's by more than the bound in
              BENCHMARK.json;
* worse       B's median is worse than A's by more than the bound;
* unresolved  a side's spread (interquartile distance over median) exceeds
              the bound and not every B run reads better than every A run.

Runs are paired by seed; several runs of one seed count as their median.
It then prints each set's spread against the bounds, and checks that traced
runs of the same seed report identical counts and that all runs of the same
seed report identical digests.  Exit code 1 when any pair is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list:
    files = sorted(Path(directory).glob("*.json"))
    if not files:
        raise SystemExit(f"error: no result files in {directory}")
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def runs(results: list, workload: str, trace: int) -> list:
    return [r for r in results if r["workload"] == workload and r["trace"] == trace]


def by_seed(results: list, workload: str, trace: int) -> dict:
    """seed -> the runs with that seed."""
    out = {}
    for r in runs(results, workload, trace):
        out.setdefault(r["seed"], []).append(r)
    return out


def per_seed(runs_of_seed: list, name: str) -> float:
    return statistics.median(r["all_metrics"][name] for r in runs_of_seed)


def judge(a: list, b: list, bound: float, lower_better: bool) -> str:
    """Section 8 of the choosing-metrics guide, for paired runs a[i], b[i]."""
    sign = 1.0 if lower_better else -1.0
    a_med, b_med = statistics.median(a), statistics.median(b)
    gain = sign * (a_med - b_med)
    wins = sum(sign * (x - y) > 0 for x, y in zip(a, b))
    q1, _, q3 = quartiles(a)
    if wins >= 0.9 * len(a) and gain > q3 - q1:
        return "better"
    if max(spread(a), spread(b)) > bound:
        if all(sign * (x - y) > 0 for x in a for y in b):
            return "no-worse"
        return "unresolved"
    if -gain > bound * abs(a_med):
        return "worse"
    return "no-worse"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="directory of the parent's result files")
    ap.add_argument("change", help="directory of the change's result files")
    args = ap.parse_args(argv)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = {"A": load(args.parent), "B": load(args.change)}
    workloads = [w["name"] for w in manifest["workloads"]]
    any_worse = False

    print(f"{'workload':10s} {'metric':16s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'B/A':>7s}  verdict")
    for w in workloads:
        a_runs, b_runs = by_seed(sets["A"], w, 0), by_seed(sets["B"], w, 0)
        seeds = sorted(set(a_runs) & set(b_runs))
        if not seeds:
            continue
        for m in manifest["end_to_end"]:
            name = m["name"]
            a = [per_seed(a_runs[s], name) for s in seeds]
            b = [per_seed(b_runs[s], name) for s in seeds]
            verdict = judge(a, b, m["bound"], m["better"] == "lower")
            any_worse |= verdict == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{w:10s} {name:16s} {qa[1]:12.5g} [{qa[0]:8.4g}, {qa[2]:8.4g}] "
                  f"{qb[1]:12.5g} [{qb[0]:8.4g}, {qb[2]:8.4g}] "
                  f"{qb[1] / qa[1]:7.3f}  {verdict} ({len(seeds)} pairs)")

    print("\nspread (interquartile distance / median) against each bound")
    for label, results in sets.items():
        for w in workloads:
            rs = runs(results, w, 0)
            if len(rs) < 2:
                continue
            for m in manifest["end_to_end"]:
                sp = spread([r["all_metrics"][m["name"]] for r in rs])
                status = ("steady" if sp <= m["bound"] / 3 else
                          "within bound" if sp <= m["bound"] else "WIDER THAN BOUND")
                print(f"  {label} {w:10s} {m['name']:16s} {sp:7.3f} of {m['bound']:.2f}"
                      f"  {status} ({len(rs)} runs)")

    print("\nexact counts and digests, same workload and seed")
    count_names = [m["name"] for m in manifest["per_layer"] if m["unit"] == "count"
                   and not m["name"].startswith("trace.")]
    for w in workloads:
        for trace in (0, 1):
            a_runs, b_runs = by_seed(sets["A"], w, trace), by_seed(sets["B"], w, trace)
            for s in sorted(set(a_runs) & set(b_runs)):
                both = a_runs[s] + b_runs[s]
                diffs = [n for n in count_names if trace and
                         len({r["all_metrics"].get(n) for r in both}) > 1]
                same = len({r["digest"] for r in both}) == 1
                print(f"  {w:10s} seed {s:<6d} trace {trace}: digest "
                      f"{'identical' if same else 'DIFFERS'}"
                      + (f", counts {'identical' if not diffs else 'DIFFER: ' + ', '.join(diffs)}"
                         if trace else ""))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
