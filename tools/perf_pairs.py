#!/usr/bin/env python3
"""Alternating before/after runs of perfbench from two checkouts.

    python3 tools/perf_pairs.py --parent <dir> --change <dir> \\
        --workload crash_ondemand [--seed 1] [--seconds 30] [--pairs 10]

Each checkout is a full source tree (for example a `git worktree add` of
the parent commit next to the working tree); its own perfbench/run.py
builds and runs it. The script runs `--pairs` pairs, one run of each
checkout per pair, swapping which goes first every pair so slow drift on
the machine falls on both sides alike. It prints, per end-to-end metric,
the median and interquartile range of each side, the median's relative
change, and in how many pairs the change was better (by the metric's
direction in BENCHMARK.json).

Virtual-time metrics are deterministic for a seed, so they must match
exactly in every pair; the script exits 1 if one differs, if a run
reports a failed check or failed transactions, and 2 if a run cannot be
started or prints no result. Passing the same directory twice checks the
tool and the benchmark's determinism against themselves.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# End-to-end metrics measured on the host clock; every other metric in
# the result line is virtual time and seed-pure.
HOST_METRICS = {"setup_s", "peak_rss_mb", "host_txn_per_s", "host_recovery_s"}


def run_once(checkout, args):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode == 2 or not lines:
        sys.exit(f"perf_pairs: {' '.join(cmd)} exited {proc.returncode} "
                 "without a result")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def better_direction(checkout):
    path = os.path.join(checkout, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the base")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args()

    better = better_direction(args.change)
    sides = {"parent": [], "change": []}
    problems = []
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            values, result = run_once(getattr(args, side), args)
            if not result.get("correct", False) or result.get("failed", 0):
                problems.append(f"pair {i + 1} {side}: correct="
                                f"{result.get('correct')} failed="
                                f"{result.get('failed')}")
            sides[side].append(values)
        par, chg = sides["parent"][-1], sides["change"][-1]
        for name in sorted(set(par) | set(chg)):
            if name in HOST_METRICS:
                continue
            if par.get(name) != chg.get(name):
                problems.append(f"pair {i + 1}: virtual metric {name} "
                                f"differs: {par.get(name)} vs {chg.get(name)}")
        host = " ".join(f"{name} {par[name]:.6g} -> {chg[name]:.6g}"
                        for name in sorted(HOST_METRICS) if name in par)
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): {host}",
              file=sys.stderr, flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s")
    print(f"  {'metric':<28} {'parent med':>12} {'[q1, q3]':>22} "
          f"{'change med':>12} {'[q1, q3]':>22} {'delta':>8} {'wins':>6}")
    for name in sides["parent"][0]:
        par = [v[name] for v in sides["parent"]]
        chg = [v[name] for v in sides["change"]]
        pm, cm = statistics.median(par), statistics.median(chg)
        pq, cq = quartiles(par), quartiles(chg)
        lower = better.get(name, "lower") == "lower"
        wins = sum(1 for a, b in zip(par, chg) if (b < a if lower else b > a))
        delta = (cm - pm) / pm * 100 if pm else 0.0
        print(f"  {name:<28} {pm:>12.6g} [{pq[0]:>9.4g}, {pq[1]:>9.4g}] "
              f"{cm:>12.6g} [{cq[0]:>9.4g}, {cq[1]:>9.4g}] {delta:>+7.1f}% "
              f"{wins:>3}/{len(par)}")
    if problems:
        for line in problems:
            print(f"perf_pairs: {line}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
