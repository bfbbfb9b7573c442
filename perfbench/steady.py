#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--trace]

For every workload in BENCHMARK.json it makes `--sets` independent sets of
`--runs` runs of BENCHMARK.json's run_seconds, seeds 1 .. runs in each
set, one run at a time. Per set and end-to-end metric it prints the median, the first
and third quartile (statistics.quantiles(n=4)) and the spread: the
quartile distance as a share of the median.

It fails (exit 1) when
  * a run fails, reports correct=false, or reports other metrics than
    BENCHMARK.json declares;
  * a virtual-clock metric differs between two runs of the same seed
    (they must be byte-identical);
  * a spread exceeds the metric's bound;
  * a later set's median is worse than the first set's by more than the
    bound.
Spreads above a third of the bound are flagged "wide". Finally each
workload runs once on a held-out seed (7919), and with --trace once
traced, to check the per-layer output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 7919

# Metrics on the virtual clock (or pure counts of simulated work): a
# function of the seed alone.
VIRTUAL = {
    "vtxn_per_s", "vlat_p50_us", "vlat_p99_us", "restart_catalog_vms",
    "first_commit_vms", "perceived_downtime_vms", "full_residency_vms",
    "storage_write_amp", "max_rate_at_slo_txn_per_s", "ok_frac",
}


def run(spec, workload, seed, seconds, trace):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{workload} seed {seed}: bad result keys")
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: correct="
                           f"{result['correct']} failed={result['failed']}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise RuntimeError(f"{workload} seed {seed}: metrics differ from "
                           f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def worse_by(metric, base, new):
    """Relative worsening of `new` against `base` (negative: better)."""
    if base == 0:
        return 0.0
    d = (new - base) / abs(base)
    return d if metric["better"] == "lower" else -d


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    problems = []

    for name in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1 + i
                runs.append(run(spec, name, seed, seconds, False))
                print(f"  {name} set {s} seed {seed} done", file=sys.stderr)
            sets.append(runs)
        print(f"\n== {name}: {args.sets} sets x {args.runs} runs, "
              f"{seconds:g} s each")
        print(f"{'metric':28} {'set':>3} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>8} {'vs set0':>8} {'bound':>6}")
        for m in metrics:
            key, bound = m["name"], m["bound"]
            base_med = None
            for s, runs in enumerate(sets):
                values = [r[key] for r in runs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / abs(med) if med else 0.0
                if base_med is None:
                    base_med = med
                drift = worse_by(m, base_med, med)
                flag = ""
                if spread > bound:
                    flag = "SPREAD"
                    problems.append(f"{name} {key}: spread {spread:.3f} > "
                                    f"bound {bound}")
                elif spread > bound / 3:
                    flag = "wide"
                if drift > bound:
                    flag += " DRIFT"
                    problems.append(f"{name} {key}: set {s} median worse by "
                                    f"{drift:.3f} > bound {bound}")
                print(f"{key:28} {s:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.4f} {drift:>+8.4f} {bound:>6} {flag}")
            if key in VIRTUAL:
                for s in range(1, len(sets)):
                    for i, (a, b) in enumerate(zip(sets[0], sets[s])):
                        if a[key] != b[key]:
                            problems.append(
                                f"{name} {key}: seed {1 + i} "
                                f"set {s} {b[key]!r} != set 0 {a[key]!r}")
        held = run(spec, name, HELD_OUT_SEED, seconds, False)
        print(f"held-out seed {HELD_OUT_SEED}: correct, "
              + ", ".join(f"{k}={v:.6g}" for k, v in held.items()))
        if args.trace:
            layer = run(spec, name, 1, seconds, True)
            print(f"traced run: {len(layer)} per-layer metrics")

    if problems:
        print("\nFAILED:")
        for line in problems:
            print("  " + line)
        sys.exit(1)
    print("\nall spreads and medians within bounds; virtual metrics "
          "byte-identical across sets")


if __name__ == "__main__":
    main()
