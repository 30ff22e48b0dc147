#!/usr/bin/env python3
"""Repeatability check for the mcr end-to-end benchmark.

    python3 e2e_bench/repeat_check.py N SEED [--sets K]

Runs every workload N times per set, with seeds SEED .. SEED+N-1, and
prints min, quartiles, median and max per (workload, metric), with the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.
Exits 1 when an end-to-end metric other than setup_s spreads wider than
its bound, or, with --sets 2 or more, when a later set's median of any
metric is worse than the first set's by more than its bound. Quartiles
are Python's statistics.quantiles(values, n=4).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=REPO, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {out.strip()[-300:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(first, later, better):
    """Share of `first` by which `later` is worse (negative when better)."""
    change = (later - first) / first
    return -change if better == "higher" else change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int)
    ap.add_argument("seed", type=int)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]

    # values[set][workload][metric] -> list over seeds
    values = [{w: {m: [] for m in metrics} for w in workloads} for _ in range(args.sets)]
    for s in range(args.sets):
        for seed in range(args.seed, args.seed + args.n):
            for w in workloads:
                for name, v in run_once(w, seed, bench["run_seconds"]).items():
                    values[s][w][name].append(v)
                print(f"set {s + 1} seed {seed} {w} done", file=sys.stderr, flush=True)

    failed = False
    print(f"{'workload':18} {'metric':18} {'set':>3} {'min':>11} {'q1':>11} {'median':>11} "
          f"{'q3':>11} {'max':>11} {'spread':>7} {'bound':>6}")
    for w in workloads:
        for name, m in metrics.items():
            medians = []
            for s in range(args.sets):
                vals = values[s][w][name]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                flag = ""
                if name != "setup_s" and spread > m["bound"]:
                    flag, failed = "  SPREAD > BOUND", True
                print(f"{w:18} {name:18} {s + 1:3} {min(vals):11.5g} {q1:11.5g} {med:11.5g} "
                      f"{q3:11.5g} {max(vals):11.5g} {spread:7.3f} {m['bound']:6.2f}{flag}")
            for s in range(1, args.sets):
                drift = worse_by(medians[0], medians[s], m["better"])
                if drift > m["bound"]:
                    failed = True
                    print(f"{w:18} {name:18} set {s + 1} median worse than set 1 by "
                          f"{drift:.3f} > {m['bound']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
