#!/usr/bin/env python3
"""Run one workload on several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py sim-pcstall --seeds 1-10

Run from the repository root. The spread of a metric is the distance
between the first and third quartile of its values (statistics.quantiles
with n=4) as a share of their median, printed beside the metric's bound
from BENCHMARK.json. A run that fails its correctness checks stops the
script.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        start = time.monotonic()
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        wall = time.monotonic() - start
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if out.returncode != 0 or not result or not result["correct"]:
            sys.exit(f"seed {seed}: the run failed (exit {out.returncode}): {result}")
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed} ({wall:.1f} s): {shown}", flush=True)
    print(f"{'metric':<18} {'median':>14} {'spread':>8} {'bound':>6}")
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        if len(vals) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median
        mark = "" if spread <= metric["bound"] / 3 else "  above a third of the bound"
        print(f"{metric['name']:<18} {median:>14.6g} {spread:>8.4f} {metric['bound']:>6}{mark}")


if __name__ == "__main__":
    main()
