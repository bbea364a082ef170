#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's spread.

For every metric of the result line this prints the median over the runs
and the distance between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)), beside the metric's bound from
BENCHMARK.json. Run it from the repository root:

    python3 perfbench/spread.py --workload nightly-load --seeds 1-5 --seconds 15
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = args.seconds or bench["run_seconds"]

    values, failed = {}, 0
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        failed += result["failed"] + (not result["correct"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in sorted(values.items())),
              file=sys.stderr)

    print(f"{'metric':40} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, xs in sorted(values.items()):
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:40} {med:12.6g} {spread:8.3f} {bound if bound is not None else '':>6}")
    if failed:
        print(f"{failed} failures", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
