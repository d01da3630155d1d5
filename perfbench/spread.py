#!/usr/bin/env python3
"""Run one workload of the benchmark under several seeds and report, per
metric, the median and the quartile spread (distance between the first and
third quartile as a share of the median, from statistics.quantiles(n=4)).

    python3 perfbench/spread.py --workload maintain --seeds 1-10 [--seconds 10] [--trace 0]

Run it from the repository root after building the benchmark once
(`cargo build --release --manifest-path perfbench/Cargo.toml`). It runs the
same command BENCHMARK.json names, one run at a time, and compares each
spread with the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    key = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    values = {name: [] for name in bounds}
    for seed in seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", args.trace]
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stdout[-2000:]}\n{run.stderr[-2000:]}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {lines[-1]}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={values[n][-1]:.6g}" for n in values), flush=True)
    print(f"\n{'metric':<36} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = float("nan")
        bound = bounds[name]
        flag = "" if bound is None or spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
        print(f"{name:<36} {med:>14.6g} {spread:>8.3f} {bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
