#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Runs the benchmark command once per seed for each workload and prints, for
every end-to-end metric, the median, the quartiles, the max/min ratio and
the quartile spread as a share of the median, next to the metric's bound.
With --trace it also makes one traced run per workload and prints how far
the traced window's throughput and median latency sit from the untraced
medians (the tracing overhead).

Run from the repository root:

    python3 perfbench/steady.py --workloads serve_cold --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --trace

Seeds 1-10 are the development seeds; 9001 is the held-out seed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", help="comma-separated; default: all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", action="store_true", help="also measure tracing overhead")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    worst = 0.0
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run(bench, workload, seed, trace=False))
            print(f"# {workload} seed {seed}: {json.dumps(runs[-1])}", flush=True)
        print(f"\n{workload}: {len(seeds)} runs, seeds {args.seeds}")
        print(f"  {'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'max/min':>9}{'spread':>9}{'bound':>7}")
        medians = {}
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            medians[m["name"]] = med
            spread = (q3 - q1) / med
            ratio = max(values) / min(values)
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            flag = "" if spread < m["bound"] / 3 else "  <- above a third of the bound"
            print(f"  {m['name']:<18}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{ratio:>9.3f}{spread:>9.4f}{m['bound']:>7}{flag}")
        if args.trace:
            traced = run(bench, workload, seeds[0], trace=True)
            for name in ("throughput_qps", "latency_p50_ms"):
                delta = traced[f"trace.{name}"] / medians[name] - 1.0
                print(f"  tracing overhead on {name}: {delta:+.2%} (seed {seeds[0]})")
    print(f"\nlargest spread as a share of its bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
