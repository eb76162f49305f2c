#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and end-to-end metric this prints the median of the
runs, the distance between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)), the metric's bound from
BENCHMARK.json, and whether the spread is within a third of that bound.

    python3 perfbench/steadiness.py --runs 10 [--workload NAME ...] [--trace]
        [--seed-base N] [--json OUT]

Run it from the repository root; it invokes the command BENCHMARK.json
names, with the arguments every benchmark run takes.  --json also keeps
each run's stamp line (raw timings, host speed, counts).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    stamp = json.loads(lines[-2])["stamp"] if len(lines) > 1 else {}
    return result, stamp, elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if opts.trace else bench["end_to_end"]
    summary = {}
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        walls, stamps, failures = [], [], 0
        for i in range(opts.runs):
            seed = opts.seed_base + i
            result, stamp, wall = run_once(bench["command"], workload, seed,
                                           bench["run_seconds"], opts.trace)
            walls.append(wall)
            stamps.append(stamp)
            failures += result["failed"] + (0 if result["correct"] else 1)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        print(f"{workload}: {opts.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s,"
              f" failures {failures}")
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            ok = None if bound is None else spread < bound / 3
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": bound, "within_third_of_bound": ok,
                               "values": vals}
            flag = "" if ok is None else ("ok" if ok else "WIDE")
            print(f"  {m['name']:<28} median {med:<14.6g} spread {spread:7.4f}"
                  f"  bound {bound if bound is not None else '-':<5} {flag}")
        summary[workload] = {"runs": opts.runs, "failures": failures, "metrics": rows,
                             "walls": walls, "stamps": stamps}
    if opts.json:
        with open(opts.json, "w") as f:
            json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
