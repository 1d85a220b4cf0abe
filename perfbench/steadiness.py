#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload and reports, for every end-to-end metric, the median of the runs
and the quartile spread: (Q3 - Q1) / median, with the quartiles taken by
statistics.quantiles(values, n=4). A metric is steady when its spread is
within its bound (setup_s included); the target is a third of the bound.

With --compare, reads two summaries written by --out and prints, for every
workload and metric, how far the second median lies from the first in
either direction, |median2 - median1| / median1, against the bound: two
sets of runs of the same code agree when every such distance is within it.

Usage, from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads oneshot,serve-hot] [--out summary.json]
    python3 perfbench/steadiness.py --compare set1.json set2.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correct={result['correct']} "
                         f"failed={result['failed']}")
    return result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def compare(first_path, second_path):
    with open(first_path) as f:
        first = json.load(f)["workloads"]
    with open(second_path) as f:
        second = json.load(f)["workloads"]
    agree = True
    for workload, rows in first.items():
        if workload not in second:
            continue
        for name, row in rows["metrics"].items():
            m1, m2 = row["median"], second[workload]["metrics"][name]["median"]
            dist = abs(m2 - m1) / m1 if m1 else float("inf")
            ok = dist <= row["bound"]
            agree &= ok
            print(f"  {workload:<11} {name:<18} median {m1:>12.6g} -> {m2:>12.6g} "
                  f"distance {dist:7.4f}  bound {row['bound']:.3f}"
                  f"{'' if ok else '  APART'}")
    return 0 if agree else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", nargs=2, metavar=("SET1", "SET2"))
    opts = parser.parse_args()
    if opts.compare:
        return compare(*opts.compare)

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = [w for w in opts.workloads.split(",") if w in workloads]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"runs": opts.runs, "first_seed": opts.first_seed,
               "seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for k in range(opts.runs):
            seed = opts.first_seed + k
            result, wall = run_once(bench["command"], workload, seed, bench["run_seconds"])
            walls.append(wall)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s "
                  + " ".join(f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)
        rows = {}
        for name, bound in bounds.items():
            s = spread(values[name])
            ok = s <= bound
            steady &= ok
            rows[name] = {"median": statistics.median(values[name]), "spread": s,
                          "bound": bound, "values": values[name]}
            print(f"  {workload:<11} {name:<16} median {statistics.median(values[name]):>12.6g} "
                  f"spread {s:7.4f}  bound {bound:.3f} (third {bound / 3:.4f})"
                  f"{'' if ok else '  OVER BOUND'}")
        summary["workloads"][workload] = {"metrics": rows,
                                          "wall_s_median": statistics.median(walls)}
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
