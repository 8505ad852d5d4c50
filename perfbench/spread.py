#!/usr/bin/env python3
"""Measures how steady the benchmark is: runs one workload on several seeds
and reports, per end-to-end metric, the median and the quartile spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload books --runs 10 [--first-seed 1]

A metric is steady when its spread stays below a third of its bound
(setup_s is exempt from the spread rule). Each run goes through run.py, so
this measures exactly what a benchmark run reports.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def relative_spread(values):
    """(q3 - q1) / median, with the quartiles of statistics.quantiles(n=4)
    (its default exclusive method); 0 when the median is 0."""
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--trace", "0"]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, cwd=str(ROOT))
        if proc.returncode != 0:
            print(f"seed {seed}: run failed with code {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])

    steady = True
    print(f"\n{args.workload}, {args.runs} seeds:")
    print(f"  {'metric':22s} {'median':>14s} {'spread':>8s} {'bound/3':>8s}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        spread = relative_spread(v)
        ok = m["name"] == "setup_s" or spread < m["bound"] / 3
        steady &= ok
        print(f"  {m['name']:22s} {med:14.6g} {spread:8.4f} {m['bound'] / 3:8.4f}"
              f"{'' if ok else '  <- too wide'}")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
