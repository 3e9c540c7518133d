#!/usr/bin/env python3
"""Steadiness report: run one workload of the benchmark several times, each
with another seed, and print every metric's median, quartiles and spread
(the quartile distance as a share of the median), plus each run's
host calibration time.

Run from the root of the repository:

    python3 perfbench/steady.py --workload search --runs 10
    python3 perfbench/steady.py --workload serve-mix --runs 5 --trace 1

The command, run length and bounds come from BENCHMARK.json. A spread
above a third of its metric's bound is flagged; set-up time is reported
but, as in the acceptance rule, not held to its bound.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    calib = re.search(r"host\.calib_ms start=([\d.]+) end=([\d.]+)", proc.stderr)
    work = [line for line in proc.stdout.splitlines() if line.startswith("work ")]
    return result, calib.groups() if calib else ("?", "?"), work


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    shares = []
    for k in range(args.runs):
        seed = args.first_seed + k
        result, (c0, c1), _ = run_once(spec["command"], args.workload, seed,
                                       args.seconds, args.trace)
        shares.append(result["failed"] / result["attempted"])
        figures = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
        print(f"run seed={seed} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} host.calib_ms start={c0} end={c1} {figures}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])

    print(f"\n{args.workload}: {args.runs} runs, failed share {sorted(set(shares))}")
    print(f"{'metric':<30} {'unit':<6} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, (unit, vals) in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        shown = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:<30} {unit:<6} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} {spread:>8.4f} {shown:>6}{flag}")


if __name__ == "__main__":
    main()
