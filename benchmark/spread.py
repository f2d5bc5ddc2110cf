#!/usr/bin/env python3
"""Run the benchmark over seeds and report each metric's run-to-run spread.

Runs each workload once per seed and, for every metric, prints its unit,
the median over the runs and the distance between the first and third
quartile as a share of that median, beside a third of the metric's
bound from BENCHMARK.json. Any run that fails a correctness gate or an
operation, or that leaves out a metric BENCHMARK.json lists for its
trace setting, stops the script. Run from the repository root:

    python3 benchmark/spread.py --workload fullchip --seeds 1-10
    python3 benchmark/spread.py --workload all --seeds 1     # every workload once
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench, workload, seed, seconds, trace):
    section = "per_layer" if trace == "1" else "end_to_end"
    want = [m["name"] for m in bench[section]]
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", trace,
    ]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    missing = [n for n in want if n not in result["metrics"]]
    extra = [n for n in result["metrics"] if n not in want]
    if missing or extra:
        sys.exit(f"{workload} seed {seed}: {section} metrics missing {missing}, extra {extra}")
    print(f"{workload} seed {seed}: {time.time() - t0:.1f} s wall, "
          f"{result['attempted']} operations attempted", file=sys.stderr)
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    ok = True
    for workload in workloads:
        values, units = {}, {}
        for seed in seeds(args.seeds):
            for name, m in run(bench, workload, seed, seconds, args.trace).items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            b = bounds.get(name)
            limit = b["bound"] / 3 if b and args.trace == "0" else None
            flag = ""
            if limit is not None and spread > limit:
                flag, ok = "  WIDE", False
            lim = f"{limit:.3f}" if limit is not None else "-"
            print(f"{workload:<12} {name:<36} {med:>14.6g} {units[name]:<8} "
                  f"spread {spread:6.3f}  bound/3 {lim}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
