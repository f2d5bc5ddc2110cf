#!/usr/bin/env python3
"""Compare two sets of benchmark records, e.g. a parent commit and a change.

Each side is a directory of records (`.bench_results/*.json`, as written
by the benchmark) or a single record file. Records are compared only when
their provenance agrees on everything but the commit and source digest:
CPU model, logical cores, rustc version, cargo features and build profile.
Otherwise the comparison is refused (exit 2).

For every workload and metric both sides report, prints each side's
median over its records and the change as a share of the first side's
median, flagged against the metric's bound from BENCHMARK.json when it is
an end-to-end metric.

    python3 benchmark/compare.py parent-results/ change-results/
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPARABLE = ("cpu_model", "logical_cores", "rustc", "features", "profile")


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    records = []
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if r.get("schema") == "tn-e2ebench/v1":
            records.append(r)
    if not records:
        sys.exit(f"no benchmark records in {path}")
    return records


def provenance_key(r):
    p = r["provenance"]
    return tuple(json.dumps(p[k], sort_keys=True) for k in COMPARABLE)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = load(sys.argv[1]), load(sys.argv[2])
    keys = {provenance_key(r) for r in a + b}
    if len(keys) != 1:
        print("refused: the records' provenance differs:", file=sys.stderr)
        for k in sorted(keys):
            print("  " + ", ".join(f"{n}={v}" for n, v in zip(COMPARABLE, k)), file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for r in a + b:
        if not r["correct"]:
            print(f"warning: {r['workload']} seed {r['seed']} failed a correctness gate", file=sys.stderr)
        for g in r["gates"]:
            if g["verdict"] == "unchecked":
                print(f"warning: {r['workload']} seed {r['seed']}: gate {g['name']} unchecked", file=sys.stderr)

    def medians(records):
        out = {}
        for r in records:
            for name, m in r["metrics"].items():
                out.setdefault((r["workload"], r["trace"], name), []).append(m["value"])
        return {k: statistics.median(v) for k, v in out.items()}

    ma, mb = medians(a), medians(b)
    worse = False
    for key in sorted(ma.keys() & mb.keys()):
        workload, traced, name = key
        va, vb = ma[key], mb[key]
        change = (vb - va) / va if va else float("nan")
        flag = ""
        bound = bounds.get(name)
        if bound and not traced:
            regress = change if bound["better"] == "lower" else -change
            if regress > bound["bound"]:
                flag, worse = "  WORSE THAN BOUND", True
        print(f"{workload:<12} {name:<36} {va:>14.6g} -> {vb:>14.6g}  {change:+8.2%}{flag}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
