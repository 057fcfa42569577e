#!/usr/bin/env python3
"""Summarise or compare benchmark results written by `run.py --out FILE`.

    python3 bench/compare.py RESULTS.jsonl            # spread of each metric
    python3 bench/compare.py BASE.jsonl NEW.jsonl     # median change vs bound

For every workload and end-to-end metric it prints the median and the
distance between the first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), next to the metric's bound from
BENCHMARK.json, and the same for the run averages, which have no bound.
Traced results show the median of each per-layer metric
and whether the call counts repeated exactly.

Two result sets are compared only if every result in both was measured
with the same BLAS thread setting; otherwise the script exits 2.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def grouped(records, trace):
    """workload -> metric -> list of values, over results of one trace mode."""
    out = defaultdict(lambda: defaultdict(list))
    for rec in records:
        if rec["trace"] == trace and not rec.get("smoke"):
            for name, metric in rec["metrics"].items():
                out[rec["workload"]][name].append(metric["value"])
            for name, value in rec.get("run_averages", {}).items():
                out[rec["workload"]][name].append(value)
    return out


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(records, bench):
    for workload, metrics in sorted(grouped(records, 0).items()):
        print(f"{workload}  (end to end)")
        print(f"  {'metric':<18} {'n':>3} {'median':>12} {'spread':>8} {'bound':>6}")
        gated = {spec["name"]: spec["bound"] for spec in bench["end_to_end"]}
        for name, values in metrics.items():
            s = spread(values)
            bound = gated.get(name)
            flag = ("  run average" if bound is None
                    else "" if name == "setup_s" or s < bound / 3 else "  > bound/3")
            print(f"  {name:<18} {len(values):>3} {statistics.median(values):>12.6g}"
                  f" {s:>8.3f} {bound or '-':>6}{flag}")
    for workload, metrics in sorted(grouped(records, 1).items()):
        print(f"{workload}  (traced)")
        for name, values in metrics.items():
            exact = ""
            if name.endswith(".calls") or name == "solvers.iters_to_tol.p50":
                exact = "  repeats" if len(set(values)) == 1 else "  VARIES"
            print(f"  {name:<44} {statistics.median(values):>14.6g}{exact}")


def blas_settings(records):
    return {rec["machine"]["blas_threads"] for rec in records}


def compare(base, new, bench):
    settings = blas_settings(base) | blas_settings(new)
    if len(settings) != 1:
        print(f"compare: results differ in BLAS thread setting {sorted(settings)}; "
              "rerun both with the same setting", file=sys.stderr)
        raise SystemExit(2)
    before, after = grouped(base, 0), grouped(new, 0)
    print(f"BLAS threads: {settings.pop()}")
    print(f"  {'workload':<16} {'metric':<18} {'base':>12} {'new':>12} {'worse by':>9} {'bound':>6}")
    worse = 0
    for workload in sorted(set(before) & set(after)):
        for spec in bench["end_to_end"]:
            b, a = before[workload].get(spec["name"]), after[workload].get(spec["name"])
            if not b or not a:
                continue
            mb, ma = statistics.median(b), statistics.median(a)
            # positive means worse, as a share of the base median
            change = (ma - mb) / mb if spec["better"] == "lower" else (mb - ma) / mb
            verdict = ""
            if change > spec["bound"]:
                verdict = "  WORSE"
                worse += 1
            print(f"  {workload:<16} {spec['name']:<18} {mb:>12.6g} {ma:>12.6g}"
                  f" {change:>+9.3f} {spec['bound']:>6}{verdict}")
    return 1 if worse else 0


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if len(argv) == 1:
        summarise(load(argv[0]), bench)
        return 0
    return compare(load(argv[0]), load(argv[1]), bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
