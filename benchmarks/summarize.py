#!/usr/bin/env python3
"""Median and quartiles of benchmark results over seeds.

    python3 benchmarks/summarize.py [--json] [--trace 0|1] [RESULT_DIR]

reads the run records that `run.py` left in RESULT_DIR (default
`.bench_out/results`) and prints, per workload and metric, the median, the
first and third quartile (`statistics.quantiles(values, n=4)`), the spread
(q3 - q1) / median and the number of runs.  A change that claims a gain
quotes this table for the parent and for the change, measured on the same
machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(result_dir: Path, trace: int) -> dict:
    values: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(result_dir.glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text())
        metrics = record["per_layer"] if trace else record["end_to_end"]
        for name, value in metrics.items():
            values[record["workload"]][name].append(value)
    out: dict = {}
    for workload, metrics in values.items():
        out[workload] = {}
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            out[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / med if med else 0.0,
                                   "runs": len(vals)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("result_dir", nargs="?", default=str(ROOT / ".bench_out" / "results"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", action="store_true", help="print JSON instead of a table")
    args = parser.parse_args(argv)
    table = summarize(Path(args.result_dir), args.trace)
    if args.json:
        print(json.dumps(table, indent=1))
        return 0
    print(f"{'workload':<18} {'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} runs")
    for workload, metrics in table.items():
        for name, s in metrics.items():
            print(f"{workload:<18} {name:<44} {s['median']:12.5g} {s['q1']:12.5g} "
                  f"{s['q3']:12.5g} {s['spread']:7.3f} {s['runs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
