#!/usr/bin/env python3
"""Seeded benchmark of the lctid pipeline.

    python3 benchmarks/run.py --workload extract_sweep --seed 1 --seconds 25 --trace 0

runs one workload in this process.  It prints the workload's metrics by name,
unit and sample count, then as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The exit code is 1 when an operation or output check failed.

Without `--workload` every workload runs, each in its own process, and one
table of all their metrics is printed.

Inputs are generated from the seed under `.bench_out/` at the repository
root and removed afterwards; the full result of each run is kept in
`.bench_out/results/<workload>-seed<seed>-trace<0|1>.json`, and the spans of
a traced run in `...-spans.jsonl` beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

# One BLAS thread: on a two-core host a second BLAS thread made CA01 training
# throughput swing 21 % between runs (IQR over median) against 8 % with one,
# for about 10 % more speed.  Set before anything imports numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("extract_sweep", "train_sgd_ca03", "train_batch_ca01")


def named_metrics(record: dict) -> list[tuple[str, float, str, str]]:
    """The workload's end-to-end metrics under their own names: (name, value, unit, n)."""
    e2e, n = record["end_to_end"], record["samples"]
    trains = record["workload"] != "extract_sweep"
    thr, lat = ("train_seg_per_s", "infer_ms") if trains else ("extract_rtf", "extract_ms")
    thr_unit = "seg/s" if trains else "x"
    thr_n = f"{n['throughput']} training runs" if trains else f"{n['throughput']} utterances"
    attempted = record["attempted"]
    return [
        (thr, e2e["throughput"], thr_unit, thr_n),
        (f"{lat}_p50", e2e["utt_ms_p50"], "ms", f"{n['utt_ms']} utterances"),
        (f"{lat}_p90", e2e["utt_ms_p90"], "ms", f"{n['utt_ms']} utterances"),
        ("setup_s", e2e["setup_s"], "s", f"median of {n['setup_s']} set-ups"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "1 process"),
        ("error_rate", record["failed"] / attempted if attempted else 0.0, "ratio",
         f"{attempted} operations"),
    ]


def print_record(record: dict) -> None:
    inp = record["inputs"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']:g}  trace {record['trace']}")
    print(f"  inputs: {inp['utterances']} utterances, {inp['audio_s']:.1f} s audio, "
          f"{inp['low_f0_voices']} low-F0 voices ({inp['low_f0_hz'][0]:g}-"
          f"{inp['low_f0_hz'][1]:g} Hz), input_frames {inp['input_frames']}, "
          f"nproc {inp['nproc']}, numpy {inp['numpy']}, BLAS threads {inp['blas_threads']}")
    for name, value, unit, n in named_metrics(record):
        print(f"  {name:<18} {value:12.4f} {unit:<6} n={n}")
    if record["trace"]:
        print("  per-layer (traced pass; cnn.gflops_per_s is computed from layer shapes):")
        for name, value in record["per_layer"].items():
            print(f"    {name:<44} {value:.6g}")
    for err in record["errors"]:
        print(f"  FAILED {err}")


def run_one(args) -> int:
    from lctbench import workloads

    wl = workloads.WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    work_dir = OUT / f"work-{wl.name}-{os.getpid()}"
    try:
        record = workloads.run(wl, args.seed, args.seconds, bool(args.trace), work_dir,
                               spans_path=results / f"{tag}-spans.jsonl" if args.trace else None)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print_record(record)
    if args.trace:
        units = workloads.PER_LAYER
        values = record["per_layer"]
    else:
        units = workloads.END_TO_END
        values = record["end_to_end"]
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k][0]} for k in units},
    }))
    return 0 if record["failed"] == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of their metrics."""
    worst = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        worst = max(worst, proc.returncode)
        path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        if proc.returncode in (0, 1) and path.is_file():
            rows += [(name, *m) for m in named_metrics(json.loads(path.read_text()))]
    print(f"\n{'workload':<18} {'metric':<18} {'value':>12} {'unit':<6} n")
    for wl, metric, value, unit, n in rows:
        print(f"{wl:<18} {metric:<18} {value:12.4f} {unit:<6} {n}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lctid" / "__init__.py").is_file():
        print(f"lctid sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
