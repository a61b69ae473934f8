"""Alternating-pairs benchmark of a base revision against the working tree.

    python3 tests/ab.py --workload extract_sweep --pairs 10 --seed 0 --seconds 25

`git archive`s the base revision (`--base`, default HEAD) into a temporary
directory and runs that tree's own `benchmarks/run.py` there; the change side
runs the working tree's `benchmarks/run.py`.  Each `run.py` puts its own
tree's `src` first on `sys.path`, so each side runs its own program.  The
tool refuses to run unless `benchmarks/` and `BENCHMARK.json` are the same in
the base and the working tree, so both sides run one harness.  Each pair runs
both sides once, one after the other; the base goes first in even pairs and
the change first in odd ones.

It writes `BENCH_<workload>.json` at the repository root with the base
commit and the working tree's HEAD (and whether it has uncommitted changes),
the seed, the seconds, `nproc` and the numpy version, and per end-to-end
metric of BENCHMARK.json and per side every value, the median and the first
and third quartiles (`statistics.quantiles(values, n=4)`, as
`benchmarks/summarize.py` takes them), plus the median of the per-pair ratios
change / base and the number of pairs in which the change did better, in the
metric's `better` direction; and per side the failed and attempted
operations.  The file's name keeps pytest from collecting it.
"""

import argparse
import importlib.metadata
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def benchmark() -> dict:
    """BENCHMARK.json: its workloads and end-to-end metrics (name, unit,
    better, bound)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True)


def _spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3}


def aggregate(pairs: list[dict], metrics: list[dict]) -> dict:
    """Sum up the pairs, each {"base": record, "change": record} with a
    record the last line `run.py` prints (`attempted`, `failed` and
    `metrics`: name -> {"value", "unit"}).

    Raises ValueError unless every record's metric names are exactly the
    names of `metrics`.
    """
    names = [m["name"] for m in metrics]
    for pair in pairs:
        for side in SIDES:
            if sorted(pair[side]["metrics"]) != sorted(names):
                raise ValueError(f"{side} record has metrics {sorted(pair[side]['metrics'])}, "
                                 f"not BENCHMARK.json's {sorted(names)}")
    out = {"metrics": {}, "operations": {}}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        ratios = [c / b for b, c in zip(values["base"], values["change"]) if b]
        wins = sum(c > b if higher else c < b
                   for b, c in zip(values["base"], values["change"]))
        out["metrics"][name] = {
            "unit": m["unit"], "better": m["better"],
            **{side: _spread(values[side]) for side in SIDES},
            "median_pair_ratio": statistics.median(ratios) if ratios else None,
            "change_wins": wins,
        }
    for side in SIDES:
        out["operations"][side] = {
            "attempted": sum(p[side]["attempted"] for p in pairs),
            "failed": sum(p[side]["failed"] for p in pairs)}
    return out


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of `root`'s own `benchmarks/run.py`: its last output line."""
    cmd = [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: an operation failed, still a record
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    parser.add_argument("--workload", required=True,
                        help="one of BENCHMARK.json's workloads")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured time per run (default 25)")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    bench = benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    base = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    if base.returncode:
        parser.error(f"--base {args.base} is not a commit")
    if _git("diff", "--quiet", args.base, "--", "benchmarks", "BENCHMARK.json").returncode:
        print(f"benchmarks/ or BENCHMARK.json differ from {args.base}: the two sides "
              "would not run one harness", file=sys.stderr)
        return 2

    pairs = []
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        archive = _git("archive", "--format=tar", args.base).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        roots = {"base": Path(tmp), "change": ROOT}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                pair[side] = run_side(roots[side], args.workload, args.seed, args.seconds)
                thr = pair[side]["metrics"]["throughput"]["value"]
                print(f"pair {i + 1}/{args.pairs} {side:<6} throughput {thr:.4g}",
                      file=sys.stderr, flush=True)
            pairs.append({**pair, "first": order[0]})

    report = {
        "workload": args.workload,
        "base": {"rev": args.base, "commit": base.stdout.decode().strip()},
        "change": {"head": _git("rev-parse", "HEAD").stdout.decode().strip(),
                   "uncommitted_changes": bool(
                       _git("status", "--porcelain", "--untracked-files=no").stdout)},
        "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
        "first_per_pair": [p["first"] for p in pairs],
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": importlib.metadata.version("numpy"),
        **aggregate(pairs, bench["end_to_end"]),
    }
    path = ROOT / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    for name, m in report["metrics"].items():
        print(f"{name:<12} base {m['base']['median']:.5g}  change {m['change']['median']:.5g}"
              f"  pair ratio {m['median_pair_ratio']}  change better in "
              f"{m['change_wins']}/{args.pairs}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
