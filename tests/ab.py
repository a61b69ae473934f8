"""Alternating-pairs benchmark of a base revision against the working tree.

    python3 tests/ab.py --workload extract_sweep --pairs 10 --seed 0 --seconds 25

`git archive`s the base revision (`--base`, default HEAD) into a temporary
directory and runs that tree's own `benchmarks/run.py` there; the change side
runs the working tree's `benchmarks/run.py`.  Each `run.py` puts its own
tree's `src` first on `sys.path`, so each side runs its own program.  The
tool refuses to run unless `benchmarks/` and `BENCHMARK.json` are the same in
the base and the working tree, so both sides run one harness.  Each pair runs
both sides once, one after the other; the base goes first in even pairs and
the change first in odd ones.  Before each run a fresh process times a fixed
host probe (`PROBE`: a pure-Python loop, and a float32 gemm at one BLAS
thread), so a move of the host's speed shows beside the run it slowed.

It writes `BENCH_<workload>.json` at the repository root with the base
commit and the working tree's HEAD (and whether it has uncommitted changes),
the seed, the seconds, `nproc`, the CPU model and the numpy version, and per
end-to-end metric of BENCHMARK.json and per side every value, the median and
the first and third quartiles (`statistics.quantiles(values, n=4)`, as
`benchmarks/summarize.py` takes them), plus the median of the per-pair ratios
change / base and the number of pairs in which the change did better, in the
metric's `better` direction; per side the failed and attempted operations,
and every probe time with its spread.  The probe times are a record of the
host beside each run, not a correction: one probe before a 25 s run samples
the host at one instant, and in A/A runs pair ratios divided by the probe
ratio spread wider than the raw ones.
When the working tree's `src/` equals the base's, both sides run one
program, and the file is `BENCH_AA_<workload>.json`: an A/A run, the spread
of the same code on this host, which a base-against-change run does not
overwrite.  The file's name keeps pytest from collecting it.
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

# The host probe, run as `python -c` in a fresh process at one BLAS thread:
# the median of 5 timings each of a pure-Python loop and a 256 x 256 float32
# gemm, printed as JSON.  Fixed, so its times compare across runs and revisions.
PROBE = """
import json, statistics, time
import numpy as np
def loop():
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
a = np.random.default_rng(0).standard_normal((256, 256)).astype(np.float32)
def gemm():
    for _ in range(100):
        a @ a
def median_s(fn):
    fn()
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
print(json.dumps({"python_s": median_s(loop), "gemm_s": median_s(gemm)}))
"""
PROBE_KEYS = ("python_s", "gemm_s")


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


def probe_host() -> dict:
    """`PROBE`'s times in a fresh process: {"python_s", "gemm_s"}."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def cpu_model() -> str | None:
    """The first `model name` of /proc/cpuinfo, or None where there is none."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return None
    return next((ln.split(":", 1)[1].strip() for ln in lines
                 if ln.startswith("model name")), None)


def _probe_s(record: dict) -> float:
    return sum(record["probe"][k] for k in PROBE_KEYS)


def aggregate(pairs: list[dict], metrics: list[dict]) -> dict:
    """Sum up the pairs, each {"base": record, "change": record} with a
    record the last line `run.py` prints (`attempted`, `failed` and
    `metrics`: name -> {"value", "unit"}) and, when every record of every
    pair has one, `probe`: the `probe_host()` times taken before its run.

    Raises ValueError unless every record's metric names are exactly the
    names of `metrics`.
    """
    names = [m["name"] for m in metrics]
    for pair in pairs:
        for side in SIDES:
            if sorted(pair[side]["metrics"]) != sorted(names):
                raise ValueError(f"{side} record has metrics {sorted(pair[side]['metrics'])}, "
                                 f"not BENCHMARK.json's {sorted(names)}")
    probed = all("probe" in p[side] for p in pairs for side in SIDES)
    out = {"metrics": {}, "operations": {}}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        ratios = [c / b if b else None for b, c in zip(values["base"], values["change"])]
        known = [r for r in ratios if r is not None]
        wins = sum(c > b if higher else c < b
                   for b, c in zip(values["base"], values["change"]))
        out["metrics"][name] = {
            "unit": m["unit"], "better": m["better"],
            **{side: _spread(values[side]) for side in SIDES},
            "median_pair_ratio": statistics.median(known) if known else None,
            "change_wins": wins,
        }
    for side in SIDES:
        out["operations"][side] = {
            "attempted": sum(p[side]["attempted"] for p in pairs),
            "failed": sum(p[side]["failed"] for p in pairs)}
    if probed:
        out["probe"] = {side: {k: _spread([p[side]["probe"][k] for p in pairs])
                               for k in PROBE_KEYS} for side in SIDES}
        out["probe"]["median_pair_ratio"] = statistics.median(
            _probe_s(p["change"]) / _probe_s(p["base"]) for p in pairs)
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

    same_src = not (_git("diff", "--quiet", args.base, "--", "src").returncode
                    or _git("ls-files", "--others", "--exclude-standard", "--", "src").stdout)

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
                probe = probe_host()
                pair[side] = {**run_side(roots[side], args.workload, args.seed, args.seconds),
                              "probe": probe}
                thr = pair[side]["metrics"]["throughput"]["value"]
                print(f"pair {i + 1}/{args.pairs} {side:<6} throughput {thr:.4g}  probe "
                      f"{probe['python_s'] * 1e3:.1f} + {probe['gemm_s'] * 1e3:.1f} ms",
                      file=sys.stderr, flush=True)
            pairs.append({**pair, "first": order[0]})

    report = {
        "workload": args.workload,
        "base": {"rev": args.base, "commit": base.stdout.decode().strip()},
        "change": {"head": _git("rev-parse", "HEAD").stdout.decode().strip(),
                   "uncommitted_changes": bool(
                       _git("status", "--porcelain", "--untracked-files=no").stdout)},
        "same_src": same_src,
        "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
        "first_per_pair": [p["first"] for p in pairs],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "numpy": importlib.metadata.version("numpy"),
        **aggregate(pairs, bench["end_to_end"]),
    }
    path = ROOT / f"BENCH_{'AA_' if same_src else ''}{args.workload}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    for name, m in report["metrics"].items():
        print(f"{name:<12} base {m['base']['median']:.5g}  change {m['change']['median']:.5g}"
              f"  pair ratio {m['median_pair_ratio']}  change better in "
              f"{m['change_wins']}/{args.pairs}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
