"""Extraction cost probe: time, fresh-page faults and traced peak of `all`.

Generates the `extract_sweep` benchmark corpus (`benchmarks/lctbench/gen.py`,
imported read-only) in a temporary directory, decodes every utterance once,
warms the program's caches with one pass, and then runs `extract_matrix(...,
"all")` over the corpus `--passes` times.  It prints one JSON object:

- `ms_per_utt`: wall time per extraction over the timed passes;
- `minor_faults_per_utt`: minor page faults (`getrusage().ru_minflt`) per
  extraction over the same passes, the pages the allocator handed back to
  the OS and took again;
- `traced_peak_mb`: the `tracemalloc` peak of one extraction of the corpus's
  longest utterance (first of the ties);
- `import_rss_mb`: the process's peak resident set (`ru_maxrss`) just after
  `lctid` is imported, before the benchmark's modules;
- `peak_rss_mb`: the same at the end, as the benchmark's `peak_rss_mb`
  reads it;
- `scipy_loaded`: whether any `scipy` module was loaded by then.

    PYTHONPATH=src python3 tests/extract_probe.py --seed 0 --passes 5

Run as a script it takes one BLAS thread unless `OPENBLAS_NUM_THREADS` says
otherwise.  The file's name keeps pytest from collecting it.
"""

import os

if __name__ == "__main__":  # before numpy loads BLAS
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from lctid import corpus, features

IMPORT_RSS_MB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from lctbench import gen, workloads  # noqa: E402

FEATURESET = "all"


def probe(waveforms: list, passes: int) -> dict:
    """Cost of extracting every waveform `passes` times, after one warm pass."""
    for w in waveforms:
        features.extract_matrix(w, FEATURESET)
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    for _ in range(passes):
        for w in waveforms:
            features.extract_matrix(w, FEATURESET)
    elapsed = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
    n = passes * len(waveforms)

    longest = max(waveforms, key=lambda w: w.samples.size)
    tracemalloc.start()
    features.extract_matrix(longest, FEATURESET)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"utterances": len(waveforms), "passes": passes,
            "ms_per_utt": round(1000.0 * elapsed / n, 3),
            "minor_faults_per_utt": round(faults / n, 1),
            "traced_peak_mb": round(peak / 1e6, 3),
            "traced_peak_audio_s": longest.duration_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    parser.add_argument("--passes", type=int, default=5,
                        help="timed passes over the corpus (default 5)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    recipe = workloads.WORKLOADS["extract_sweep"].recipe
    with tempfile.TemporaryDirectory() as tmp:
        manifest = corpus.load_manifest(gen.generate(recipe, args.seed, Path(tmp)))
        waveforms = [corpus.load_audio(r) for r in manifest.records]
    result = {"seed": args.seed, "blas_threads": workloads.blas_threads(),
              **probe(waveforms, args.passes),
              "import_rss_mb": round(IMPORT_RSS_MB, 2),
              "peak_rss_mb": round(workloads.peak_rss_mb(), 2),
              "scipy_loaded": "scipy" in sys.modules}  # any submodule loads it
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
