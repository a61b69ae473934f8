"""Decision probe: per-utterance decision time by segment count, and a hash
of the decisions.

For each training workload of the benchmark (`benchmarks/lctbench/
workloads.py`, imported read-only) it generates the workload's corpus at
`--seed`, extracts it, and trains once with the benchmark's settings and
split, as `train_once` does.  It then decides every utterance of the corpus
with the benchmark's own `workloads.decide`, the path its `utt_ms` metrics
time: `features.apply_norm`, `segmenter.split`, `cnn.forward_batch`,
`segmenter.aggregate`.  One untimed pass gives the decisions; `--passes`
timed passes follow.  It prints one JSON object with,
per workload:

- `ms_by_segments`: per segment count, the number of utterances with that
  count and the median and 90th percentile of their decision ms over the
  timed passes;
- `ms_p50`: the median over every timed decision;
- `decisions_sha256`: the sha256 of the decisions, in corpus order, as a
  JSON list.

    PYTHONPATH=src python3 tests/infer_probe.py --seed 0 --passes 20

Run as a script it takes one BLAS thread unless `OPENBLAS_NUM_THREADS` says
otherwise.  The file's name keeps pytest from collecting it.
"""

import os

if __name__ == "__main__":  # before numpy loads BLAS
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from lctid import corpus, experiments, segmenter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from lctbench import gen, workloads  # noqa: E402


def train(wl: workloads.Workload, manifest: corpus.CorpusManifest, seed: int):
    """The dataset and one `train_and_evaluate` run of `wl`, as the
    benchmark's `Trained`."""
    dataset = experiments.prepare_dataset(manifest, wl.featureset)
    train_idx, test_idx = experiments.stratified_holdout(
        dataset.labels, workloads.TEST_FRACTION, workloads.SPLIT_SEED)
    report, model, aux = experiments.train_and_evaluate(
        dataset, dataset.channel_ids, workloads._experiment_config(wl, seed),
        train_idx, test_idx)
    return dataset, workloads.Trained(report, model, aux, seconds=0.0)


def probe(dataset: experiments.Dataset, trained: workloads.Trained,
          passes: int) -> dict:
    """Decisions of every utterance, then their time over `passes` passes."""
    seg_len = trained.model.input_frames
    counts = [segmenter.segment_count(u.matrix.num_frames, seg_len)
              for u in dataset.utterances]
    decisions = [workloads.decide(trained, u, dataset.channel_ids)
                 for u in dataset.utterances]
    by_count: dict[int, list[float]] = {}
    for _ in range(passes):
        for u, count in zip(dataset.utterances, counts):
            t0 = time.perf_counter()
            workloads.decide(trained, u, dataset.channel_ids)
            by_count.setdefault(count, []).append(time.perf_counter() - t0)
    every = np.concatenate([np.asarray(t) for t in by_count.values()]) * 1e3
    return {
        "ms_by_segments": {
            str(count): {"utterances": len(times) // passes,
                         "ms_p50": round(float(np.median(times) * 1e3), 4),
                         "ms_p90": round(float(np.percentile(times, 90) * 1e3), 4)}
            for count, times in sorted(by_count.items())},
        "ms_p50": round(float(np.median(every)), 4),
        "decisions_sha256": hashlib.sha256(json.dumps(decisions).encode()).hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="corpus and training seed (default 0)")
    parser.add_argument("--passes", type=int, default=20,
                        help="timed passes over the corpus (default 20)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    result = {"seed": args.seed, "blas_threads": workloads.blas_threads(),
              "passes": args.passes, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        manifests: dict = {}
        for wl in workloads.WORKLOADS.values():
            if not wl.trains:
                continue
            if wl.recipe not in manifests:
                manifests[wl.recipe] = corpus.load_manifest(
                    gen.generate(wl.recipe, args.seed, Path(tmp) / wl.name))
            result["workloads"][wl.name] = probe(
                *train(wl, manifests[wl.recipe], args.seed), args.passes)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
