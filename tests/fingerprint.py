"""Same-results fingerprint: hashes and summaries of what the program computes.

Run it on two commits, then diff the two files; an empty diff shows that a
change kept the program's results, and a non-empty one says what moved:

    PYTHONPATH=src python3 tests/fingerprint.py --out new.json
    PYTHONPATH=<other checkout>/src python3 tests/fingerprint.py --out old.json
    PYTHONPATH=src python3 tests/fingerprint.py --diff old.json new.json

The file holds:
- the sha256 of every WAV of the default `synth_corpus` at seeds 0 and 7,
  and of each benchmark corpus (`benchmarks/lctbench/gen.py`, one per
  recipe: `extract_sweep`'s and `train_sgd_ca03`'s) at the same seeds;
- per utterance of those benchmark corpora, per channel of
  `extract_matrix(..., "all")`, a hash plus its mean, std, min and max;
- for each training workload's settings at seed 0 (as the benchmark's
  `train_once` runs them): per trainable layer, a hash of its parameters
  plus summaries, the per-epoch losses, the `EvalReport` and the sha256 of
  the saved `model.lct`.

The diff names each channel, layer or loss list that moved, with the max
absolute and relative change over its recorded numbers.  Run as a script,
it takes one BLAS thread unless `OPENBLAS_NUM_THREADS` says otherwise; BLAS
rounds differently on other CPUs and thread counts, so only files made on
one host compare.  The benchmark is imported read-only.  The file's name
keeps pytest from collecting it.
"""

import os

if __name__ == "__main__":  # before numpy loads BLAS
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from lctid import cnn, corpus, experiments, features

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from lctbench import gen, workloads  # noqa: E402

SEEDS = (0, 7)
SAMPLE = 16  # parameters recorded per layer, evenly spaced, beside the summaries


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _summary(values: np.ndarray) -> list[float]:
    v = np.asarray(values, dtype=np.float64)
    return [float(v.mean()), float(v.std()), float(v.min()), float(v.max())]


def wav_hashes(manifest: corpus.CorpusManifest) -> dict:
    return {r.id: _sha(Path(r.audio_path).read_bytes()) for r in manifest.records}


def extraction(manifest: corpus.CorpusManifest) -> dict:
    """Per utterance: its class, frame count, and per channel a hash plus
    the summary of `extract_matrix(..., "all")`."""
    out = {}
    for r in manifest.records:
        mat = features.extract_matrix(corpus.load_audio(r), "all", source_id=r.id)
        out[r.id] = {"dialect": r.dialect, "frames": mat.num_frames, "channels": {
            ch: {"sha256": _sha(np.ascontiguousarray(row).tobytes())[:16],
                 "summary": _summary(row)}
            for ch, row in zip(mat.channel_ids, mat.values)}}
    return out


def training(wl: workloads.Workload, manifest: corpus.CorpusManifest, seed: int,
             model_path: Path) -> dict:
    """One run of `wl`'s settings, split and config as the benchmark's."""
    dataset = experiments.prepare_dataset(manifest, wl.featureset)
    train_idx, test_idx = experiments.stratified_holdout(
        dataset.labels, workloads.TEST_FRACTION, workloads.SPLIT_SEED)
    report, model, aux = experiments.train_and_evaluate(
        dataset, dataset.channel_ids, workloads._experiment_config(wl, seed),
        train_idx, test_idx)
    layers: dict = {}
    kinds: list[str] = []
    for layer in model.trainable():  # named as the benchmark names them: conv0, dense1
        name = f"{layer.kind}{kinds.count(layer.kind)}"
        kinds.append(layer.kind)
        flat = np.concatenate([layer.weights.ravel(), layer.biases.ravel()])
        picks = np.linspace(0, flat.size - 1, SAMPLE).astype(int)
        layers[name] = {
            "sha256": _sha(layer.weights.tobytes() + layer.biases.tobytes())[:16],
            "summary": _summary(flat) + [float(v) for v in flat[picks]]}
    cnn.save(model, aux["norm"], model_path)
    return {"layers": layers, "losses": aux["history"], "report": report.to_dict(),
            "model_lct": _sha(model_path.read_bytes())}


def collect(work_dir: Path, loads=tuple(workloads.WORKLOADS.values()),
            synth: corpus.SynthSpec = corpus.SynthSpec(), seeds=SEEDS) -> dict:
    """The fingerprint of `loads` and `synth` at `seeds`; corpora go under
    `work_dir`.  Training runs at the first seed."""
    work_dir = Path(work_dir)
    out: dict = {"blas_threads": workloads.blas_threads(), "wavs": {},
                 "extraction": {}, "training": {}}
    for seed in seeds:
        spec = dataclasses.replace(synth, out_dir=str(work_dir / f"synth{seed}"))
        out["wavs"][f"synth_corpus/seed{seed}"] = wav_hashes(corpus.synth_corpus(spec, seed))
    manifests = {}
    for wl in loads:
        for seed in seeds:
            if (wl.recipe, seed) not in manifests:
                key = f"{wl.name}/seed{seed}"
                manifest = corpus.load_manifest(
                    gen.generate(wl.recipe, seed, work_dir / key))
                manifests[wl.recipe, seed] = manifest
                out["wavs"][key] = wav_hashes(manifest)
                out["extraction"][key] = extraction(manifest)
        if wl.trains:
            out["training"][wl.name] = training(
                wl, manifests[wl.recipe, seeds[0]], seeds[0],
                work_dir / f"{wl.name}.lct")
    return out


# ---------------------------------------------------------------------------
# Diff

def _change(a, b) -> str:
    """Max absolute and relative change between two equal-length lists."""
    x, y = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        return f"length {x.size} -> {y.size}"
    d = np.abs(x - y)
    scale = np.maximum(np.abs(x), np.abs(y))
    rel = np.divide(d, scale, out=np.zeros_like(d), where=scale > 0)
    return f"max abs {d.max(initial=0.0):.3g}, max rel {rel.max(initial=0.0):.3g}"


_ABSENT = {"sha256": None, "summary": []}  # a channel or layer in one file only


def _diff_wavs(key: str, wa: dict, wb: dict) -> list[str]:
    changed = [u for u in wa.keys() | wb.keys() if wa.get(u) != wb.get(u)]
    return [f"wavs {key}: {len(changed)} of {len(wa)} files moved"] if changed else []


def _diff_extraction(key: str, ua: dict, ub: dict) -> list[str]:
    lines = []
    moved: dict[str, tuple[int, list, list]] = {}
    for uid in sorted(ua.keys() | ub.keys()):
        ha, hb = ((u.get(uid, {}).get("dialect"), u.get(uid, {}).get("frames"))
                  for u in (ua, ub))
        if ha != hb:
            lines.append(f"extraction {key} {uid}: (dialect, frames) {ha} -> {hb}")
            continue
        ca, cb = ua[uid]["channels"], ub[uid]["channels"]
        for ch in sorted(ca.keys() | cb.keys()):
            xa, xb = (c.get(ch, _ABSENT) for c in (ca, cb))
            if xa["sha256"] != xb["sha256"]:
                n, sa, sb = moved.get(ch, (0, [], []))
                moved[ch] = (n + 1, sa + xa["summary"], sb + xb["summary"])
    return lines + [f"extraction {key} {ch}: {n} of {len(ua)} utterances moved, "
                    f"{_change(sa, sb)}" for ch, (n, sa, sb) in moved.items()]


def _diff_training(name: str, ta: dict, tb: dict) -> list[str]:
    lines = []
    for layer in sorted(ta["layers"].keys() | tb["layers"].keys()):
        la, lb = (t["layers"].get(layer, _ABSENT) for t in (ta, tb))
        if la["sha256"] != lb["sha256"]:
            lines.append(f"training {name} {layer}: moved, "
                         f"{_change(la['summary'], lb['summary'])}")
    for kind in sorted(ta["losses"].keys() | tb["losses"].keys()):
        la, lb = (t["losses"].get(kind, []) for t in (ta, tb))
        if la != lb:
            lines.append(f"training {name} {kind}: moved, {_change(la, lb)}")
    if ta["report"] != tb["report"]:
        lines.append(f"training {name} report: {json.dumps(ta['report'])} -> "
                     f"{json.dumps(tb['report'])}")
    if ta["model_lct"] != tb["model_lct"]:
        lines.append(f"training {name} model.lct: moved")
    return lines


def diff(a: dict, b: dict) -> list[str]:
    """What moved from fingerprint `a` to `b`, one line per wav set,
    channel, layer, loss list or report; empty when nothing moved."""
    lines = []
    if a["blas_threads"] != b["blas_threads"]:
        lines.append(f"blas_threads: {a['blas_threads']} -> {b['blas_threads']}")
    for section, diff_one in (("wavs", _diff_wavs), ("extraction", _diff_extraction),
                              ("training", _diff_training)):
        sa, sb = a[section], b[section]
        lines += [f"{section} {k}: only in {'A' if k in sa else 'B'}"
                  for k in sorted(sa.keys() ^ sb.keys())]
        for key in sa:
            if key in sb:
                lines += diff_one(key, sa[key], sb[key])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the fingerprint here (default: stdout)")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="print what moved from A to B; exit 1 if anything did")
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(Path(p).read_text()) for p in args.diff)
        lines = diff(a, b)
        for line in lines:
            print(line)
        return 1 if lines else 0
    with tempfile.TemporaryDirectory() as tmp:
        result = collect(Path(tmp))
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
