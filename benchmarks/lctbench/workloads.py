"""The benchmark's workloads, their output checks and their metrics.

Every workload runs in one process, one closed-loop client, driving the
program only through its public modules.  End-to-end metrics are measured
with tracing off; a traced run (`trace=True`) measures again, then repeats a
fixed amount of work under the span wrappers and reports per-layer metrics
plus the tracing overhead (traced minus untraced).
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lctid import cnn, corpus, experiments, features, pitch, segmenter

from . import gen
from .tracing import Tracer, install_program_spans

# Set-up repeats until both are reached; setup_s is their median.  A set-up
# of half a second sits inside one speed phase of a shared host, so the
# repeats are spread over several seconds.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 6.0
TRAIN_SHARE = 0.7          # share of the measured time given to training runs
MIN_LATENCY_SAMPLES = 100  # a p90 needs at least ten samples beyond it
TEST_FRACTION = 0.5        # a large test set costs little and steadies accuracy
# The held-out split does not follow the workload seed: with the fixed duration
# grid it keeps the first-quartile segment length, and so the network's input
# shape, the same for every seed.  Training throughput moved by up to 20 %
# with a 3 % change of input length.
SPLIT_SEED = 0

DUR_WIDE = tuple(1.0 + 0.125 * i for i in range(16))    # 1.0 .. 2.875 s
DUR_NARROW = tuple(1.6 + 0.05 * i for i in range(16))   # 1.6 .. 2.35 s

FAMILIES = {
    "prosodic": ("F0", "ENERGY", "VPROB"),
    "voice_quality": ("JITTER", "DJITTER", "SHIMMER", "HNR"),
    "spectral": ("SFLUX", "SHARP"),
    "temporal": ("ZCR",),
    "mfcc": tuple(f"MFCC_{i}" for i in range(13)),
}

# name -> (unit, better); the same list as BENCHMARK.json
END_TO_END = {
    "throughput": ("1/s", "higher"),
    "utt_ms_p50": ("ms", "lower"),
    "utt_ms_p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _per_layer_names() -> dict[str, tuple[str, str]]:
    m = {
        "corpus.read_wav.s": ("s", "lower"),
        "corpus.read_wav.calls": ("count", "lower"),
        "dsp.frame_signal.s": ("s", "lower"),
        "dsp.magnitude_spectra.s": ("s", "lower"),
        "dsp.magnitude_spectra.rows": ("count", "lower"),
        "pitch.shs_batch.s": ("s", "lower"),
        "pitch.shs_batch.frames": ("count", "lower"),
        "pitch.track_periods.s": ("s", "lower"),
        "pitch.track_periods.calls": ("count", "lower"),
        "pitch.track_periods.ok_ratio": ("ratio", "higher"),
        "features.hnr.s": ("s", "lower"),
        "features.hnr.calls": ("count", "lower"),
        "features.period_stats.s": ("s", "lower"),
        "features.extract_matrix.self_s": ("s", "lower"),
    }
    for fam in FAMILIES:
        m[f"features.family.{fam}.ms_per_audio_s"] = ("ms/s", "lower")
    m.update({
        "features.voiced_frac": ("ratio", "higher"),
        "features.vq_fallback_frac": ("ratio", "lower"),
        "features.fit_norm.s": ("s", "lower"),
        "features.apply_norm.s": ("s", "lower"),
        "segmenter.split.s": ("s", "lower"),
        "segmenter.aggregate.s": ("s", "lower"),
        "segmenter.pad_frac": ("ratio", "lower"),
    })
    for layer in [f"conv{i}" for i in range(4)] + [f"dense{i}" for i in range(3)]:
        for phase in ("fwd", "bwd", "upd"):
            m[f"cnn.{layer}.{phase}_s"] = ("s", "lower")
    m.update({
        "cnn.other.fwd_s": ("s", "lower"),
        "cnn.other.bwd_s": ("s", "lower"),
        "cnn.cross_entropy.s": ("s", "lower"),
        "cnn.train_step.ms_p50": ("ms", "lower"),
        "cnn.steps": ("count", "lower"),
        "cnn.gflops_per_s": ("GFLOP/s", "higher"),
        "trace.overhead.throughput": ("1/s", "higher"),
        "trace.overhead.utt_ms_p50": ("ms", "lower"),
        "trace.overhead.utt_ms_p90": ("ms", "lower"),
    })
    return m


PER_LAYER = _per_layer_names()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    recipe: gen.Recipe
    featureset: str
    arch_id: str = ""          # empty: extraction only
    optimizer: str = ""
    batch_size: int = 1
    epochs: int = 1
    accuracy_floor: float = 0.0
    # Nominal seconds of one training run on a 2-core host.  The number of
    # runs follows from it and --seconds, not from the clock, so every run
    # of the workload does the same training work and allocations.
    train_run_s: float = 0.0

    def train_runs(self, seconds: float) -> int:
        return max(1, round(TRAIN_SHARE * seconds / self.train_run_s))

    @property
    def trains(self) -> bool:
        return bool(self.arch_id)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="extract_sweep",
        why=("all-channel extraction over 230-300 Hz synth_corpus speech plus "
             "90-200 Hz voices: loads corpus, dsp, pitch and voice quality, "
             "whose cost and zero fallback depend on F0"),
        recipe=gen.Recipe(durations_s=DUR_WIDE, synth_per_duration=2, low_f0_voices=32),
        featureset="all"),
    Workload(
        name="train_sgd_ca03",
        why=("CA03 trained by SGD, batch 1, on the 10 handcrafted channels, then "
             "per-utterance inference: batch-1 Dense backward and update "
             "carry the time"),
        recipe=gen.Recipe(durations_s=DUR_NARROW, synth_per_duration=2, low_f0_voices=16),
        featureset="handcrafted", arch_id="CA03", optimizer="sgd",
        batch_size=1, epochs=2, accuracy_floor=0.5, train_run_s=4.5),
    Workload(
        name="train_batch_ca01",
        why=("CA01 trained by minibatch GD, batch 32, on the 13 MFCCs, then "
             "per-utterance inference: batched matmuls and the Conv1D "
             "weight-gradient einsum carry the time"),
        recipe=gen.Recipe(durations_s=DUR_NARROW, synth_per_duration=2, low_f0_voices=16),
        featureset="mfcc", arch_id="CA01", optimizer="minibatch_gd",
        batch_size=32, epochs=12, accuracy_floor=0.5, train_run_s=2.7),
)}


# ---------------------------------------------------------------------------
# Outcomes and output checks

class Outcomes:
    """Operations attempted and failed; a failed output check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, problem: str | None, what: str) -> bool:
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {problem}")
        return False


def check_matrix(matrix, channel_ids, duration_s: float) -> str | None:
    """None if the matrix is finite, has the channels and a plausible length."""
    values = np.asarray(matrix.values)
    if tuple(matrix.channel_ids) != tuple(channel_ids):
        return f"channel ids {matrix.channel_ids} != {tuple(channel_ids)}"
    if values.ndim != 2 or values.shape[0] != len(channel_ids):
        return f"shape {values.shape} for {len(channel_ids)} channels"
    max_frames = duration_s / 0.010 + 1
    if not 0 < values.shape[1] <= max_frames:
        return f"{values.shape[1]} frames for {duration_s:.3f} s"
    if not np.all(np.isfinite(values)):
        return "non-finite values"
    return None


def check_history(history: dict, epochs: int) -> str | None:
    losses = history.get("train_loss", [])
    if len(losses) != epochs:
        return f"{len(losses)} losses for {epochs} epochs"
    if not all(math.isfinite(v) for v in losses):
        return f"non-finite loss in {losses}"
    return None


# ---------------------------------------------------------------------------
# Environment

def blas_threads() -> int:
    """OpenBLAS thread count of the loaded numpy, or -1 if it cannot be read."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            return int(os.environ[var])
    return -1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(seconds, q)) * 1000.0 if seconds else 0.0


# ---------------------------------------------------------------------------
# Set-up

@dataclass
class Prepared:
    manifest: corpus.CorpusManifest
    dataset: experiments.Dataset | None = None
    train_idx: list | None = None
    test_idx: list | None = None


def _clear_program_caches() -> None:
    # Each set-up repeat pays the kernel and mel-bank builds again.
    for cache in (getattr(pitch, "_kernel_cache", None),
                  getattr(features, "_mel_cache", None)):
        if isinstance(cache, dict):
            cache.clear()


def setup(wl: Workload, seed: int, work_dir: Path, outcomes: Outcomes) -> Prepared:
    """Generate inputs, warm caches and BLAS, extract (train workloads), split."""
    _clear_program_caches()
    if work_dir.exists():
        shutil.rmtree(work_dir)
    manifest = corpus.load_manifest(gen.generate(wl.recipe, seed, work_dir))
    a = np.ones((256, 256))
    _ = a @ a  # first BLAS call
    if not wl.trains:
        for rec in (manifest.records[0], manifest.records[-1]):  # one synth, one low-F0
            features.extract_matrix(corpus.load_audio(rec), wl.featureset, source_id=rec.id)
        return Prepared(manifest)

    dataset = experiments.prepare_dataset(manifest, wl.featureset)
    for rec, utt in zip(manifest.records, dataset.utterances):
        outcomes.record(check_matrix(utt.matrix, dataset.channel_ids, rec.duration_s),
                        f"extract {rec.id}")
    train_idx, test_idx = experiments.stratified_holdout(dataset.labels, TEST_FRACTION,
                                                         SPLIT_SEED)
    seg_s = segmenter.first_quartile(
        [dataset.utterances[i].matrix.duration_s for i in train_idx])
    frames = segmenter.segment_frames(seg_s)
    warm = cnn.build(wl.arch_id, input_frames=frames,
                     in_channels=len(dataset.channel_ids), seed=seed)
    x = np.zeros((wl.batch_size, frames, len(dataset.channel_ids)))
    cnn.forward_batch(warm, x)
    cnn.train_step(warm, x, np.zeros(wl.batch_size, dtype=int), 1e-3,
                   np.random.default_rng(seed))
    return Prepared(manifest, dataset, train_idx, test_idx)


# ---------------------------------------------------------------------------
# Measured loops

def _cycle(n: int, rng: np.random.Generator):
    while True:
        yield from rng.permutation(n)


def extraction_loop(records, featureset: str, outcomes: Outcomes, rng,
                    seconds: float = 0.0, passes: int = 0, tracer: Tracer | None = None):
    """Closed loop of load_audio + extract_matrix, one utterance at a time.

    Runs `passes` full passes if given, else for `seconds` and at least
    MIN_LATENCY_SAMPLES utterances.  Returns (per-utterance seconds, audio
    seconds, matrices by utterance id).
    """
    ids = features.resolve_featureset(featureset)
    times: list[float] = []
    audio_s = 0.0
    matrices = {}
    deadline = time.perf_counter() + seconds
    for k, i in enumerate(_cycle(len(records), rng)):
        if passes and k >= passes * len(records):
            break
        if not passes and time.perf_counter() >= deadline and len(times) >= MIN_LATENCY_SAMPLES:
            break
        rec = records[i]
        if tracer is not None:
            tracer.tag = rec.id
        t0 = time.perf_counter()
        try:
            matrix = features.extract_matrix(corpus.load_audio(rec), featureset,
                                             source_id=rec.id)
        except Exception as exc:  # counted, the loop goes on
            outcomes.record(repr(exc), f"extract {rec.id}")
            continue
        dt = time.perf_counter() - t0
        if outcomes.record(check_matrix(matrix, ids, rec.duration_s), f"extract {rec.id}"):
            times.append(dt)
            audio_s += rec.duration_s
            matrices[rec.id] = matrix
    return times, audio_s, matrices


def _experiment_config(wl: Workload, seed: int) -> experiments.ExperimentConfig:
    return experiments.ExperimentConfig(
        train=cnn.TrainConfig(optimizer=wl.optimizer, batch_size=wl.batch_size,
                              epochs=wl.epochs, early_stop_patience=0, seed=seed),
        arch_id=wl.arch_id, test_fraction=TEST_FRACTION, split_seed=SPLIT_SEED,
        val_fraction=0.0)


@dataclass
class Trained:
    report: experiments.EvalReport
    model: cnn.Model
    aux: dict
    seconds: float

    @property
    def seg_per_s(self) -> float:
        epochs = len(self.aux["history"]["train_loss"])
        return self.aux["num_train_segments"] * epochs / self.seconds


def train_once(wl: Workload, prep: Prepared, seed: int, outcomes: Outcomes) -> Trained | None:
    """One `train_and_evaluate` call, its history and accuracy checked."""
    cfg = _experiment_config(wl, seed)
    t0 = time.perf_counter()
    try:
        report, model, aux = experiments.train_and_evaluate(
            prep.dataset, prep.dataset.channel_ids, cfg, prep.train_idx, prep.test_idx)
    except Exception as exc:
        outcomes.record(repr(exc), "train_and_evaluate")
        return None
    dt = time.perf_counter() - t0
    outcomes.record(check_history(aux["history"], wl.epochs), "training history")
    outcomes.record(None if report.accuracy >= wl.accuracy_floor else
                    f"accuracy {report.accuracy:.3f} < floor {wl.accuracy_floor}",
                    "held-out accuracy")
    return Trained(report, model, aux, dt)


def decide(trained: Trained, utt, channel_ids) -> str:
    """The program's per-utterance decision path, from a prepared matrix."""
    mat = features.apply_norm(utt.matrix.channels(channel_ids), trained.aux["norm"])
    segs = segmenter.split(mat, trained.aux["segment_duration_s"])
    acts = cnn.forward_batch(trained.model, np.asarray([s.matrix.T for s in segs]))
    return segmenter.aggregate(acts)


def check_confusion(trained: Trained, prep: Prepared, outcomes: Outcomes) -> None:
    """Our decision loop must reproduce the EvalReport's confusion exactly."""
    counts: dict = {}
    for i in prep.test_idx:
        utt = prep.dataset.utterances[i]
        key = (utt.dialect, decide(trained, utt, prep.dataset.channel_ids))
        counts[key] = counts.get(key, 0) + 1
    mine = experiments.report_from_confusion(counts).to_dict()["per_class"]
    theirs = trained.report.to_dict()["per_class"]
    outcomes.record(None if mine == theirs else f"{mine} != {theirs}",
                    "inference confusion vs EvalReport")


def inference_loop(trained: Trained, prep: Prepared, outcomes: Outcomes, rng,
                   seconds: float = 0.0, passes: int = 0,
                   tracer: Tracer | None = None) -> list[float]:
    """Per-utterance decision latency over every utterance, closed loop."""
    utts = prep.dataset.utterances
    times: list[float] = []
    deadline = time.perf_counter() + seconds
    for k, i in enumerate(_cycle(len(utts), rng)):
        if passes and k >= passes * len(utts):
            break
        if not passes and time.perf_counter() >= deadline and len(times) >= MIN_LATENCY_SAMPLES:
            break
        utt = utts[i]
        if tracer is not None:
            tracer.tag = utt.id
        t0 = time.perf_counter()
        try:
            decided = decide(trained, utt, prep.dataset.channel_ids)
        except Exception as exc:
            outcomes.record(repr(exc), f"infer {utt.id}")
            continue
        dt = time.perf_counter() - t0
        if outcomes.record(None if decided in corpus.DIALECTS else f"decision {decided!r}",
                           f"infer {utt.id}"):
            times.append(dt)
    return times


# ---------------------------------------------------------------------------
# One workload run

@dataclass
class Measured:
    """End-to-end figures of one measured phase."""

    throughput: float
    throughput_n: int
    utt_s: list[float]
    detail: dict

    def metrics(self) -> dict[str, float]:
        return {"throughput": self.throughput,
                "utt_ms_p50": percentile_ms(self.utt_s, 50),
                "utt_ms_p90": percentile_ms(self.utt_s, 90)}


def measure(wl: Workload, prep: Prepared, seed: int, seconds: float,
            outcomes: Outcomes) -> Measured:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    if not wl.trains:
        times, audio_s, _ = extraction_loop(prep.manifest.records, wl.featureset,
                                            outcomes, rng, seconds=seconds)
        rtf = audio_s / sum(times) if times else 0.0
        return Measured(rtf, len(times), times, {"audio_s": audio_s})

    runs: list[Trained] = []
    give_up = time.perf_counter() + 2 * TRAIN_SHARE * seconds
    for _ in range(wl.train_runs(seconds)):
        if runs and time.perf_counter() > give_up:
            break  # a host far slower than nominal: keep the run length bounded
        trained = train_once(wl, prep, seed, outcomes)
        if trained is None:
            break
        runs.append(trained)
    if not runs:
        return Measured(0.0, 0, [], {})
    last = runs[-1]
    check_confusion(last, prep, outcomes)
    times = inference_loop(last, prep, outcomes, rng, seconds=(1.0 - TRAIN_SHARE) * seconds)
    return Measured(statistics.median(r.seg_per_s for r in runs), len(runs), times, {
        "train_runs": len(runs),
        "seg_per_s": [r.seg_per_s for r in runs],
        "train_segments": last.aux["num_train_segments"],
        "input_frames": last.model.input_frames,
        "accuracy": [r.report.accuracy for r in runs],
        "train_loss": last.aux["history"]["train_loss"],
    })


def family_costs(wl: Workload, records) -> dict[str, float]:
    """ms of extract_matrix per audio second, restricted to each family."""
    wanted = set(features.resolve_featureset(wl.featureset))
    spent = {fam: 0.0 for fam in FAMILIES}
    audio_s = 0.0
    for rec in records:
        wave = corpus.load_audio(rec)
        audio_s += rec.duration_s
        for fam, ids in FAMILIES.items():
            if wanted.issuperset(ids):
                t0 = time.perf_counter()
                features.extract_matrix(wave, ids, source_id=rec.id)
                spent[fam] += time.perf_counter() - t0
    return {fam: 1000.0 * s / audio_s for fam, s in spent.items()}


def voicing_counts(matrices) -> tuple[float, float]:
    """(frames with F0 > 0, voiced frames whose JITTER is exactly 0) as shares."""
    frames = voiced = fallback = 0
    for m in matrices:
        if "F0" not in m.channel_ids:
            continue
        f0 = m.values[m.channel_ids.index("F0")] > 0.0
        frames += f0.size
        voiced += int(f0.sum())
        if "JITTER" in m.channel_ids:
            jit = m.values[m.channel_ids.index("JITTER")]
            fallback += int(np.count_nonzero(f0 & (jit == 0.0)))
    return (voiced / frames if frames else 0.0, fallback / voiced if voiced else 0.0)


def layer_metrics(tracer: Tracer, families: dict, voicing: tuple[float, float],
                  overhead: dict) -> dict[str, float]:
    self_s, calls, durations = tracer.totals()
    counts = tracer.counts
    m: dict[str, float] = {}
    m["corpus.read_wav.s"] = self_s["corpus.read_wav"]
    m["corpus.read_wav.calls"] = calls["corpus.read_wav"]
    m["dsp.frame_signal.s"] = self_s["dsp.frame_signal"]
    m["dsp.magnitude_spectra.s"] = self_s["dsp.magnitude_spectra"]
    m["dsp.magnitude_spectra.rows"] = counts["dsp.magnitude_spectra.rows"]
    m["pitch.shs_batch.s"] = self_s["pitch.shs_batch"]
    m["pitch.shs_batch.frames"] = counts["pitch.shs_batch.frames"]
    tp_calls = calls["pitch.track_periods"]
    m["pitch.track_periods.s"] = self_s["pitch.track_periods"]
    m["pitch.track_periods.calls"] = tp_calls
    m["pitch.track_periods.ok_ratio"] = (
        (tp_calls - counts["pitch.track_periods.failed"]) / tp_calls if tp_calls else 0.0)
    m["features.hnr.s"] = self_s["features.hnr"]
    m["features.hnr.calls"] = calls["features.hnr"]
    m["features.period_stats.s"] = self_s["features.period_stats"]
    m["features.extract_matrix.self_s"] = self_s["features.extract_matrix"]
    for fam, v in families.items():
        m[f"features.family.{fam}.ms_per_audio_s"] = v
    m["features.voiced_frac"], m["features.vq_fallback_frac"] = voicing
    for name in ("features.fit_norm", "features.apply_norm",
                 "segmenter.split", "segmenter.aggregate"):
        m[f"{name}.s"] = self_s[name]
    seg_frames = counts["segmenter.frames"]
    m["segmenter.pad_frac"] = counts["segmenter.pad_frames"] / seg_frames if seg_frames else 0.0
    busy = 0.0
    for layer in [f"conv{i}" for i in range(4)] + [f"dense{i}" for i in range(3)]:
        for phase in ("fwd", "bwd", "upd"):
            v = self_s[f"cnn.{layer}.{phase}"]
            m[f"cnn.{layer}.{phase}_s"] = v
            busy += v
    m["cnn.other.fwd_s"] = self_s["cnn.other.fwd"]
    m["cnn.other.bwd_s"] = self_s["cnn.other.bwd"]
    m["cnn.cross_entropy.s"] = self_s["cnn.cross_entropy"]
    steps = durations.get("cnn.train_step", [])
    m["cnn.train_step.ms_p50"] = percentile_ms(steps, 50)
    m["cnn.steps"] = len(steps)
    m["cnn.gflops_per_s"] = counts["cnn.flops"] / 1e9 / busy if busy else 0.0
    for k, v in overhead.items():
        m[f"trace.overhead.{k}"] = v
    return {k: float(v) for k, v in m.items()}


def traced_pass(wl: Workload, prep: Prepared, seed: int, outcomes: Outcomes,
                tracer: Tracer) -> tuple[Measured, list]:
    """A fixed amount of work under the span wrappers: one pass of each loop."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    if not wl.trains:
        times, audio_s, mats = extraction_loop(prep.manifest.records, wl.featureset,
                                               outcomes, rng, passes=1, tracer=tracer)
        return (Measured(audio_s / sum(times) if times else 0.0, len(times), times, {}),
                list(mats.values()))
    tracer.tag = "prepare_dataset"
    dataset = experiments.prepare_dataset(prep.manifest, wl.featureset)
    traced_prep = Prepared(prep.manifest, dataset, prep.train_idx, prep.test_idx)
    tracer.tag = "train_and_evaluate"
    trained = train_once(wl, traced_prep, seed, outcomes)
    if trained is None:
        return Measured(0.0, 0, [], {}), [u.matrix for u in dataset.utterances]
    times = inference_loop(trained, traced_prep, outcomes, rng, passes=1, tracer=tracer)
    return (Measured(trained.seg_per_s, 1, times, {}),
            [u.matrix for u in dataset.utterances])


def run(wl: Workload, seed: int, seconds: float, trace: bool, work_dir: Path,
        spans_path: Path | None = None) -> dict:
    """Run one workload; returns the full result record."""
    outcomes = Outcomes()
    setup_s: list[float] = []
    prep = None
    while not setup_s or not trace and (len(setup_s) < SETUP_MIN_REPEATS
                                        or sum(setup_s) < SETUP_MIN_SECONDS):
        t0 = time.perf_counter()
        prep = setup(wl, seed, work_dir, outcomes)
        setup_s.append(time.perf_counter() - t0)
    untraced = measure(wl, prep, seed, seconds, outcomes)
    e2e = untraced.metrics()
    e2e["setup_s"] = statistics.median(setup_s)
    e2e["peak_rss_mb"] = peak_rss_mb()
    record = {
        "workload": wl.name, "why": wl.why, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "inputs": {
            **wl.recipe.describe(),
            "utterances": len(prep.manifest),
            "audio_s": sum(r.duration_s for r in prep.manifest.records),
            "featureset": wl.featureset,
            "input_frames": _input_frames(prep, untraced),
            "nproc": os.cpu_count(),
            "numpy": np.__version__,
            "blas_threads": blas_threads(),
        },
        "samples": {"throughput": untraced.throughput_n, "utt_ms": len(untraced.utt_s),
                    "setup_s": len(setup_s)},
        "detail": untraced.detail,
        "end_to_end": e2e,
    }
    if trace:
        tracer = Tracer()
        install_program_spans(tracer)
        try:
            traced, matrices = traced_pass(wl, prep, seed, outcomes, tracer)
        finally:
            tracer.uninstall()
        t_m, u_m = traced.metrics(), untraced.metrics()
        overhead = {k: t_m[k] - u_m[k] for k in ("throughput", "utt_ms_p50", "utt_ms_p90")}
        families = family_costs(wl, prep.manifest.records)
        record["per_layer"] = layer_metrics(tracer, families, voicing_counts(matrices),
                                            overhead)
        record["traced_end_to_end"] = t_m
        if spans_path is not None:
            tracer.write(spans_path)
    record["attempted"] = outcomes.attempted
    record["failed"] = outcomes.failed
    record["errors"] = outcomes.errors
    return record


def _input_frames(prep: Prepared, measured: Measured) -> int:
    if "input_frames" in measured.detail:
        return measured.detail["input_frames"]
    q1 = segmenter.first_quartile([r.duration_s for r in prep.manifest.records])
    return segmenter.segment_frames(q1)
