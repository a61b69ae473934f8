"""Seeded benchmark corpora: `corpus.synth_corpus` utterances plus low-F0 voices.

The synthetic corpus of the program draws F0 from 230-300 Hz only.  Real male
speech sits at 90-200 Hz, where voice-quality cost and the silent zero
fallback of JITTER/DJITTER/SHIMMER both change, so every benchmark corpus adds
pulse-train voices spread over that range.  Durations come from a fixed grid
and low F0s are drawn stratified (one draw per equal-width bin), so the cost
mix of a corpus, and the segment length a training split derives from it,
move little or not at all from one seed to the next; the seed sets the audio.

The same seed gives byte-identical WAVs and an identical manifest.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lctid import corpus

SAMPLE_RATE_HZ = corpus.CANONICAL_RATE_HZ
LOW_F0_RANGE_HZ = (90.0, 200.0)

# Per-class pulse-train settings, the same as the program's synthetic corpus:
# fm rate range, fm depth, am rate range, am depth, cycle jitter, cycle
# shimmer, inserted silences.
CLASS_PARAMS = {
    "LT": ((4.0, 6.0), 0.04, (8.0, 14.0), 0.5, 0.015, 0.30, True),
    "CT": ((0.4, 1.2), 0.03, (0.4, 2.0), 0.15, 0.003, 0.03, False),
}
_PULSE_WIDTH_S = 0.0015


@dataclass(frozen=True)
class Recipe:
    """How one workload's corpus mixes F0 and durations."""

    durations_s: tuple[float, ...]  # exact utterance durations, shared by both parts
    synth_per_duration: int         # synth_corpus utterances (230-300 Hz) per duration
    low_f0_voices: int              # pulse-train voices over LOW_F0_RANGE_HZ

    def describe(self) -> dict:
        n_synth = self.synth_per_duration * len(self.durations_s)
        return {
            "synth_corpus_utterances": n_synth,
            "synth_f0_hz": [230.0, 300.0],
            "low_f0_voices": self.low_f0_voices,
            "low_f0_hz": list(LOW_F0_RANGE_HZ),
            "low_f0_share": self.low_f0_voices / (n_synth + self.low_f0_voices),
            "durations_s": list(self.durations_s),
            "classes": "half LT (fast modulation, strong jitter/shimmer, silences), half CT",
        }


def _add_pulse(x: np.ndarray, t_s: float, amp: float, sr: int) -> None:
    # One sine cycle evaluated at exact sample times, as in the program's
    # generator, so the pulse train keeps sub-sample period accuracy.
    k0 = int(np.ceil(t_s * sr))
    k1 = min(x.size - 1, int(np.floor((t_s + _PULSE_WIDTH_S) * sr)))
    if k1 < k0:
        return
    tau = np.arange(k0, k1 + 1) / sr - t_s
    x[k0:k1 + 1] += amp * np.sin(2.0 * np.pi * tau / _PULSE_WIDTH_S)


def pulse_voice(rng: np.random.Generator, dialect: str, dur_s: float,
                f0_hz: float, sr: int = SAMPLE_RATE_HZ) -> np.ndarray:
    """One utterance of a glottal pulse train at base F0 `f0_hz`."""
    (fm_lo, fm_hi), fm_depth, (am_lo, am_hi), am_depth, jit, shim, silences = \
        CLASS_PARAMS[dialect]
    n = int(round(dur_s * sr))
    x = np.zeros(n)
    fm_rate = rng.uniform(fm_lo, fm_hi)
    am_rate = rng.uniform(am_lo, am_hi)
    phi_f = rng.uniform(0.0, 2 * np.pi)
    phi_a = rng.uniform(0.0, 2 * np.pi)
    t = rng.uniform(0.0, 1.0 / f0_hz)
    while t < dur_s:
        f_inst = f0_hz * (1.0 + fm_depth * np.sin(2 * np.pi * fm_rate * t + phi_f))
        amp = 0.35 * (1.0 + am_depth * np.sin(2 * np.pi * am_rate * t + phi_a))
        amp *= 1.0 + shim * rng.uniform(-1.0, 1.0)
        _add_pulse(x, t, amp, sr)
        t += (1.0 / f_inst) * (1.0 + jit * rng.uniform(-1.0, 1.0))
    if silences:
        for _ in range(max(1, int(round(dur_s * 1.2)))):
            gap = int(rng.uniform(0.05, 0.10) * sr)
            start = int(rng.uniform(0.1, 0.85) * n)
            x[start:start + gap] = 0.0
    x += 0.002 * rng.standard_normal(n)
    peak = np.max(np.abs(x))
    if peak > 0:
        x *= 0.8 / peak
    return x


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """One uniform draw in each of n equal bins of [lo, hi), in bin order."""
    return lo + (np.arange(n) + rng.uniform(0.0, 1.0, n)) * ((hi - lo) / n)


def generate(recipe: Recipe, seed: int, out_dir: Path) -> Path:
    """Write the corpus under `out_dir`; returns the manifest path.

    Audio paths in the manifest are relative to it, so the manifest bytes do
    not depend on where the corpus is written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for j, dur in enumerate(recipe.durations_s):
        sub = out_dir / f"synth{j}"
        part = corpus.synth_corpus(
            corpus.SynthSpec(num_utterances=recipe.synth_per_duration,
                             dur_min_s=dur, dur_max_s=dur, out_dir=str(sub)),
            seed=seed * 100 + j)
        (sub / "manifest.tsv").unlink()  # holds cwd-relative paths; not used
        for r in part.records:
            name = Path(r.audio_path).name
            records.append(corpus.UtteranceRecord(
                id=f"s{j}_{r.id}", audio_path=f"synth{j}/{name}", dialect=r.dialect))

    n_low = recipe.low_f0_voices
    if n_low:
        (out_dir / "low").mkdir(exist_ok=True)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7919]))
        f0s = _stratified(rng, *LOW_F0_RANGE_HZ, n_low)
        n_dur = len(recipe.durations_s)
        for i in range(n_low):
            # Voice i takes F0 bin i and duration i mod n_dur, so every
            # duration holds F0s spread over the whole range; dialects
            # alternate within each duration and each run of F0 bins.
            dialect = corpus.DIALECTS[(i + i // n_dur) % 2]
            urng = np.random.default_rng(np.random.SeedSequence([seed, 7919, i]))
            x = pulse_voice(urng, dialect, recipe.durations_s[i % n_dur], float(f0s[i]))
            uid = f"low{i:03d}_{dialect.lower()}_{int(f0s[i])}hz"
            corpus.write_wav(out_dir / "low" / f"{uid}.wav",
                             corpus.Waveform(x, SAMPLE_RATE_HZ))
            records.append(corpus.UtteranceRecord(
                id=uid, audio_path=f"low/{uid}.wav", dialect=dialect))

    manifest = out_dir / "manifest.tsv"
    corpus.save_manifest(corpus.CorpusManifest(records=tuple(records)), manifest)
    return manifest
