"""Corpus handling: manifests, WAV decode/encode, balancing, synthetic data.

Manifest format: UTF-8, tab-separated, header ``id<TAB>path<TAB>dialect``
with dialect in {LT, CT}.  Audio: RIFF/WAVE, read as PCM16 or IEEE float32,
mono or stereo, and written as mono PCM16.  16 kHz is canonical: `read_wav`,
the one decoder, rejects any other rate (there is deliberately no resampler),
while `wav_duration_s` reads a header at any rate, so a manifest of other
rates loads and each utterance fails at decode.  The synthetic corpus is
written at 16 kHz only.
"""

from __future__ import annotations

import logging
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO

import numpy as np

logger = logging.getLogger(__name__)

DIALECTS = ("LT", "CT")
CANONICAL_RATE_HZ = 16000

__all__ = [
    "DIALECTS",
    "CANONICAL_RATE_HZ",
    "UtteranceRecord",
    "CorpusManifest",
    "Waveform",
    "SynthSpec",
    "CorpusError",
    "load_manifest",
    "save_manifest",
    "read_wav",
    "write_wav",
    "wav_duration_s",
    "load_audio",
    "derive_balanced_subset",
    "synth_corpus",
]


class CorpusError(Exception):
    """Manifest or audio file cannot be used."""


@dataclass(frozen=True)
class UtteranceRecord:
    id: str
    audio_path: str
    dialect: str  # "LT" or "CT"
    duration_s: float = 0.0


@dataclass(frozen=True)
class CorpusManifest:
    records: tuple[UtteranceRecord, ...]

    def by_dialect(self, dialect: str) -> tuple[UtteranceRecord, ...]:
        return tuple(r for r in self.records if r.dialect == dialect)

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class Waveform:
    """Mono audio, samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


# ---------------------------------------------------------------------------
# Manifest I/O

_HEADER = ("id", "path", "dialect")


def load_manifest(path: str | Path, read_durations: bool = True) -> CorpusManifest:
    """Parse a tab-separated manifest; fills durations from the WAV headers.

    Relative audio paths are resolved against the manifest's directory.
    Raises CorpusError for a missing file, an empty manifest, a malformed
    row (named by row number), or an unknown dialect label.
    """
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"manifest not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [ln for ln in lines if ln.strip()]
    if rows and tuple(rows[0].rstrip("\n").split("\t")) == _HEADER:
        rows = rows[1:]
    if not rows:
        raise CorpusError(f"no records in manifest {path}")
    records = []
    seen: set[str] = set()
    for i, line in enumerate(rows, start=1):
        parts = line.split("\t")
        if len(parts) != 3:
            raise CorpusError(f"{path}: malformed row {i}: expected 3 fields, got {len(parts)}")
        uid, audio, dialect = (p.strip() for p in parts)
        if dialect not in DIALECTS:
            raise CorpusError(f"{path}: row {i}: unknown dialect label {dialect!r}")
        if not uid:
            raise CorpusError(f"{path}: row {i}: empty id")
        if uid in seen:
            raise CorpusError(f"{path}: row {i}: duplicate id {uid!r}")
        seen.add(uid)
        audio_path = Path(audio)
        if not audio_path.is_absolute():
            audio_path = path.parent / audio_path
        dur = wav_duration_s(audio_path) if read_durations else 0.0
        records.append(UtteranceRecord(id=uid, audio_path=str(audio_path),
                                       dialect=dialect, duration_s=dur))
    logger.info("loaded %d records from %s", len(records), path)
    return CorpusManifest(records=tuple(records))


def save_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    path = Path(path)
    lines = ["\t".join(_HEADER)]
    lines += [f"{r.id}\t{r.audio_path}\t{r.dialect}" for r in manifest.records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# WAV I/O (RIFF/WAVE: PCM16 and IEEE float32 read, PCM16 written)

_FMT_PCM = 1
_FMT_FLOAT = 3


def _parse_wav(f: BinaryIO, path) -> tuple[int, int, int, int, int]:
    """Return (format_code, num_channels, sample_rate, data_offset,
    data_size) of the open WAV `f`.

    Reads only the chunk headers and the fmt body, seeking past every other
    body; the data chunk's truncation is judged from the file size.
    """
    file_size = os.fstat(f.fileno()).st_size
    head = f.read(12)
    if len(head) < 12 or head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise CorpusError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= file_size:
        f.seek(pos)
        chunk_id, size = struct.unpack("<4sI", f.read(8))
        if chunk_id == b"fmt ":
            body = f.read(min(size, 16))
            if len(body) < 16:
                raise CorpusError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack("<HHIIHH", body)
        elif chunk_id == b"data":
            if pos + 8 + size > file_size:
                raise CorpusError(f"{path}: truncated data chunk")
            data = (pos + 8, size)
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise CorpusError(f"{path}: missing fmt or data chunk")
    format_code, channels, rate, _byte_rate, _block_align, bits = fmt
    if channels == 0 or rate == 0:
        raise CorpusError(f"{path}: fmt chunk declares {channels} channel(s) "
                          f"at {rate} Hz")
    if format_code == _FMT_PCM and bits == 16:
        pass
    elif format_code == _FMT_FLOAT and bits == 32:
        pass
    else:
        raise CorpusError(
            f"{path}: unsupported encoding (format {format_code}, {bits}-bit); "
            "only PCM16 and IEEE float32 are supported")
    frame_bytes = bits // 8 * channels
    if data[1] % frame_bytes:
        raise CorpusError(f"{path}: data chunk of {data[1]} bytes is not a "
                          f"whole number of {frame_bytes}-byte sample frames")
    return format_code, channels, rate, *data


def _open_wav(path: Path) -> BinaryIO:
    """The file at `path` opened for `_parse_wav`; it must exist."""
    if not path.is_file():
        raise CorpusError(f"audio file not found: {path}")
    return path.open("rb")


def read_wav(path: str | Path) -> Waveform:
    """Decode a PCM16 or float32 WAV at `CANONICAL_RATE_HZ`; stereo is
    downmixed by channel average.

    PCM16 values are scaled by 1/32768 so output lies in [-1, 1).  Raises
    CorpusError for any other rate: there is no resampler.  Every command
    that extracts features decodes through here.  Only the data chunk is
    read, and it is scaled and clipped in the one float64 array returned, so
    a call holds the data chunk and its output and nothing else.
    """
    path = Path(path)
    with _open_wav(path) as f:
        format_code, channels, rate, offset, size = _parse_wav(f, path)
        if rate != CANONICAL_RATE_HZ:
            raise CorpusError(f"{path}: sample rate {rate} Hz; "
                              f"expected {CANONICAL_RATE_HZ} Hz (no resampler)")
        f.seek(offset)
        payload = f.read(size)
    pcm = format_code == _FMT_PCM
    samples = np.frombuffer(payload, dtype="<i2" if pcm else "<f4").astype(np.float64)
    if pcm:
        samples /= 32768.0
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    np.clip(samples, -1.0, 1.0, out=samples)
    if samples.size == 0:
        raise CorpusError(f"{path}: empty audio data")
    return Waveform(samples=samples, sample_rate_hz=rate)


def wav_duration_s(path: str | Path) -> float:
    """Duration from the WAV chunk headers, at any rate, without reading
    the data chunk."""
    path = Path(path)
    with _open_wav(path) as f:
        format_code, channels, rate, _, size = _parse_wav(f, path)
    bytes_per = 2 if format_code == _FMT_PCM else 4
    return size / (bytes_per * channels * rate)


def write_wav(path: str | Path, waveform: Waveform) -> None:
    """Write mono PCM16 WAV; quantization round-trips within 1 LSB."""
    x = np.asarray(waveform.samples, dtype=np.float64)
    payload = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", _FMT_PCM, 1, waveform.sample_rate_hz,
                      waveform.sample_rate_hz * 2, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(payload)) + payload
    blob = b"RIFF" + struct.pack("<I", len(body)) + body
    Path(path).write_bytes(blob)


def load_audio(record: UtteranceRecord) -> Waveform:
    """Decode an utterance at the canonical sample rate."""
    return read_wav(record.audio_path)


# ---------------------------------------------------------------------------
# Balanced subsetting

def derive_balanced_subset(manifest: CorpusManifest, hours_per_class: float,
                           seed: int) -> CorpusManifest:
    """Greedy per-class selection in seeded-shuffled order.

    Selection stops as soon as the running total first reaches or exceeds
    the target, so each class lands within one utterance-duration of it.
    Raises CorpusError if the target is not > 0 or a class holds less
    audio than requested.
    """
    if not hours_per_class > 0:
        raise CorpusError(f"balanced subset needs > 0 h per class, "
                          f"got {hours_per_class:g} h")
    target_s = hours_per_class * 3600.0
    rng = np.random.default_rng(seed)
    chosen: list[UtteranceRecord] = []
    for dialect in DIALECTS:
        recs = list(manifest.by_dialect(dialect))
        available = sum(r.duration_s for r in recs)
        if available < target_s:
            raise CorpusError(
                f"class {dialect} has {available / 3600.0:.3f} h, "
                f"need {hours_per_class:g} h")
        order = rng.permutation(len(recs))
        total = 0.0
        for i in order:
            if total >= target_s:
                break
            chosen.append(recs[i])
            total += recs[i].duration_s
    return CorpusManifest(records=tuple(chosen))


# ---------------------------------------------------------------------------
# Synthetic two-class corpus
#
# Class A ("LT-like"): pulse trains with fast F0/amplitude modulation, strong
# cycle-to-cycle period/amplitude perturbation, and inserted silences.
# Class B ("CT-like"): same generator, slow modulation, mild perturbation,
# no silences.  The contrast shows up in spectral flux, jitter and its
# derivative, so the labels are recoverable from feature statistics alone.

@dataclass(frozen=True)
class SynthSpec:
    num_utterances: int = 200
    dur_min_s: float = 1.0
    dur_max_s: float = 4.0
    out_dir: str = "synth_corpus"


_CLASS_PARAMS = {
    # fm_rate range, fm_depth, am_rate range, am_depth, cycle jitter, cycle shimmer, silences
    # Modulation depths are kept small enough that pitch stays near-stationary
    # inside one 60 ms analysis window, or voicing detection would collapse.
    "LT": ((4.0, 6.0), 0.04, (8.0, 14.0), 0.5, 0.015, 0.30, True),
    "CT": ((0.4, 1.2), 0.03, (0.4, 2.0), 0.15, 0.003, 0.03, False),
}


_PULSE_WIDTH_S = 0.0015


def _render_pulses(n: int, times_s: np.ndarray, amps: np.ndarray) -> np.ndarray:
    # One sine cycle over [t, t + W] per pulse, evaluated at exact sample
    # times so the pulse train carries sub-sample period accuracy (integer
    # placement would put a quantization floor under every jitter
    # measurement).  np.add.at sums in pulse order, as a loop would.
    w = _PULSE_WIDTH_S
    k0 = np.ceil(times_s * CANONICAL_RATE_HZ).astype(np.intp)
    k1 = np.minimum(n - 1, np.floor((times_s + w) * CANONICAL_RATE_HZ).astype(np.intp))
    counts = np.maximum(k1 - k0 + 1, 0)
    starts = np.repeat(k0 - np.cumsum(counts) + counts, counts)
    idx = starts + np.arange(counts.sum())
    tau = idx / CANONICAL_RATE_HZ - np.repeat(times_s, counts)
    x = np.zeros(n)
    np.add.at(x, idx, np.repeat(amps, counts) * np.sin(2.0 * np.pi * tau / w))
    return x


def _synth_utterance(rng: np.random.Generator, dialect: str,
                     dur_s: float) -> np.ndarray:
    (fm_lo, fm_hi), fm_depth, (am_lo, am_hi), am_depth, jit, shim, silences = \
        _CLASS_PARAMS[dialect]
    n = int(round(dur_s * CANONICAL_RATE_HZ))
    f0_base = rng.uniform(230.0, 300.0)
    fm_rate = rng.uniform(fm_lo, fm_hi)
    am_rate = rng.uniform(am_lo, am_hi)
    phi_f = rng.uniform(0.0, 2 * np.pi)
    phi_a = rng.uniform(0.0, 2 * np.pi)
    t = rng.uniform(0.0, 1.0 / f0_base)
    # The draw contract: each pulse draws two uniforms on [-1, 1), its
    # shimmer first and then its jitter, and the generator is left as a loop
    # of two rng.uniform calls per pulse leaves it.  The schedule reads the
    # pairs from one block, as many as the shortest period allows (a short
    # block raises IndexError), then rewinds the generator and draws exactly
    # the pairs it used.  Only the period recurrence runs pulse by pulse.
    bound = int(dur_s * f0_base * (1.0 + fm_depth) / (1.0 - jit)) + 2
    state = rng.bit_generator.state
    u = rng.uniform(-1.0, 1.0, 2 * bound).tolist()
    # w_f * t is the loop's 2 * np.pi * fm_rate * t: Python multiplies left to right
    sin, w_f = np.sin, 2 * np.pi * fm_rate
    times = []
    k = 1
    while t < dur_s:
        times.append(t)
        f_inst = f0_base * (1.0 + fm_depth * float(sin(w_f * t + phi_f)))
        t += (1.0 / f_inst) * (1.0 + jit * u[k])
        k += 2
    rng.bit_generator.state = state
    u = rng.uniform(-1.0, 1.0, 2 * len(times))
    times = np.array(times)
    amps = 0.35 * (1.0 + am_depth * np.sin(2 * np.pi * am_rate * times + phi_a))
    amps *= 1.0 + shim * u[0::2]
    x = _render_pulses(n, times, amps)
    if silences:
        for _ in range(max(1, int(round(dur_s * 1.2)))):
            gap = int(rng.uniform(0.05, 0.10) * CANONICAL_RATE_HZ)
            start = int(rng.uniform(0.1, 0.85) * n)
            x[start:start + gap] = 0.0
    x += 0.002 * rng.standard_normal(n)
    peak = np.max(np.abs(x))
    if peak > 0:
        x *= 0.8 / peak
    return x


def synth_corpus(spec: SynthSpec, seed: int) -> CorpusManifest:
    """Generate WAV files plus a manifest.tsv; deterministic for a given seed.

    The manifest file names each WAV relative to its own directory; the
    returned manifest holds the paths as `load_manifest` resolves them.
    """
    out = Path(spec.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_bytes(b"")
        probe.unlink()
    except OSError as exc:
        raise CorpusError(f"output directory not writable: {out}: {exc}") from exc
    records = []
    half = spec.num_utterances - spec.num_utterances // 2
    for i in range(spec.num_utterances):
        dialect = "LT" if i < half else "CT"
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        dur = rng.uniform(spec.dur_min_s, spec.dur_max_s)
        samples = _synth_utterance(rng, dialect, dur)
        uid = f"{dialect.lower()}_{i:04d}"
        wav_path = out / f"{uid}.wav"
        write_wav(wav_path, Waveform(samples, CANONICAL_RATE_HZ))
        records.append(UtteranceRecord(id=uid, audio_path=wav_path.name,
                                       dialect=dialect,
                                       duration_s=samples.size / CANONICAL_RATE_HZ))
    save_manifest(CorpusManifest(records=tuple(records)), out / "manifest.tsv")
    logger.info("synthesized %d utterances under %s", len(records), out)
    return CorpusManifest(records=tuple(
        replace(r, audio_path=str(out / r.audio_path)) for r in records))
