"""Framewise acoustic features and feature-matrix assembly.

Ten handcrafted channels (prosodic: F0, ENERGY, VPROB on 60 ms frames;
voice quality: JITTER, DJITTER, SHIMMER, HNR; spectral: SFLUX, SHARP;
temporal: ZCR on 20 ms frames) plus 13 MFCCs, all on a shared 10 ms hop
grid.  Unvoiced frames carry zeros in the F0 and voice-quality channels so
every channel stays dense for the CNN.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.fft import dct

from . import dsp, pitch
from .corpus import Waveform

logger = logging.getLogger(__name__)

PROSODIC_IDS = ("F0", "ENERGY", "VPROB")
VOICE_QUALITY_IDS = ("JITTER", "DJITTER", "SHIMMER", "HNR")
SPECTRAL_IDS = ("SFLUX", "SHARP")
TEMPORAL_IDS = ("ZCR",)
HANDCRAFTED_IDS = PROSODIC_IDS + VOICE_QUALITY_IDS + SPECTRAL_IDS + TEMPORAL_IDS
MFCC_IDS = tuple(f"MFCC_{i}" for i in range(13))
ALL_IDS = HANDCRAFTED_IDS + MFCC_IDS

PROSODIC_FRAME_MS = 60.0
OTHER_FRAME_MS = 20.0
MIN_WAVEFORM_MS = 100.0

FEATURESET_NAMES = {
    "handcrafted": HANDCRAFTED_IDS,
    "mfcc": MFCC_IDS,
    "all": ALL_IDS,
}

__all__ = [
    "HANDCRAFTED_IDS", "MFCC_IDS", "ALL_IDS", "FEATURESET_NAMES",
    "FeatureMatrix", "NormStats", "MfccConfig", "DEFAULT_MFCC",
    "resolve_featureset", "energy_rows", "zcr_rows", "jitter",
    "jitter_derivative", "shimmer", "hnr", "sharpness_rows", "flux_rows",
    "mfcc_rows", "mel_filterbank", "extract_matrix", "fit_norm", "apply_norm",
]


def resolve_featureset(spec: str | Iterable[str]) -> tuple[str, ...]:
    """Named set ('handcrafted', 'mfcc', 'all') or explicit ids -> canonical order."""
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name in FEATURESET_NAMES:
            return FEATURESET_NAMES[name]
        ids = [s.strip().upper() for s in spec.split(",") if s.strip()]
    else:
        ids = [str(s).strip().upper() for s in spec]
    unknown = [i for i in ids if i not in ALL_IDS]
    if unknown:
        raise ValueError(f"unknown feature ids {unknown}; valid ids: {', '.join(ALL_IDS)}")
    wanted = set(ids)
    if not wanted:
        raise ValueError("empty feature set")
    return tuple(i for i in ALL_IDS if i in wanted)


@dataclass(frozen=True)
class FeatureMatrix:
    """Channels x frames matrix on the shared 10 ms grid."""

    values: np.ndarray
    channel_ids: tuple[str, ...]
    hop_ms: float = dsp.HOP_MS
    source_id: str = ""

    @property
    def num_frames(self) -> int:
        return self.values.shape[1]

    @property
    def duration_s(self) -> float:
        return self.num_frames * self.hop_ms / 1000.0

    def channels(self, ids: Sequence[str]) -> "FeatureMatrix":
        """Row subset in the order given."""
        index = {c: i for i, c in enumerate(self.channel_ids)}
        missing = [c for c in ids if c not in index]
        if missing:
            raise KeyError(f"channels not present: {missing}")
        rows = [index[c] for c in ids]
        return FeatureMatrix(values=self.values[rows], channel_ids=tuple(ids),
                             hop_ms=self.hop_ms, source_id=self.source_id)


@dataclass(frozen=True)
class NormStats:
    """Per-channel z-score statistics fitted on training data."""

    mean: np.ndarray
    std: np.ndarray  # floored at 1e-8
    channel_ids: tuple[str, ...]


# ---------------------------------------------------------------------------
# Row kernels: one value per frame of an (n, frame_len) frame stack or an
# (n, fft_size//2) stack of magnitude spectra

def energy_rows(frames: np.ndarray) -> np.ndarray:
    """Sum of squared amplitudes of each frame."""
    return np.einsum("ij,ij->i", frames, frames)


def zcr_rows(frames: np.ndarray, sample_rate_hz: int) -> np.ndarray:
    """Sign changes per second of each frame; a zero sample defers to its
    neighbours."""
    nonzero = frames[:, 1:] != 0.0
    direct = (frames[:, :-1] * frames[:, 1:] < 0.0) & nonzero
    counts = direct.sum(axis=1)
    if frames.shape[1] >= 3:
        mid_zero = frames[:, 1:-1] == 0.0
        skipped = (frames[:, :-2] * frames[:, 2:] < 0.0) & mid_zero
        counts = counts + skipped.sum(axis=1)
    return counts / (frames.shape[1] / sample_rate_hz)


def sharpness_rows(mags: np.ndarray, sample_rate_hz: int) -> np.ndarray:
    """Spectral centroid on the Bark scale (perceived sharpness) of each
    spectrum; 0 for a silent one."""
    barks = dsp.hz_to_bark(dsp.bin_frequencies(2 * mags.shape[1], sample_rate_hz))
    totals = mags.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = (mags @ barks) / totals
    return np.where(totals > 0.0, vals, 0.0)


def flux_rows(mags: np.ndarray) -> np.ndarray:
    """Squared difference of each L2-normalized spectrum and the one before
    it, in [0, 4]; 0 for the first row and wherever either is silent."""
    norms = np.sqrt(np.einsum("ij,ij->i", mags, mags))
    out = np.zeros(mags.shape[0])
    ok = norms > 0.0
    unit = np.zeros_like(mags)
    unit[ok] = mags[ok] / norms[ok, None]
    d = unit[1:] - unit[:-1]
    flux = np.einsum("ij,ij->i", d, d)
    both = ok[1:] & ok[:-1]
    out[1:] = np.where(both, flux, 0.0)
    return out


def jitter(p: pitch.PeriodSequence) -> float:
    """Mean absolute successive period difference over the mean period."""
    t = np.asarray(p.periods_s, dtype=np.float64)
    if t.size < 3:
        raise pitch.TooFewPeriodsError("jitter needs at least 3 periods")
    mean_period = t.mean()
    if mean_period <= 0.0:
        return 0.0
    return float(np.mean(np.abs(np.diff(t))) / mean_period)


def jitter_derivative(p: pitch.PeriodSequence) -> float:
    """Mean absolute second period difference over the mean period."""
    t = np.asarray(p.periods_s, dtype=np.float64)
    if t.size < 4:
        raise pitch.TooFewPeriodsError("jitter derivative needs at least 4 periods")
    mean_period = t.mean()
    if mean_period <= 0.0:
        return 0.0
    first = np.abs(np.diff(t))
    return float(np.mean(np.abs(np.diff(first))) / mean_period)


def shimmer(p: pitch.PeriodSequence) -> float:
    """Mean absolute successive cycle-amplitude difference over the mean amplitude."""
    a = np.asarray(p.peak_amps, dtype=np.float64)
    if a.size < 3:
        raise pitch.TooFewPeriodsError("shimmer needs at least 3 periods")
    mean_amp = a.mean()
    if mean_amp <= 0.0:
        return 0.0
    return float(np.mean(np.abs(np.diff(a))) / mean_amp)


_HNR_CLAMP = (1e-4, 1e4)


def hnr(frame: np.ndarray, f0_hz: float, sample_rate_hz: int) -> float:
    """log10 harmonic-to-noise energy ratio via normalized autocorrelation.

    r at the pitch lag estimates harmonic_energy / total_energy, so the
    ratio r / (1 - r) is harmonic over noise energy; it is clamped to
    [1e-4, 1e4] before taking the log.
    """
    if f0_hz <= 0.0:
        raise pitch.UnvoicedFrameError("unvoiced frame (f0 = 0)")
    x = np.asarray(frame, dtype=np.float64)
    lag = int(round(sample_rate_hz / f0_hz))
    halo = max(1, int(round(0.04 * lag)))
    best = -1.0
    for dl in range(-halo, halo + 1):
        lg = lag + dl
        if lg < 1 or lg >= x.size - 1:
            continue
        a, b = x[:-lg], x[lg:]
        denom = np.sqrt(np.dot(a, a) * np.dot(b, b))
        if denom > 0.0:
            best = max(best, float(np.dot(a, b) / denom))
    if best < 0.0:
        best = 0.0
    linear = best / max(1.0 - best, 1e-15)
    return float(np.log10(np.clip(linear, *_HNR_CLAMP)))


# ---------------------------------------------------------------------------
# MFCC

@dataclass(frozen=True)
class MfccConfig:
    num_coeffs: int = 13
    num_filters: int = 26
    pre_emphasis: float = 0.97
    f_lo_hz: float = 0.0
    f_hi_hz: float | None = None  # defaults to Nyquist
    log_floor: float = 1e-10


DEFAULT_MFCC = MfccConfig()

_mel_cache: dict[tuple, np.ndarray] = {}


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_filterbank(fft_size: int, sample_rate_hz: int,
                   cfg: MfccConfig = DEFAULT_MFCC) -> np.ndarray:
    """(num_filters, fft_size//2) triangular weights over bins 1..K/2.

    Triangles are linear in mel, so interior bins between the first and
    last filter centre see weights summing to exactly 1.
    """
    f_hi = cfg.f_hi_hz if cfg.f_hi_hz is not None else sample_rate_hz / 2.0
    key = (fft_size, sample_rate_hz, cfg.num_filters, cfg.f_lo_hz, f_hi)
    if key in _mel_cache:
        return _mel_cache[key]
    mel_pts = np.linspace(_hz_to_mel(cfg.f_lo_hz), _hz_to_mel(f_hi),
                          cfg.num_filters + 2)
    bin_mels = _hz_to_mel(dsp.bin_frequencies(fft_size, sample_rate_hz))
    bank = np.zeros((cfg.num_filters, fft_size // 2))
    for m in range(cfg.num_filters):
        lo, mid, hi = mel_pts[m], mel_pts[m + 1], mel_pts[m + 2]
        up = (bin_mels - lo) / (mid - lo)
        down = (hi - bin_mels) / (hi - mid)
        bank[m] = np.clip(np.minimum(up, down), 0.0, 1.0)
    _mel_cache[key] = bank
    return bank


def mfcc_rows(frames: np.ndarray, sample_rate_hz: int,
              cfg: MfccConfig = DEFAULT_MFCC) -> np.ndarray:
    """Mel-frequency cepstral coefficients of each frame: (n, frame_len) ->
    (n, num_coeffs)."""
    emphasized = np.concatenate(
        [frames[:, :1], frames[:, 1:] - cfg.pre_emphasis * frames[:, :-1]], axis=1)
    fft_size = dsp.default_fft_size(frames.shape[1])
    mags = dsp.magnitude_spectra(emphasized, fft_size)
    bank = mel_filterbank(fft_size, sample_rate_hz, cfg)
    energies = mags ** 2 @ bank.T
    logs = np.log(np.maximum(energies, cfg.log_floor))
    return dct(logs, type=2, norm="ortho", axis=1)[:, :cfg.num_coeffs]


# ---------------------------------------------------------------------------
# Matrix extraction

def extract_matrix(waveform: Waveform,
                   featureset: str | Iterable[str] = "handcrafted",
                   shs_cfg: pitch.ShsConfig = pitch.DEFAULT_SHS,
                   mfcc_cfg: MfccConfig = DEFAULT_MFCC,
                   source_id: str = "") -> FeatureMatrix:
    """Compute the requested channels for one utterance.

    Prosodic channels use 60 ms frames, everything else 20 ms, all on the
    common 10 ms hop.  Every channel set gets the frame count of the 60 ms
    series, floor((N - 60 ms) / 10 ms) + 1, and the 20 ms series is cut to
    it, so frame i of any channel starts at sample i * hop and a row does
    not depend on which other channels were asked for.
    """
    channels = resolve_featureset(featureset)
    sr = waveform.sample_rate_hz
    x = np.asarray(waveform.samples, dtype=np.float64)
    if x.size < dsp.samples_for_ms(MIN_WAVEFORM_MS, sr):
        raise ValueError(
            f"waveform too short: {x.size / sr * 1000.0:.1f} ms < {MIN_WAVEFORM_MS:g} ms")

    wanted = set(channels)
    vq = wanted & set(VOICE_QUALITY_IDS)
    need_pitch = bool(wanted & {"F0", "VPROB"} or vq)
    num_frames = ((x.size - dsp.samples_for_ms(PROSODIC_FRAME_MS, sr))
                  // dsp.samples_for_ms(dsp.HOP_MS, sr) + 1)
    if need_pitch or "ENERGY" in wanted:
        frames60 = dsp.frame_signal(x, sr, PROSODIC_FRAME_MS).frames
    if wanted - set(PROSODIC_IDS):
        frames20 = dsp.frame_signal(x, sr, OTHER_FRAME_MS).frames[:num_frames]

    rows = {}
    if need_pitch:
        k60 = dsp.default_fft_size(frames60.shape[1])
        f0s, vprobs = pitch.shs_batch(dsp.magnitude_spectra(frames60, k60),
                                      k60, sr / k60, shs_cfg)
        f0s = np.where(vprobs >= shs_cfg.voicing_threshold, f0s, 0.0)
        rows["F0"], rows["VPROB"] = f0s, vprobs
    if "ENERGY" in wanted:
        rows["ENERGY"] = energy_rows(frames60)
    if vq:
        rows.update(_voice_quality_rows(frames20, f0s, sr, vq))
    if wanted & {"SFLUX", "SHARP"}:
        mags20 = dsp.magnitude_spectra(frames20,
                                       dsp.default_fft_size(frames20.shape[1]))
        if "SFLUX" in wanted:
            rows["SFLUX"] = flux_rows(mags20)
        if "SHARP" in wanted:
            rows["SHARP"] = sharpness_rows(mags20, sr)
    if "ZCR" in wanted:
        rows["ZCR"] = zcr_rows(frames20, sr)
    if wanted & set(MFCC_IDS):
        rows.update(zip(MFCC_IDS, mfcc_rows(frames20, sr, mfcc_cfg).T))

    values = np.vstack([rows[c] for c in channels])
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite feature values for {source_id or 'utterance'}")
    return FeatureMatrix(values=values, channel_ids=channels,
                         hop_ms=dsp.HOP_MS, source_id=source_id)


def _voice_quality_rows(frames20: np.ndarray, f0s: np.ndarray, sr: int,
                        wanted: set) -> dict[str, np.ndarray]:
    n = frames20.shape[0]
    out = {c: np.zeros(n) for c in wanted}
    for i in range(n):
        f0 = float(f0s[i])
        if f0 <= 0.0:
            continue
        frame = frames20[i]
        if wanted & {"JITTER", "DJITTER", "SHIMMER"}:
            try:
                seq = pitch.track_periods(frame, f0, sr)
            except pitch.TooFewPeriodsError:
                seq = None
            if seq is not None:
                if "JITTER" in wanted:
                    out["JITTER"][i] = jitter(seq)
                if "DJITTER" in wanted and seq.periods_s.size >= 4:
                    out["DJITTER"][i] = jitter_derivative(seq)
                if "SHIMMER" in wanted:
                    out["SHIMMER"][i] = shimmer(seq)
        if "HNR" in wanted:
            out["HNR"][i] = hnr(frame, f0, sr)
    return out


# ---------------------------------------------------------------------------
# Normalization

def fit_norm(matrices: Sequence[FeatureMatrix]) -> NormStats:
    """Per-channel mean/std over all training frames; std floored at 1e-8."""
    if not matrices:
        raise ValueError("empty training set")
    channel_ids = matrices[0].channel_ids
    for m in matrices:
        if m.channel_ids != channel_ids:
            raise ValueError("inconsistent channel ids across training matrices")
    stacked = np.concatenate([m.values for m in matrices], axis=1)
    if stacked.shape[1] < 2:
        raise ValueError("need at least 2 training frames to fit normalization")
    mean = stacked.mean(axis=1)
    std = np.maximum(stacked.std(axis=1), 1e-8)
    return NormStats(mean=mean, std=std, channel_ids=channel_ids)


def apply_norm(matrix: FeatureMatrix, stats: NormStats) -> FeatureMatrix:
    """Z-score each channel with the fitted statistics."""
    if matrix.channel_ids != stats.channel_ids:
        raise ValueError("channel ids do not match normalization stats")
    values = (matrix.values - stats.mean[:, None]) / stats.std[:, None]
    return FeatureMatrix(values=values, channel_ids=matrix.channel_ids,
                         hop_ms=matrix.hop_ms, source_id=matrix.source_id)
