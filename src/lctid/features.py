"""Framewise acoustic features and feature-matrix assembly.

Ten handcrafted channels (prosodic: F0, ENERGY, VPROB on 60 ms frames;
voice quality: JITTER, DJITTER, SHIMMER, HNR; spectral: SFLUX, SHARP;
temporal: ZCR on 20 ms frames) plus 13 MFCCs, all on a shared 10 ms hop
grid.  Unvoiced frames carry zeros in the F0 and voice-quality channels so
every channel stays dense for the CNN.

Each channel has one row kernel over a frame or spectrum stack.  The
voice-quality kernels run once per utterance over the stack of its voiced
20 ms frames: JITTER, DJITTER and SHIMMER reduce the padded period and
amplitude rows of `pitch.track_periods` (0 for a frame with too few
periods), and HNR reads the autocorrelation of every row near its pitch
lag from one FFT.  The analysis settings (SHS in `pitch`, MFCC here) are
module constants and the rate is `corpus.CANONICAL_RATE_HZ`, so
`extract_matrix` takes a waveform and a channel set and nothing else.
The MFCCs' DCT-II is one matmul on a constant cosine basis, `MFCC_DCT`,
so extraction runs on numpy alone and never imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import dsp, pitch
from .corpus import CANONICAL_RATE_HZ, Waveform

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
    "FeatureMatrix", "NormStats",
    "resolve_featureset", "energy_rows", "zcr_rows", "jitter",
    "jitter_derivative", "shimmer", "hnr", "sharpness_rows", "flux_rows",
    "mfcc_rows", "mel_filterbank", "extract_matrix", "fit_norm", "apply_norm",
]


def resolve_featureset(spec: str | Iterable[str]) -> tuple[str, ...]:
    """Set names ('handcrafted', 'mfcc', 'all') and channel ids, as a comma
    list or an iterable -> the union of their channels in canonical order."""
    items = spec.split(",") if isinstance(spec, str) else spec
    wanted: set[str] = set()
    unknown = []
    for item in items:
        name = str(item).strip()
        if name.lower() in FEATURESET_NAMES:
            wanted.update(FEATURESET_NAMES[name.lower()])
        elif name.upper() in ALL_IDS:
            wanted.add(name.upper())
        elif name:
            unknown.append(name.upper())
    if unknown:
        raise ValueError(f"unknown feature ids {unknown}; valid ids: {', '.join(ALL_IDS)}")
    if not wanted:
        raise ValueError("empty feature set")
    return tuple(i for i in ALL_IDS if i in wanted)


@dataclass(frozen=True)
class FeatureMatrix:
    """Channels x frames matrix on the shared 10 ms grid."""

    values: np.ndarray
    channel_ids: tuple[str, ...]

    @property
    def num_frames(self) -> int:
        return self.values.shape[1]

    @property
    def duration_s(self) -> float:
        return self.num_frames * dsp.HOP_MS / 1000.0

    def channels(self, ids: Sequence[str]) -> "FeatureMatrix":
        """Row subset in the order given."""
        index = {c: i for i, c in enumerate(self.channel_ids)}
        missing = [c for c in ids if c not in index]
        if missing:
            raise KeyError(f"channels not present: {missing}")
        rows = [index[c] for c in ids]
        return FeatureMatrix(values=self.values[rows], channel_ids=tuple(ids))


@dataclass(frozen=True)
class NormStats:
    """Per-channel z-score statistics fitted on training data."""

    mean: np.ndarray
    std: np.ndarray  # floored at 1e-8
    channel_ids: tuple[str, ...]


# ---------------------------------------------------------------------------
# Row kernels: one value per frame of an (n, frame_len) frame stack or an
# stack of magnitude spectra from `dsp.magnitude_spectra`

def energy_rows(frames: np.ndarray) -> np.ndarray:
    """Sum of squared amplitudes of each frame."""
    return np.einsum("ij,ij->i", frames, frames)


def zcr_rows(frames: np.ndarray) -> np.ndarray:
    """Sign changes per second (at `CANONICAL_RATE_HZ`) of each frame; a
    zero sample defers to its neighbours."""
    nonzero = frames[:, 1:] != 0.0
    direct = (frames[:, :-1] * frames[:, 1:] < 0.0) & nonzero
    counts = direct.sum(axis=1)
    if frames.shape[1] >= 3:
        mid_zero = frames[:, 1:-1] == 0.0
        skipped = (frames[:, :-2] * frames[:, 2:] < 0.0) & mid_zero
        counts = counts + skipped.sum(axis=1)
    return counts / (frames.shape[1] / CANONICAL_RATE_HZ)


def sharpness_rows(mags: np.ndarray) -> np.ndarray:
    """Spectral centroid on the Bark scale (perceived sharpness) of each
    spectrum, its bins at `CANONICAL_RATE_HZ`; 0 for a silent one."""
    barks = dsp.hz_to_bark(dsp.bin_frequencies(2 * mags.shape[1]))
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
    unit = np.divide(mags, norms[:, None], out=np.zeros_like(mags), where=ok[:, None])
    d = unit[1:] - unit[:-1]
    flux = np.einsum("ij,ij->i", d, d)
    both = ok[1:] & ok[:-1]
    out[1:] = np.where(both, flux, 0.0)
    return out


def _row_means(a: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of the first counts[i] entries of row i; 0 where counts[i] < 1.

    Rows are grouped by count so that each mean is summed over exactly its
    own entries, in the order np.mean sums a row of that length.
    """
    out = np.zeros(a.shape[0])
    for k in np.unique(counts[counts > 0]):
        rows = counts == k
        out[rows] = a[rows, :k].mean(axis=1)
    return out


def _change_over_mean(change: np.ndarray, lost: int, values: np.ndarray,
                      counts: np.ndarray, min_count: int) -> np.ndarray:
    """Mean of each row's first counts[i] - lost `change` entries over the
    mean of its first counts[i] `values`; 0 for a row with fewer than
    `min_count` values or a mean <= 0."""
    scale = _row_means(values, counts)
    return np.divide(_row_means(change, counts - lost), scale,
                     out=np.zeros(values.shape[0]),
                     where=(counts >= min_count) & (scale > 0.0))


def jitter(p: pitch.PeriodSequence) -> np.ndarray:
    """Mean absolute successive period difference over the mean period, per
    row; 0 for a row with fewer than 3 periods."""
    first = np.abs(np.diff(p.periods_s, axis=1))
    return _change_over_mean(first, 1, p.periods_s, p.counts, 3)


def jitter_derivative(p: pitch.PeriodSequence) -> np.ndarray:
    """Mean absolute difference of successive absolute period differences
    over the mean period, per row; 0 for a row with fewer than 4 periods."""
    first = np.abs(np.diff(p.periods_s, axis=1))
    second = np.abs(np.diff(first, axis=1))
    return _change_over_mean(second, 2, p.periods_s, p.counts, 4)


def shimmer(p: pitch.PeriodSequence) -> np.ndarray:
    """Mean absolute successive cycle-amplitude difference over the mean
    amplitude, per row; 0 for a row with fewer than 3 periods."""
    first = np.abs(np.diff(p.peak_amps, axis=1))
    return _change_over_mean(first, 1, p.peak_amps, p.counts, 3)


_HNR_CLAMP = (1e-4, 1e4)


def _fast_fft_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n (1 for n < 1), the size that
    `scipy.fft.next_fast_len(n, real=True)` picks."""
    size = max(n, 1)
    while True:
        rest = size
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


def hnr(frames: np.ndarray, f0s: np.ndarray) -> np.ndarray:
    """log10 harmonic-to-noise energy ratio of each row via normalized
    autocorrelation, each row at its own f0 (Hz at `CANONICAL_RATE_HZ`).

    r at the pitch lag estimates harmonic_energy / total_energy, so the
    ratio r / (1 - r) is harmonic over noise energy; it is clamped to
    [1e-4, 1e4] before taking the log.  r is the largest
    x[:-l]·x[l:] / sqrt(|x[:-l]|² |x[l:]|²) over the lags l within 4 % (at
    least 1) of the row's pitch lag, 0 if none is positive.  The cross
    terms of all rows come from one inverse FFT of |X|² (Wiener–Khinchin),
    with X zero-padded to at least twice the frame so that no lag wraps,
    and the two partial energies from running sums of x² from either end.

    Raises UnvoicedFrameError if any f0 is not positive.
    """
    x = np.asarray(frames, dtype=np.float64)
    f0 = np.asarray(f0s, dtype=np.float64)
    if not np.all(f0 > 0.0):
        raise pitch.UnvoicedFrameError("unvoiced frame (f0 = 0)")
    n, size = x.shape
    rows = np.arange(n)[:, None]
    lag = np.round(CANONICAL_RATE_HZ / f0).astype(np.intp)
    halo = np.maximum(1, np.round(0.04 * lag).astype(np.intp))
    # One gather over the stack's widest halo; offsets past a row's own
    # halo, or lags outside the frame, read -1 and never win the max.
    reach = int(halo.max(initial=0))
    dl = np.arange(-reach, reach + 1)
    lg = lag[:, None] + dl
    ok = (np.abs(dl) <= halo[:, None]) & (lg >= 1) & (lg < size - 1)
    lg = np.where(ok, lg, 1)
    # Each whole-stack temporary is dropped once read (the running sums
    # before the FFT, the complex spectra before its inverse), so no two of
    # them are alive together.
    squares = x * x
    end = size - lg - 1
    head = np.cumsum(squares, axis=1)[rows, end]          # |x[:-l]|²
    tail = np.cumsum(squares[:, ::-1], axis=1)[rows, end]  # |x[l:]|²
    del squares
    denom = np.sqrt(head * tail)
    ok &= denom > 0.0
    fft_size = _fast_fft_size(2 * size)
    spec = np.fft.rfft(x, n=fft_size, axis=1)
    power = spec.real ** 2
    power += spec.imag ** 2
    del spec
    cross = np.fft.irfft(power, n=fft_size, axis=1)
    r = np.divide(cross[rows, lg], denom, out=np.full(lg.shape, -1.0), where=ok)
    best = np.maximum(r.max(axis=1), 0.0)
    linear = best / np.maximum(1.0 - best, 1e-15)
    return np.log10(np.clip(linear, *_HNR_CLAMP))


# ---------------------------------------------------------------------------
# MFCC

MEL_FILTERS = 26     # triangles from 0 Hz to Nyquist
PRE_EMPHASIS = 0.97
LOG_FLOOR = 1e-10    # floor on each filter energy before the log

# The orthonormal DCT-II basis as a (MEL_FILTERS, len(MFCC_IDS)) matrix:
# column k is sqrt(2/N) cos(pi k (2n + 1) / 2N) over the N filters, column 0
# scaled by 1/sqrt(2), so logs @ MFCC_DCT is the first len(MFCC_IDS)
# coefficients of scipy.fft.dct(logs, type=2, norm="ortho") up to rounding.
MFCC_DCT = np.sqrt(2.0 / MEL_FILTERS) * np.cos(
    np.pi / (2 * MEL_FILTERS)
    * np.outer(2 * np.arange(MEL_FILTERS) + 1, np.arange(len(MFCC_IDS))))
MFCC_DCT[:, 0] /= np.sqrt(2.0)
MFCC_DCT.flags.writeable = False

_mel_cache: dict[int, np.ndarray] = {}


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_filterbank(fft_size: int) -> np.ndarray:
    """(MEL_FILTERS, fft_size//2) triangular weights over bins 1..K/2, from
    0 Hz to the Nyquist frequency of `CANONICAL_RATE_HZ`.

    Triangles are linear in mel, so interior bins between the first and
    last filter centre see weights summing to exactly 1.
    """
    if fft_size in _mel_cache:
        return _mel_cache[fft_size]
    mel_pts = np.linspace(_hz_to_mel(0.0), _hz_to_mel(CANONICAL_RATE_HZ / 2.0),
                          MEL_FILTERS + 2)
    bin_mels = _hz_to_mel(dsp.bin_frequencies(fft_size))
    bank = np.zeros((MEL_FILTERS, fft_size // 2))
    for m in range(MEL_FILTERS):
        lo, mid, hi = mel_pts[m], mel_pts[m + 1], mel_pts[m + 2]
        up = (bin_mels - lo) / (mid - lo)
        down = (hi - bin_mels) / (hi - mid)
        bank[m] = np.clip(np.minimum(up, down), 0.0, 1.0)
    _mel_cache[fft_size] = bank
    return bank


def mfcc_rows(frames: np.ndarray) -> np.ndarray:
    """Mel-frequency cepstral coefficients of each frame: (n, frame_len) ->
    (n, len(MFCC_IDS)).  The orthonormal DCT-II of the log filter energies
    is one matmul on the constant basis `MFCC_DCT`."""
    emphasized = frames.copy()
    emphasized[:, 1:] -= PRE_EMPHASIS * frames[:, :-1]
    mags = dsp.magnitude_spectra(emphasized)
    bank = mel_filterbank(2 * mags.shape[1])
    energies = mags ** 2 @ bank.T
    logs = np.log(np.maximum(energies, LOG_FLOOR))
    return logs @ MFCC_DCT


# ---------------------------------------------------------------------------
# Matrix extraction

def extract_matrix(waveform: Waveform,
                   featureset: str | Iterable[str] = "handcrafted",
                   source_id: str = "") -> FeatureMatrix:
    """Compute the requested channels for one utterance.

    Prosodic channels use 60 ms frames, everything else 20 ms, all on the
    common 10 ms hop.  Every channel set gets the frame count of the 60 ms
    series, floor((N - 60 ms) / 10 ms) + 1, and the 20 ms series is cut to
    it, so frame i of any channel starts at sample i * hop and a row does
    not depend on which other channels were asked for.  Raises ValueError
    for a waveform at any rate but `CANONICAL_RATE_HZ`.
    """
    channels = resolve_featureset(featureset)
    if waveform.sample_rate_hz != CANONICAL_RATE_HZ:
        raise ValueError(f"sample rate {waveform.sample_rate_hz} Hz; features "
                         f"are computed at {CANONICAL_RATE_HZ} Hz")
    x = np.asarray(waveform.samples, dtype=np.float64)
    if x.size < dsp.samples_for_ms(MIN_WAVEFORM_MS):
        raise ValueError(f"waveform too short: {x.size / CANONICAL_RATE_HZ * 1000.0:.1f}"
                         f" ms < {MIN_WAVEFORM_MS:g} ms")

    wanted = set(channels)
    vq = wanted & set(VOICE_QUALITY_IDS)
    need_pitch = bool(wanted & {"F0", "VPROB"} or vq)
    num_frames = ((x.size - dsp.samples_for_ms(PROSODIC_FRAME_MS))
                  // dsp.samples_for_ms(dsp.HOP_MS) + 1)
    if need_pitch or "ENERGY" in wanted:
        frames60 = dsp.frame_signal(x, PROSODIC_FRAME_MS)
    if wanted - set(PROSODIC_IDS):
        frames20 = dsp.frame_signal(x, OTHER_FRAME_MS)[:num_frames]

    rows = {}
    if need_pitch:
        f0s, vprobs = pitch.shs_batch(dsp.magnitude_spectra(frames60))
        f0s = np.where(vprobs >= pitch.VOICING_THRESHOLD, f0s, 0.0)
        rows["F0"], rows["VPROB"] = f0s, vprobs
    if "ENERGY" in wanted:
        rows["ENERGY"] = energy_rows(frames60)
    if vq:
        rows.update(_voice_quality_rows(frames20, f0s, vq))
    if wanted & {"SFLUX", "SHARP"}:
        mags20 = dsp.magnitude_spectra(frames20)
        if "SFLUX" in wanted:
            rows["SFLUX"] = flux_rows(mags20)
        if "SHARP" in wanted:
            rows["SHARP"] = sharpness_rows(mags20)
    if "ZCR" in wanted:
        rows["ZCR"] = zcr_rows(frames20)
    if wanted & set(MFCC_IDS):
        rows.update(zip(MFCC_IDS, mfcc_rows(frames20).T))

    values = np.empty((len(channels), num_frames))
    for i, c in enumerate(channels):
        values[i] = rows[c]
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite feature values for {source_id or 'utterance'}")
    return FeatureMatrix(values=values, channel_ids=channels)


def _voice_quality_rows(frames20: np.ndarray, f0s: np.ndarray,
                        wanted: set) -> dict[str, np.ndarray]:
    """The wanted voice-quality channels: each kernel runs once over the
    stack of voiced frames, and unvoiced frames keep 0."""
    voiced = f0s > 0.0
    frames, f0 = frames20[voiced], f0s[voiced]
    # Built per call, so that a wrapper installed on the module attribute
    # (as the benchmark's tracer does) is the one called.
    period_stats = {"JITTER": jitter, "DJITTER": jitter_derivative,
                    "SHIMMER": shimmer}
    if wanted & period_stats.keys():
        seq = pitch.track_periods(frames, f0)
    out = {}
    for c in wanted:
        out[c] = np.zeros(f0s.shape[0])
        out[c][voiced] = hnr(frames, f0) if c == "HNR" else period_stats[c](seq)
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
    return FeatureMatrix(values=values, channel_ids=matrix.channel_ids)
