"""Framing, windowing, magnitude spectra, and the Hz-to-Bark transform.

Shared conventions for every feature extractor: 10 ms hop, Hamming window,
FFT size = smallest power of two >= frame length, DC bin excluded from all
spectral sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HOP_MS = 10.0

__all__ = [
    "HOP_MS",
    "FrameSeries",
    "frame_signal",
    "magnitude_spectra",
    "bin_frequencies",
    "default_fft_size",
    "hz_to_bark",
    "samples_for_ms",
]


def samples_for_ms(ms: float, sample_rate_hz: int) -> int:
    """Number of samples in `ms` milliseconds at the given rate."""
    return int(round(ms * sample_rate_hz / 1000.0))


@dataclass(frozen=True)
class FrameSeries:
    """Frames cut from a signal on a fixed hop grid; no window applied.

    Frame i holds exactly the signal slice [i*hop, i*hop + frame_len).
    """

    frames: np.ndarray  # (num_frames, frame_len)
    frame_ms: float
    hop_ms: float
    sample_rate_hz: int

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def frame_len(self) -> int:
        return self.frames.shape[1]

    @property
    def hop(self) -> int:
        return samples_for_ms(self.hop_ms, self.sample_rate_hz)


def frame_signal(samples: np.ndarray, sample_rate_hz: int, frame_ms: float,
                 hop_ms: float = HOP_MS) -> FrameSeries:
    """Slice a signal into overlapping frames (no window).

    Raises ValueError if the signal is shorter than one frame.
    """
    x = np.ascontiguousarray(samples, dtype=np.float64)
    frame_len = samples_for_ms(frame_ms, sample_rate_hz)
    hop = samples_for_ms(hop_ms, sample_rate_hz)
    if x.ndim != 1:
        raise ValueError("expected a mono signal")
    if x.size < frame_len:
        raise ValueError(
            f"signal of {x.size} samples is shorter than one {frame_ms:g} ms "
            f"frame ({frame_len} samples)")
    windows = np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]
    return FrameSeries(frames=np.ascontiguousarray(windows), frame_ms=frame_ms,
                       hop_ms=hop_ms, sample_rate_hz=sample_rate_hz)


def default_fft_size(frame_len: int) -> int:
    """Smallest power of two >= frame_len."""
    k = 1
    while k < frame_len:
        k *= 2
    return k


def magnitude_spectra(frames: np.ndarray, fft_size: int) -> np.ndarray:
    """Magnitude spectra of a stack of frames: (n, frame_len) -> (n, fft_size//2).

    Hamming window, then zero-pad to fft_size; returns bins 1..K/2, whose
    centre frequencies are `bin_frequencies(fft_size, sample_rate_hz)`.
    """
    frames = np.atleast_2d(frames)
    frame_len = frames.shape[1]
    if fft_size < frame_len:
        raise ValueError(f"fft_size {fft_size} < frame length {frame_len}")
    if fft_size & (fft_size - 1):
        raise ValueError(f"fft_size {fft_size} is not a power of two")
    windowed = frames * np.hamming(frame_len)
    return np.abs(np.fft.rfft(windowed, n=fft_size, axis=1))[:, 1:fft_size // 2 + 1]


def bin_frequencies(fft_size: int, sample_rate_hz: int) -> np.ndarray:
    """Centre frequency (Hz) of bins 1..K/2, the columns of magnitude_spectra."""
    return np.arange(1, fft_size // 2 + 1) * (sample_rate_hz / fft_size)


# Traunmueller closed form, clamped at zero so that 0 Hz maps to 0 Bark
# (the raw formula is negative below ~39.5 Hz).
_BARK_A = 26.81
_BARK_B = 1960.0
_BARK_C = 0.53


def hz_to_bark(f):
    """Forward Hz -> Bark transform; monotone nondecreasing, 0 at 0 Hz."""
    f = np.asarray(f, dtype=np.float64)
    if np.any(f < 0):
        raise ValueError("negative frequency")
    z = np.maximum(0.0, _BARK_A * f / (_BARK_B + f) - _BARK_C)
    return float(z) if z.ndim == 0 else z
