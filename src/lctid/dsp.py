"""Framing, windowing, magnitude spectra, and the Hz-to-Bark transform.

Shared conventions for every feature extractor: 16 kHz (the one analysis
rate, `corpus.CANONICAL_RATE_HZ`), 10 ms hop, Hamming window, FFT size =
smallest power of two >= frame length, DC bin excluded from spectral sums.
The windows of the two frame lengths are read-only constants built at import.
Frames are read-only views into the signal, never copies, so framing an
utterance allocates nothing the size of its frame stack.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np
# numpy loads numpy.fft on first use; loading it with the program keeps
# any call from loading a module
from numpy.fft import rfft

from .corpus import CANONICAL_RATE_HZ

HOP_MS = 10.0
PROSODIC_FRAME_MS = 60.0  # F0, ENERGY and VPROB
OTHER_FRAME_MS = 20.0     # every other channel

__all__ = [
    "HOP_MS",
    "PROSODIC_FRAME_MS",
    "OTHER_FRAME_MS",
    "frame_signal",
    "magnitude_spectra",
    "bin_frequencies",
    "default_fft_size",
    "hz_to_bark",
    "samples_for_ms",
]


def samples_for_ms(ms: float) -> int:
    """Number of samples in `ms` milliseconds at `CANONICAL_RATE_HZ`."""
    return int(round(ms * CANONICAL_RATE_HZ / 1000.0))


def frame_signal(samples: np.ndarray, frame_ms: float) -> np.ndarray:
    """Slice a signal into overlapping frames on the `HOP_MS` grid (no window).

    Returns the (num_frames, frame_len) array whose row i is exactly the
    signal slice [i*hop, i*hop + frame_len).  It is a read-only strided view
    of the float64 signal (of `samples` itself when that is a float64 array),
    so consecutive rows share samples; copy it before writing.  Raises
    ValueError if the signal is shorter than one frame.
    """
    x = np.ascontiguousarray(samples, dtype=np.float64)
    frame_len = samples_for_ms(frame_ms)
    hop = samples_for_ms(HOP_MS)
    if x.ndim != 1:
        raise ValueError("expected a mono signal")
    if x.size < frame_len:
        raise ValueError(
            f"signal of {x.size} samples is shorter than one {frame_ms:g} ms "
            f"frame ({frame_len} samples)")
    return np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]


def default_fft_size(frame_len: int) -> int:
    """Smallest power of two >= frame_len."""
    k = 1
    while k < frame_len:
        k *= 2
    return k


def bin_frequencies(frame_ms: float) -> np.ndarray:
    """Centre frequency (Hz at `CANONICAL_RATE_HZ`) of bins 1..K/2, the
    columns of `magnitude_spectra` of `frame_ms` frames."""
    fft_size = default_fft_size(samples_for_ms(frame_ms))
    return np.arange(1, fft_size // 2 + 1) * (CANONICAL_RATE_HZ / fft_size)


# The read-only Hamming window of each analysis frame, by its sample count.
WINDOWS = MappingProxyType({n: np.hamming(n) for n in map(
    samples_for_ms, (PROSODIC_FRAME_MS, OTHER_FRAME_MS))})
for _window in WINDOWS.values():
    _window.flags.writeable = False
del _window


def magnitude_spectra(frames: np.ndarray) -> np.ndarray:
    """Magnitude spectra of a stack of frames: (n, frame_len) -> (n, K/2)
    with K = default_fft_size(frame_len).

    Hamming window, then zero-pad to K; returns bins 1..K/2, whose centre
    frequencies are `bin_frequencies` of the frame length.  Raises
    ValueError for frames of any length but the two in `WINDOWS`.
    """
    frames = np.atleast_2d(frames)
    n, fft_size = frames.shape[1], default_fft_size(frames.shape[1])
    if n not in WINDOWS:
        raise ValueError(f"no window for {n}-sample frames, only {' or '.join(map(str, WINDOWS))}")
    spectra = rfft(frames * WINDOWS[n], n=fft_size, axis=1)
    return np.abs(spectra[:, 1:fft_size // 2 + 1])


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
