"""Subharmonic-summation (SHS) pitch estimation and pitch-period tracking.

The subharmonic sum (Hermes 1988) accumulates compressed copies of the
auditory-weighted magnitude spectrum at integer multiples of each candidate
frequency on a log-frequency grid, so harmonic evidence piles up at the
fundamental even when the fundamental itself is absent.  `shs_batch` reads
f0 and the voicing probability of every row of a spectrum stack at once:
f0 is the argmax of the sum, refined by parabolic interpolation, and the
voicing probability is the peak-to-mean contrast of the flat-response-
equalised sum at that argmax, so a featureless (noise) spectrum gives
peak ~= mean and hence probability ~= 0.  The analysis settings are module
constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "VOICING_THRESHOLD",
    "PeriodSequence",
    "UnvoicedFrameError",
    "TooFewPeriodsError",
    "shs_batch",
    "track_periods",
]

F_MIN_HZ = 60.0
F_MAX_HZ = 400.0
NUM_HARMONICS = 15
COMPRESSION = 0.84          # weight c**(h-1) on harmonic h
POINTS_PER_OCTAVE = 192
ROLLOFF_HZ = 1250.0         # arctangent low-frequency rolloff knee
VOICING_THRESHOLD = 0.45    # frames at or above count as voiced
SEARCH_FRAC = 0.25          # track_periods' search half-width, in periods


@dataclass(frozen=True)
class PeriodSequence:
    """Successive pitch periods and the peak-to-peak amplitude of each cycle."""

    periods_s: np.ndarray
    peak_amps: np.ndarray


class UnvoicedFrameError(ValueError):
    pass


class TooFewPeriodsError(ValueError):
    pass


class _ShsKernel:
    """Precomputed grid and interpolation weights for one spectrum geometry."""

    def __init__(self, fft_size: int, bin_hz: float):
        nbins = fft_size // 2
        n_oct = np.log2(F_MAX_HZ / F_MIN_HZ)
        grid_n = int(np.ceil(n_oct * POINTS_PER_OCTAVE)) + 1
        self.log_step = n_oct / (grid_n - 1)
        self.grid_hz = F_MIN_HZ * 2.0 ** (np.arange(grid_n) * self.log_step)
        weights = np.zeros((grid_n, nbins))
        for h in range(1, NUM_HARMONICS + 1):
            f = h * self.grid_hz
            w = COMPRESSION ** (h - 1) * _arctan_weight(f)
            pos = f / bin_hz - 1.0  # stored bins start at bin 1
            ok = (pos >= 0.0) & (pos <= nbins - 1)
            rows = np.nonzero(ok)[0]
            j0 = np.floor(pos[ok]).astype(np.intp)
            frac = pos[ok] - j0
            np.add.at(weights, (rows, j0), w[ok] * (1.0 - frac))
            np.add.at(weights, (rows, np.minimum(j0 + 1, nbins - 1)), w[ok] * frac)
        self.weights = weights
        # Response to a flat spectrum; used to equalize before the voicing readout.
        self.flat_response = weights.sum(axis=1)


_kernel_cache: dict[tuple, _ShsKernel] = {}


def _arctan_weight(f: np.ndarray) -> np.ndarray:
    return np.clip(0.5 + np.arctan(3.0 * np.log2(f / ROLLOFF_HZ)) / np.pi, 0.0, 1.0)


def _kernel(fft_size: int, bin_hz: float) -> _ShsKernel:
    key = (fft_size, round(bin_hz, 9))
    if key not in _kernel_cache:
        _kernel_cache[key] = _ShsKernel(fft_size, bin_hz)
    return _kernel_cache[key]


def shs_batch(magnitudes: np.ndarray, fft_size: int,
              bin_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """f0 and voicing probability for a stack of spectra (n, fft_size//2).

    The f0 of a row is the argmax of its subharmonic sum, moved by the
    vertex of the parabola through the argmax and its two neighbours (at
    most half a grid step, in log frequency; none at the grid's ends or on
    a flat top).  The voicing probability is 1 - mean/peak of the
    equalised sum, peak taken at the same argmax, clamped to [0, 1].
    Returns (f0_hz, voicing_prob) arrays of length n; degenerate
    (all-zero) rows get 0 in both.
    """
    kernel = _kernel(fft_size, bin_hz)
    s = np.atleast_2d(magnitudes) @ kernel.weights.T  # (n, grid)
    n, grid = s.shape
    rows = np.arange(n)
    idx = np.argmax(s, axis=1)
    peak = s[rows, idx]
    live = peak > 0.0

    left = s[rows, np.maximum(idx - 1, 0)]
    right = s[rows, np.minimum(idx + 1, grid - 1)]
    denom = left - 2.0 * peak + right
    bend = (idx > 0) & (idx < grid - 1) & (denom != 0.0)
    d = np.divide(0.5 * (left - right), denom, out=np.zeros(n), where=bend)
    f0 = kernel.grid_hz[idx] * 2.0 ** (np.clip(d, -0.5, 0.5) * kernel.log_step)

    s_eq = s / kernel.flat_response
    ratio = np.divide(s_eq.mean(axis=1), s_eq[rows, idx], out=np.ones(n),
                      where=live)
    return np.where(live, f0, 0.0), np.clip(1.0 - ratio, 0.0, 1.0)


def track_periods(frame: np.ndarray, f0_hz: float,
                  sample_rate_hz: int) -> PeriodSequence:
    """Locate glottal-cycle marks by peak picking around each predicted mark.

    The next mark is searched within +-SEARCH_FRAC of the nominal period
    around the previous mark plus one period.  Periods are the successive
    mark differences; each cycle's amplitude is max - min of its samples.

    Raises UnvoicedFrameError if f0_hz <= 0 and TooFewPeriodsError when
    fewer than 3 periods fit in the frame.
    """
    if f0_hz <= 0.0:
        raise UnvoicedFrameError("unvoiced frame (f0 = 0)")
    x = np.asarray(frame, dtype=np.float64)
    period = sample_rate_hz / f0_hz
    first_end = min(x.size, int(np.ceil(1.25 * period)))
    if first_end <= 0:
        raise TooFewPeriodsError("frame shorter than one period")
    coarse = [int(np.argmax(x[:first_end]))]
    while True:
        center = coarse[-1] + period
        lo = max(coarse[-1] + 1, int(np.floor(center - SEARCH_FRAC * period)))
        hi = int(np.ceil(center + SEARCH_FRAC * period)) + 1
        if hi > x.size:
            break
        coarse.append(lo + int(np.argmax(x[lo:hi])))
    if len(coarse) < 4:
        raise TooFewPeriodsError(
            f"only {max(0, len(coarse) - 1)} periods found; need at least 3")
    # Sub-sample peak refinement; integer quantization of the marks would
    # otherwise put a ~1/period jitter floor on every measurement.
    marks = np.array([m + _parabolic_offset(x, m) for m in coarse])
    periods_s = np.diff(marks) / sample_rate_hz
    amps = np.array([float(np.max(x[a:b + 1]) - np.min(x[a:b + 1]))
                     for a, b in zip(coarse[:-1], coarse[1:])])
    return PeriodSequence(periods_s=periods_s, peak_amps=amps)


def _parabolic_offset(x: np.ndarray, m: int) -> float:
    if not 0 < m < x.size - 1:
        return 0.0
    denom = x[m - 1] - 2.0 * x[m] + x[m + 1]
    if denom == 0.0:
        return 0.0
    return float(np.clip(0.5 * (x[m - 1] - x[m + 1]) / denom, -0.5, 0.5))
