"""Subharmonic-summation (SHS) pitch estimation and pitch-period tracking.

The subharmonic sum accumulates compressed copies of the auditory-weighted
magnitude spectrum at integer multiples of each candidate frequency on a
log-frequency grid, so harmonic evidence piles up at the fundamental even
when the fundamental itself is absent.  Voicing probability is the
peak-to-mean contrast of the flat-response-equalized sum: a featureless
(noise) spectrum gives peak ~= mean and hence probability ~= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShsConfig",
    "DEFAULT_SHS",
    "PeriodSequence",
    "UnvoicedFrameError",
    "TooFewPeriodsError",
    "shs_batch",
    "track_periods",
    "voicing_probability",
]


@dataclass(frozen=True)
class ShsConfig:
    f_min_hz: float = 60.0
    f_max_hz: float = 400.0
    num_harmonics: int = 15
    compression: float = 0.84          # weight c**(h-1) on harmonic h
    points_per_octave: int = 192
    rolloff_hz: float = 1250.0         # arctangent low-frequency rolloff knee
    voicing_threshold: float = 0.45    # frames at or above count as voiced


DEFAULT_SHS = ShsConfig()


@dataclass(frozen=True)
class PeriodSequence:
    """Successive pitch periods and the peak-to-peak amplitude of each cycle."""

    periods_s: np.ndarray
    peak_amps: np.ndarray


class UnvoicedFrameError(ValueError):
    pass


class TooFewPeriodsError(ValueError):
    pass


def voicing_probability(candidate_amp: float, shs_mean: float) -> float:
    """1 - mean/amplitude, clamped to [0, 1]; 0 for a degenerate candidate."""
    if candidate_amp <= 0:
        return 0.0
    return float(np.clip(1.0 - shs_mean / candidate_amp, 0.0, 1.0))


class _ShsKernel:
    """Precomputed grid and interpolation weights for one spectrum geometry."""

    def __init__(self, fft_size: int, bin_hz: float, cfg: ShsConfig):
        nbins = fft_size // 2
        n_oct = np.log2(cfg.f_max_hz / cfg.f_min_hz)
        grid_n = int(np.ceil(n_oct * cfg.points_per_octave)) + 1
        self.log_step = n_oct / (grid_n - 1)
        self.grid_hz = cfg.f_min_hz * 2.0 ** (np.arange(grid_n) * self.log_step)
        weights = np.zeros((grid_n, nbins))
        for h in range(1, cfg.num_harmonics + 1):
            f = h * self.grid_hz
            w = cfg.compression ** (h - 1) * _arctan_weight(f, cfg.rolloff_hz)
            pos = f / bin_hz - 1.0  # stored bins start at bin 1
            ok = (pos >= 0.0) & (pos <= nbins - 1)
            rows = np.nonzero(ok)[0]
            j0 = np.floor(pos[ok]).astype(np.intp)
            frac = pos[ok] - j0
            np.add.at(weights, (rows, j0), w[ok] * (1.0 - frac))
            np.add.at(weights, (rows, np.minimum(j0 + 1, nbins - 1)), w[ok] * frac)
        self.weights = weights
        # Response to a flat spectrum; used to equalize before Eq.-style voicing.
        self.flat_response = weights.sum(axis=1)


_kernel_cache: dict[tuple, _ShsKernel] = {}


def _arctan_weight(f: np.ndarray, rolloff_hz: float) -> np.ndarray:
    return np.clip(0.5 + np.arctan(3.0 * np.log2(f / rolloff_hz)) / np.pi, 0.0, 1.0)


def _kernel(fft_size: int, bin_hz: float, cfg: ShsConfig) -> _ShsKernel:
    key = (fft_size, round(bin_hz, 9), cfg)
    if key not in _kernel_cache:
        _kernel_cache[key] = _ShsKernel(fft_size, bin_hz, cfg)
    return _kernel_cache[key]


def _refine_peak(s: np.ndarray, i: int, kernel: _ShsKernel) -> float:
    """Frequency of peak i by parabolic interpolation in the log-frequency domain."""
    if 0 < i < s.size - 1:
        denom = s[i - 1] - 2.0 * s[i] + s[i + 1]
        if denom != 0.0:
            d = float(np.clip(0.5 * (s[i - 1] - s[i + 1]) / denom, -0.5, 0.5))
            return float(kernel.grid_hz[i] * 2.0 ** (d * kernel.log_step))
    return float(kernel.grid_hz[i])


def shs_batch(magnitudes: np.ndarray, fft_size: int, bin_hz: float,
              cfg: ShsConfig = DEFAULT_SHS) -> tuple[np.ndarray, np.ndarray]:
    """f0 and voicing probability for a stack of spectra (n, fft_size//2).

    The f0 of a row is the argmax of its subharmonic sum, refined by
    parabolic interpolation.  Returns (f0_hz, voicing_prob) arrays of
    length n; degenerate (all-zero) rows get 0 in both.
    """
    kernel = _kernel(fft_size, bin_hz, cfg)
    mags = np.atleast_2d(magnitudes)
    s = mags @ kernel.weights.T  # (n, grid)
    n = s.shape[0]
    f0 = np.zeros(n)
    vprob = np.zeros(n)
    live = s.max(axis=1) > 0.0
    if not np.any(live):
        return f0, vprob
    idx = np.argmax(s, axis=1)
    s_eq = s / kernel.flat_response
    for r in np.nonzero(live)[0]:
        f0[r] = _refine_peak(s[r], int(idx[r]), kernel)
        vprob[r] = voicing_probability(float(s_eq[r, idx[r]]),
                                       float(s_eq[r].mean()))
    return f0, vprob


def track_periods(frame: np.ndarray, f0_hz: float, sample_rate_hz: int,
                  search_frac: float = 0.25) -> PeriodSequence:
    """Locate glottal-cycle marks by peak picking around each predicted mark.

    The next mark is searched within +-search_frac of the nominal period
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
        lo = max(coarse[-1] + 1, int(np.floor(center - search_frac * period)))
        hi = int(np.ceil(center + search_frac * period)) + 1
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
