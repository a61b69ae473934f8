"""Subharmonic-summation (SHS) pitch estimation and pitch-period tracking.

The subharmonic sum (Hermes 1988) accumulates compressed copies of the
auditory-weighted magnitude spectrum at integer multiples of each candidate
frequency on a log-frequency grid, so harmonic evidence piles up at the
fundamental even when the fundamental itself is absent.  `shs_batch` reads
f0 and the voicing probability of every row of a spectrum stack at once:
f0 is the argmax of the sum, refined by parabolic interpolation, and the
voicing probability is the peak-to-mean contrast of the flat-response-
equalised sum at that argmax, so a featureless (noise) spectrum gives
peak ~= mean and hence probability ~= 0.  `track_periods` marks the
glottal cycles of every voiced frame of a stack at once, stepping all rows
mark by mark, and returns their periods and cycle amplitudes as padded
rows with a per-row period count.  The analysis settings are module
constants, and the SHS tables (`SHS_*`) read-only constants built at import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp
from .corpus import CANONICAL_RATE_HZ

__all__ = [
    "VOICING_THRESHOLD",
    "PeriodSequence",
    "UnvoicedFrameError",
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
    """Successive pitch periods and the peak-to-peak amplitude of each cycle,
    one row per frame.

    Row i holds `counts[i]` periods (s at `CANONICAL_RATE_HZ`) and
    amplitudes; the entries after them are 0.
    """

    periods_s: np.ndarray  # (n, width)
    peak_amps: np.ndarray  # (n, width)
    counts: np.ndarray     # (n,) integers


class UnvoicedFrameError(ValueError):
    pass


def _shs_tables(nbins: int):
    """The log-frequency grid, its step in octaves, the weights of each
    harmonic of each grid point on `nbins` spectrum columns at
    `CANONICAL_RATE_HZ`, and their response to a flat spectrum."""
    bin_hz = CANONICAL_RATE_HZ / (2 * nbins)
    n_oct = np.log2(F_MAX_HZ / F_MIN_HZ)
    grid_n = int(np.ceil(n_oct * POINTS_PER_OCTAVE)) + 1
    log_step = n_oct / (grid_n - 1)
    grid_hz = F_MIN_HZ * 2.0 ** (np.arange(grid_n) * log_step)
    weights = np.zeros((grid_n, nbins))
    for h in range(1, NUM_HARMONICS + 1):
        f = h * grid_hz
        rolloff = np.clip(0.5 + np.arctan(3.0 * np.log2(f / ROLLOFF_HZ)) / np.pi, 0.0, 1.0)
        w = COMPRESSION ** (h - 1) * rolloff
        pos = f / bin_hz - 1.0  # stored bins start at bin 1
        ok = (pos >= 0.0) & (pos <= nbins - 1)
        rows = np.nonzero(ok)[0]
        j0 = np.floor(pos[ok]).astype(np.intp)
        frac = pos[ok] - j0
        np.add.at(weights, (rows, j0), w[ok] * (1.0 - frac))
        np.add.at(weights, (rows, np.minimum(j0 + 1, nbins - 1)), w[ok] * frac)
    flat_response = weights.sum(axis=1)
    for table in (grid_hz, weights, flat_response):
        table.flags.writeable = False
    return grid_hz, log_step, weights, flat_response


# For the spectra of `dsp.PROSODIC_FRAME_MS` frames.  The flat response
# equalises the sum before the voicing readout.
SHS_GRID_HZ, SHS_LOG_STEP, SHS_WEIGHTS, SHS_FLAT_RESPONSE = _shs_tables(
    dsp.default_fft_size(dsp.samples_for_ms(dsp.PROSODIC_FRAME_MS)) // 2)


def _vertex_offset(values: np.ndarray, rows: np.ndarray,
                   idx: np.ndarray) -> np.ndarray:
    """Offset from idx of the vertex of the parabola through values[rows,
    idx - 1], values[rows, idx] and values[rows, idx + 1], clipped to
    [-0.5, 0.5]; 0 at either end of a row or on a flat top."""
    last = values.shape[1] - 1
    left = values[rows, np.maximum(idx - 1, 0)]
    mid = values[rows, idx]
    right = values[rows, np.minimum(idx + 1, last)]
    denom = left - 2.0 * mid + right
    bend = (idx > 0) & (idx < last) & (denom != 0.0)
    d = np.divide(0.5 * (left - right), denom, out=np.zeros(idx.shape), where=bend)
    return np.clip(d, -0.5, 0.5)


def shs_batch(magnitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f0 (Hz at `CANONICAL_RATE_HZ`) and voicing probability for a stack
    of `dsp.magnitude_spectra` of `dsp.PROSODIC_FRAME_MS` frames.

    The f0 of a row is the argmax of its subharmonic sum, moved by the
    vertex of the parabola through the argmax and its two neighbours (at
    most half a grid step, in log frequency; none at the grid's ends or on
    a flat top).  The voicing probability is 1 - mean/peak of the
    equalised sum, peak taken at the same argmax, clamped to [0, 1].
    Returns (f0_hz, voicing_prob) arrays of length n; degenerate
    (all-zero) rows get 0 in both.  Raises ValueError for spectra of any
    other width.
    """
    magnitudes = np.atleast_2d(magnitudes)
    if magnitudes.shape[1] != SHS_WEIGHTS.shape[1]:
        raise ValueError(f"SHS reads spectra of {SHS_WEIGHTS.shape[1]} bins, "
                         f"not {magnitudes.shape[1]}")
    s = magnitudes @ SHS_WEIGHTS.T  # (n, grid)
    rows = np.arange(s.shape[0])
    idx = np.argmax(s, axis=1)
    live = s[rows, idx] > 0.0
    f0 = SHS_GRID_HZ[idx] * 2.0 ** (_vertex_offset(s, rows, idx) * SHS_LOG_STEP)

    s_eq = s / SHS_FLAT_RESPONSE
    ratio = np.divide(s_eq.mean(axis=1), s_eq[rows, idx], out=np.ones(rows.size),
                      where=live)
    return np.where(live, f0, 0.0), np.clip(1.0 - ratio, 0.0, 1.0)


def track_periods(frames: np.ndarray, f0s: np.ndarray) -> PeriodSequence:
    """Glottal-cycle periods and amplitudes of every row of a frame stack.

    Row i is searched at its own f0 = f0s[i] (Hz at `CANONICAL_RATE_HZ`).  Its
    first mark is the argmax of its first 1.25 periods; each next mark is the
    first argmax within +-SEARCH_FRAC of a period around the last mark plus
    one period, and the search stops at the first window that would reach past
    the frame.  All rows step in lockstep, so the loop runs once per mark, not
    once per frame.  Periods are the successive mark differences after a
    sub-sample parabolic refinement of each mark (integer marks would put a
    ~1/period jitter floor on every measurement); a cycle's amplitude is
    max - min of the samples from its first mark to its last.

    Row i gets `counts[i]` periods, which may be fewer than the 3 that the
    jitter and shimmer statistics need.  Raises UnvoicedFrameError if any
    f0 is not positive.
    """
    x = np.asarray(frames, dtype=np.float64)
    f0 = np.asarray(f0s, dtype=np.float64)
    if not np.all(f0 > 0.0):
        raise UnvoicedFrameError("unvoiced frame (f0 = 0)")
    n, size = x.shape
    rows = np.arange(n)[:, None]
    period = CANONICAL_RATE_HZ / f0
    first_end = np.minimum(size, np.ceil(1.25 * period).astype(np.intp))
    head = np.where(np.arange(size) < first_end[:, None], x, -np.inf)
    coarse = [head.argmax(axis=1)]
    amps = []
    live = np.ones(n, dtype=bool)
    counts = np.zeros(n, dtype=np.intp)
    while True:
        last = coarse[-1]
        center = last + period
        lo = np.maximum(last + 1,
                        np.floor(center - SEARCH_FRAC * period).astype(np.intp))
        hi = np.ceil(center + SEARCH_FRAC * period).astype(np.intp) + 1
        live &= hi <= size
        if not live.any():
            break
        # One gather per step from each row's last mark to its window's end
        # serves both the mark search and the new cycle's amplitude.
        offs = np.arange(int((hi - last)[live].max()))
        seg = x[rows, np.minimum(last[:, None] + offs, size - 1)]
        in_window = (offs >= (lo - last)[:, None]) & (offs < (hi - last)[:, None])
        step = np.where(in_window, seg, -np.inf).argmax(axis=1)
        in_cycle = offs <= step[:, None]
        amps.append(np.where(in_cycle, seg, -np.inf).max(axis=1)
                    - np.where(in_cycle, seg, np.inf).min(axis=1))
        coarse.append(np.where(live, last + step, last))
        counts += live
    coarse = np.stack(coarse, axis=1)

    marks = coarse + _vertex_offset(x, rows, coarse)
    valid = np.arange(coarse.shape[1] - 1) < counts[:, None]
    periods_s = np.where(valid, np.diff(marks, axis=1) / CANONICAL_RATE_HZ, 0.0)
    peak_amps = np.where(valid, np.reshape(amps, (len(amps), n)).T, 0.0)
    return PeriodSequence(periods_s=periods_s, peak_amps=peak_amps,
                          counts=counts)
