"""Frame-by-frame voice-quality reference for the row kernels.

This is the scalar form of `pitch.track_periods`, `features.jitter`,
`features.jitter_derivative`, `features.shimmer` and `features.hnr` that
`extract_matrix` ran once per voiced 20 ms frame before they became row
kernels.  The tests compare the kernels with it row by row.  A frame with
fewer periods than a statistic needs raises `TooFewPeriods`; the caller
turned that into the channel's 0.
"""

import numpy as np

SEARCH_FRAC = 0.25
HNR_CLAMP = (1e-4, 1e4)


class TooFewPeriods(ValueError):
    pass


def coarse_marks(frame, f0_hz, sample_rate_hz):
    """Integer glottal-cycle marks of one frame: the first is the argmax of
    the first 1.25 periods, each next one the argmax within +-SEARCH_FRAC
    of a period around the last mark plus one period."""
    assert f0_hz > 0.0
    x = np.asarray(frame, dtype=np.float64)
    period = sample_rate_hz / f0_hz
    first_end = min(x.size, int(np.ceil(1.25 * period)))
    coarse = [int(np.argmax(x[:first_end]))]
    while True:
        center = coarse[-1] + period
        lo = max(coarse[-1] + 1, int(np.floor(center - SEARCH_FRAC * period)))
        hi = int(np.ceil(center + SEARCH_FRAC * period)) + 1
        if hi > x.size:
            return coarse
        coarse.append(lo + int(np.argmax(x[lo:hi])))


def track_periods(frame, f0_hz, sample_rate_hz):
    """(periods_s, peak_amps) of one frame; raises TooFewPeriods below 3."""
    x = np.asarray(frame, dtype=np.float64)
    coarse = coarse_marks(x, f0_hz, sample_rate_hz)
    if len(coarse) < 4:
        raise TooFewPeriods(f"only {len(coarse) - 1} periods found; need at least 3")
    marks = np.array([m + parabolic_offset(x, m) for m in coarse])
    periods_s = np.diff(marks) / sample_rate_hz
    amps = np.array([float(np.max(x[a:b + 1]) - np.min(x[a:b + 1]))
                     for a, b in zip(coarse[:-1], coarse[1:])])
    return periods_s, amps


def parabolic_offset(x, m):
    if not 0 < m < x.size - 1:
        return 0.0
    denom = x[m - 1] - 2.0 * x[m] + x[m + 1]
    if denom == 0.0:
        return 0.0
    return float(np.clip(0.5 * (x[m - 1] - x[m + 1]) / denom, -0.5, 0.5))


def jitter(periods_s):
    t = np.asarray(periods_s, dtype=np.float64)
    if t.size < 3:
        raise TooFewPeriods("jitter needs at least 3 periods")
    mean_period = t.mean()
    if mean_period <= 0.0:
        return 0.0
    return float(np.mean(np.abs(np.diff(t))) / mean_period)


def jitter_derivative(periods_s):
    t = np.asarray(periods_s, dtype=np.float64)
    if t.size < 4:
        raise TooFewPeriods("jitter derivative needs at least 4 periods")
    mean_period = t.mean()
    if mean_period <= 0.0:
        return 0.0
    first = np.abs(np.diff(t))
    return float(np.mean(np.abs(np.diff(first))) / mean_period)


def shimmer(peak_amps):
    a = np.asarray(peak_amps, dtype=np.float64)
    if a.size < 3:
        raise TooFewPeriods("shimmer needs at least 3 periods")
    mean_amp = a.mean()
    if mean_amp <= 0.0:
        return 0.0
    return float(np.mean(np.abs(np.diff(a))) / mean_amp)


def hnr(frame, f0_hz, sample_rate_hz):
    """log10 harmonic-to-noise ratio from the best normalised
    autocorrelation within +-4 % of the pitch lag."""
    assert f0_hz > 0.0
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
    return float(np.log10(np.clip(linear, *HNR_CLAMP)))


def voice_quality(frame, f0_hz, sample_rate_hz):
    """(JITTER, DJITTER, SHIMMER, HNR) of one voiced frame, with the 0
    fallback `extract_matrix` gave a frame with too few periods."""
    jit = djit = shim = 0.0
    try:
        periods_s, amps = track_periods(frame, f0_hz, sample_rate_hz)
    except TooFewPeriods:
        pass
    else:
        jit, shim = jitter(periods_s), shimmer(amps)
        if periods_s.size >= 4:
            djit = jitter_derivative(periods_s)
    return jit, djit, shim, hnr(frame, f0_hz, sample_rate_hz)
