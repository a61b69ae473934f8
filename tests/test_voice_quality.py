"""The voice-quality row kernels agree with the frame-by-frame reference.

`pitch.track_periods`, `features.jitter`, `features.jitter_derivative`,
`features.shimmer` and `features.hnr` run once over a stack of voiced
frames.  Row by row they must give what `voice_quality_oracle` gives for
that frame alone: JITTER, DJITTER, SHIMMER and the periods bit for bit,
HNR (an FFT autocorrelation against a lag-by-lag dot product) within 1e-9.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import voice_quality_oracle as oracle
from conftest import SR, harmonic_tone
from lctid import features, pitch

KINDS = ("pulses", "flat_tops", "noise", "zeros", "tone", "counted")


def pulse_train(frame_len, period, rng, jitter=0.0, shimmer=0.0, width=1):
    """Pulses of `width` equal samples, one per jittered period."""
    x = np.zeros(frame_len)
    pos = rng.uniform(0.0, period)
    while pos < frame_len:
        start = int(pos)
        x[start:start + width] = 1.0 + shimmer * rng.standard_normal()
        pos += period * (1.0 + jitter * rng.standard_normal())
    return x


def counted_train(frame_len, k, offsets=(0, 0, 0, 0, 0, 0)):
    """Pulses that give exactly k periods: at i * P + offsets[i] with
    P = frame_len / (k + 0.75), so the window after the k-th mark reaches
    past the frame.  The first pulse is the highest, so that it is the
    first mark."""
    period = frame_len / (k + 0.75)
    x = np.zeros(frame_len)
    for i in range(k + 1):
        x[int(round(i * period)) + offsets[i]] = 1.2 if i == 0 else 1.0 + 0.1 * (i % 2)
    return x, SR / period


def make_row(kind, f0, seed, frame_len, k):
    rng = np.random.default_rng(seed)
    period = SR / f0
    if kind == "pulses":
        x = pulse_train(frame_len, period, rng, rng.uniform(0.0, 0.03),
                        rng.uniform(0.0, 0.2))
        return x + rng.choice([0.0, 0.05]) * rng.standard_normal(frame_len), f0
    if kind == "flat_tops":  # every maximum is tied
        return pulse_train(frame_len, period, rng, width=int(rng.integers(2, 5))), f0
    if kind == "noise":
        return rng.standard_normal(frame_len), f0
    if kind == "zeros":
        return np.zeros(frame_len), f0
    if kind == "tone":
        x = harmonic_tone(f0, 5, n=frame_len, seed=seed)
        return x + 0.1 * rng.standard_normal(frame_len), f0
    return counted_train(frame_len, k)


def assert_rows_match_oracle(frames, f0s):
    seq = pitch.track_periods(frames, f0s)
    jit, djit = features.jitter(seq), features.jitter_derivative(seq)
    shim, hnr = features.shimmer(seq), features.hnr(frames, f0s)
    for i, (frame, f0) in enumerate(zip(frames, f0s)):
        ref = oracle.voice_quality(frame, f0, SR)
        assert (jit[i], djit[i], shim[i]) == ref[:3], i
        assert abs(hnr[i] - ref[3]) <= 1e-9, i
        n = seq.counts[i]
        assert n == len(oracle.coarse_marks(frame, f0, SR)) - 1, i
        if n >= 3:
            periods_s, amps = oracle.track_periods(frame, f0, SR)
            assert np.array_equal(seq.periods_s[i, :n], periods_s), i
            assert np.array_equal(seq.peak_amps[i, :n], amps), i
        assert not seq.periods_s[i, n:].any() and not seq.peak_amps[i, n:].any(), i


@settings(max_examples=80, deadline=None)
@given(frame_len=st.sampled_from((320, 480)),
       rows=st.lists(st.tuples(st.sampled_from(KINDS), st.floats(60.0, 400.0),
                               st.integers(0, 2 ** 16), st.sampled_from((2, 3, 4))),
                     min_size=1, max_size=10))
def test_row_kernels_match_the_frame_oracle(frame_len, rows):
    made = [make_row(kind, f0, seed, frame_len, k) for kind, f0, seed, k in rows]
    frames = np.array([x for x, _ in made])
    f0s = np.array([f0 for _, f0 in made])
    assert_rows_match_oracle(frames, f0s)


@pytest.mark.parametrize("frame_len", [320, 480])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_exact_period_counts_and_fallbacks(k, frame_len):
    # uneven periods and amplitudes, so no statistic is 0 by coincidence
    x, f0 = counted_train(frame_len, k, offsets=(0, 3, -2, 4, 0, 0))
    seq = pitch.track_periods(x[None], np.array([f0]))
    assert seq.counts[0] == k
    assert (features.jitter(seq)[0] > 0.0) == (k >= 3)
    assert (features.shimmer(seq)[0] > 0.0) == (k >= 3)
    assert (features.jitter_derivative(seq)[0] > 0.0) == (k >= 4)
    assert_rows_match_oracle(x[None], np.array([f0]))


@pytest.mark.parametrize("kind", ["pulses", "noise", "tone"])
def test_hnr_of_a_stack_is_each_rows_hnr(kind):
    # The halo search gathers over the stack's widest halo (60 Hz: lag 267,
    # +-11); each row must still search its own halo alone (400 Hz: lag 40,
    # +-2), so a row gives the same bits in any stack.
    f0s = np.array([60.0, 400.0, 97.0, 250.0, 61.5, 180.0, 333.0, 75.0])
    frames = np.array([make_row(kind, f0, seed, 480, 3)[0]
                       for seed, f0 in enumerate(f0s)])
    alone = [features.hnr(frame[None], f0s[i:i + 1])[0]
             for i, frame in enumerate(frames)]
    assert np.array_equal(features.hnr(frames, f0s), alone)
