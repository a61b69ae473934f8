import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lctid import dsp, features, pitch
from conftest import SR, harmonic_tone


def shs_60ms(frames):
    """f0 and voicing of a stack of 60 ms frames, as extract_matrix runs it."""
    mags = dsp.magnitude_spectra(np.atleast_2d(frames))
    return pitch.shs_batch(mags)


def autocorr_f0(x, f_min=60.0, f_max=400.0):
    """Independent oracle: argmax of the autocorrelation in the lag band."""
    acf = np.correlate(x, x, mode="full")[len(x) - 1:]
    lo = int(SR / f_max)
    hi = int(np.ceil(SR / f_min))
    lag = lo + int(np.argmax(acf[lo:hi + 1]))
    return SR / lag


class TestShsEstimate:
    def test_harmonic_tone_200(self):
        x = harmonic_tone(200.0, 5, seed=42)
        (f0,), (vp,) = shs_60ms(x)
        assert 198.0 <= f0 <= 202.0
        assert abs(f0 - autocorr_f0(x)) < 5.0
        assert vp > pitch.VOICING_THRESHOLD

    def test_missing_fundamental(self):
        # harmonics at 400/600/800 Hz only; true fundamental 200 Hz is absent
        x = harmonic_tone(200.0, 3, first=2, seed=1)
        (f0,), _ = shs_60ms(x)
        assert 195.0 <= f0 <= 205.0

    def test_white_noise_voicing_low(self):
        noise = np.stack([np.random.default_rng(1000 + s).standard_normal(960)
                          for s in range(100)])
        _, probs = shs_60ms(noise)
        assert np.mean(probs) < 0.3

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           zero_rows=st.lists(st.booleans(), min_size=1, max_size=8),
           density=st.floats(0.0, 1.0),
           scale=st.floats(1e-6, 1e6))
    def test_eq3_edge_amp_equals_mean(self, seed, zero_rows, density, scale):
        rng = np.random.default_rng(seed)
        n = len(zero_rows)
        mags = scale * rng.uniform(0.0, 1.0, (n, 512))
        mags[rng.uniform(0.0, 1.0, (n, 512)) >= density] = 0.0
        mags[np.array(zero_rows)] = 0.0
        f0, vprob = pitch.shs_batch(mags)
        for r in range(n):
            s = pitch.SHS_WEIGHTS @ mags[r]
            if not s.max() > 0.0:
                assert f0[r] == 0.0 and vprob[r] == 0.0
                continue
            i = int(np.argmax(s))
            eq = s / pitch.SHS_FLAT_RESPONSE
            assert vprob[r] == pytest.approx(
                np.clip(1.0 - eq.mean() / eq[i], 0.0, 1.0), abs=1e-12)
            # f0 sits at the vertex of the parabola through the argmax and
            # its neighbours, in grid steps of log frequency
            step = np.log2(f0[r] / pitch.SHS_GRID_HZ[i]) / pitch.SHS_LOG_STEP
            assert abs(step) <= 0.5 + 1e-9
            if 0 < i < s.size - 1:
                a, b, _ = np.polyfit([-1.0, 0.0, 1.0], s[i - 1:i + 2], 2)
                if a < -1e-6 * s[i]:
                    assert step == pytest.approx(-b / (2.0 * a), abs=1e-6)
            else:
                assert step == 0.0
            # alone, the row reads the same; not bit for bit, since BLAS may
            # sum a lone row in another order than a stack
            (f0_alone,), (vprob_alone,) = pitch.shs_batch(mags[r:r + 1])
            assert f0_alone == pytest.approx(f0[r], rel=1e-9)
            assert vprob_alone == pytest.approx(vprob[r], abs=1e-12)

    def test_flat_equalised_sum_is_unvoiced(self):
        # a flat spectrum's sum is the flat response: peak equals mean
        spectra = np.ones((2, 512))
        # a bump at 94-125 Hz lifts the equalised mean above the equalised
        # peak, which stays at the 400 Hz end: 1 - mean/peak < 0 is clamped
        spectra[1, 5:8] += 1.0
        _, vps = pitch.shs_batch(spectra)
        assert vps[0] == pytest.approx(0.0, abs=1e-12)
        assert vps[1] == 0.0

    def test_degenerate_spectrum(self):
        (f0,), (vp,) = shs_60ms(np.zeros(960))
        assert f0 == 0.0
        assert vp == 0.0
        # a silent row next to a voiced one stays exactly 0 too
        x = harmonic_tone(200.0, 5, seed=42)
        f0s, vps = shs_60ms(np.stack([np.zeros(960), x]))
        assert f0s[0] == 0.0
        assert vps[0] == 0.0
        assert f0s[1] > 0.0

    def test_refuses_spectra_of_other_frames(self):
        # the tables are built at import for the 512 bins of a 60 ms frame;
        # a 20 ms frame's 256-bin spectrum is refused, not given a new kernel
        assert pitch.SHS_WEIGHTS.shape[1] == dsp.magnitude_spectra(np.zeros(960)).shape[1]
        with pytest.raises(ValueError, match="512 bins, not 256"):
            pitch.shs_batch(np.ones((2, 256)))

    def test_scale_invariance(self):
        x = harmonic_tone(250.0, 5, seed=3)
        f0s, vps = shs_60ms(np.stack([x, 7.5 * x]))
        assert f0s[0] == f0s[1]
        assert vps[0] == pytest.approx(vps[1], abs=1e-12)

    def test_sweep_median_error(self):
        sweep = np.arange(80, 401, 10)
        f0s, _ = shs_60ms(np.stack([harmonic_tone(float(f0), 6, seed=int(f0))
                                    for f0 in sweep]))
        assert np.median(np.abs(f0s - sweep)) <= 2.0


def one_row_periods(x, f0):
    return pitch.track_periods(np.asarray(x)[None], np.array([f0]))


class TestTrackPeriods:
    def test_impulse_train_5ms(self):
        x = np.zeros(960)
        x[::80] = 1.0
        seq = one_row_periods(x, 200.0)
        assert seq.counts[0] == 11
        assert np.abs(seq.periods_s[0, :11] - 0.005).max() <= 1.0 / SR

    def test_alternating_periods(self):
        marks = [0]
        step = (80, 88)  # 5 ms / 5.5 ms
        while marks[-1] + step[(len(marks) - 1) % 2] < 960:
            marks.append(marks[-1] + step[(len(marks) - 1) % 2])
        x = np.zeros(960)
        x[marks] = 1.0
        seq = one_row_periods(x, 1.0 / 0.00525)
        found = seq.periods_s[0, :seq.counts[0]]
        truth = np.array([step[i % 2] for i in range(len(found))]) / SR
        assert np.abs(found - truth).max() <= 1.0 / SR

    def test_unvoiced_errors(self):
        with pytest.raises(pitch.UnvoicedFrameError, match="unvoiced"):
            pitch.track_periods(np.ones((1, 960)), np.array([0.0]))

    def test_too_few_periods(self):
        x = np.zeros(400)
        x[::240] = 1.0  # 15 ms period in a 25 ms window
        seq = one_row_periods(x, 1000.0 / 15.0)
        assert seq.counts[0] == 1
        for stat in (features.jitter, features.jitter_derivative, features.shimmer):
            assert stat(seq)[0] == 0.0

    def test_amp_and_period_lengths_match(self):
        x = harmonic_tone(250.0, 4, seed=11)
        seq = one_row_periods(x, 250.0)
        assert seq.periods_s.shape == seq.peak_amps.shape
        n = seq.counts[0]
        assert n >= 3
        assert np.all(seq.peak_amps[0, :n] > 0)
        assert not seq.peak_amps[0, n:].any() and not seq.periods_s[0, n:].any()

    def test_constant_train_jitter_below_1e3(self):
        x = np.zeros(960)
        x[::64] = 1.0  # 250 Hz
        seq = one_row_periods(x, 250.0)
        assert features.jitter(seq)[0] < 1e-3
