import numpy as np
import pytest

from lctid import dsp, features, pitch
from conftest import SR, harmonic_tone


def shs_60ms(frames):
    """f0 and voicing of a stack of 60 ms frames, as extract_matrix runs it."""
    mags = dsp.magnitude_spectra(np.atleast_2d(frames), 1024)
    return pitch.shs_batch(mags, 1024, SR / 1024)


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
        assert vp > pitch.DEFAULT_SHS.voicing_threshold

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

    def test_eq3_edge_amp_equals_mean(self):
        assert pitch.voicing_probability(1.5, 1.5) == 0.0
        assert pitch.voicing_probability(3.0, 1.5) == 0.5
        assert pitch.voicing_probability(1.0, 2.0) == 0.0  # clamped
        assert pitch.voicing_probability(0.0, 1.0) == 0.0

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


class TestTrackPeriods:
    def test_impulse_train_5ms(self):
        x = np.zeros(960)
        x[::80] = 1.0
        seq = pitch.track_periods(x, 200.0, SR)
        assert len(seq.periods_s) == 11
        assert np.abs(seq.periods_s - 0.005).max() <= 1.0 / SR

    def test_alternating_periods(self):
        marks = [0]
        step = (80, 88)  # 5 ms / 5.5 ms
        while marks[-1] + step[(len(marks) - 1) % 2] < 960:
            marks.append(marks[-1] + step[(len(marks) - 1) % 2])
        x = np.zeros(960)
        x[marks] = 1.0
        seq = pitch.track_periods(x, 1.0 / 0.00525, SR)
        truth = np.array([step[i % 2] for i in range(len(seq.periods_s))]) / SR
        assert np.abs(seq.periods_s - truth).max() <= 1.0 / SR

    def test_unvoiced_errors(self):
        with pytest.raises(pitch.UnvoicedFrameError, match="unvoiced"):
            pitch.track_periods(np.ones(960), 0.0, SR)

    def test_too_few_periods(self):
        x = np.zeros(400)
        x[::240] = 1.0  # 15 ms period in a 25 ms window
        with pytest.raises(pitch.TooFewPeriodsError):
            pitch.track_periods(x, 1000.0 / 15.0, SR)

    def test_amp_and_period_lengths_match(self):
        x = harmonic_tone(250.0, 4, seed=11)
        seq = pitch.track_periods(x, 250.0, SR)
        assert len(seq.periods_s) == len(seq.peak_amps)
        assert np.all(seq.peak_amps > 0)

    def test_constant_train_jitter_below_1e3(self):
        x = np.zeros(960)
        x[::64] = 1.0  # 250 Hz
        seq = pitch.track_periods(x, 250.0, SR)
        assert features.jitter(seq) < 1e-3
