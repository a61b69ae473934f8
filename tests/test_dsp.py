import numpy as np
import pytest

from lctid import dsp

SR = 16000


def direct_dft_magnitudes(x, fft_size):
    """Independent oracle: explicit DFT sum of the zero-padded signal."""
    padded = np.zeros(fft_size)
    padded[:len(x)] = x
    n = np.arange(fft_size)
    k = np.arange(fft_size)[:, None]
    dft = (padded * np.exp(-2j * np.pi * k * n / fft_size)).sum(axis=1)
    return np.abs(dft)


class TestFraming:
    def test_one_second_20ms(self):
        fs = dsp.frame_signal(np.zeros(SR), SR, 20.0, 10.0)
        assert fs.num_frames == 99
        assert fs.frame_len == 320

    def test_187_grid_geometry(self):
        # 1.87 s yields 186 raw 20 ms frames; the 187-frame segment grid is
        # reached downstream by padding.
        n = int(1.87 * SR)
        fs = dsp.frame_signal(np.zeros(n), SR, 20.0, 10.0)
        assert fs.num_frames == 186

    def test_too_short(self):
        with pytest.raises(ValueError):
            dsp.frame_signal(np.zeros(100), SR, 20.0, 10.0)

    def test_frame_content_is_exact_slice(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(SR)
        fs = dsp.frame_signal(x, SR, 20.0, 10.0)
        hop, flen = fs.hop, fs.frame_len
        for i in (0, 1, 17, fs.num_frames - 1):
            assert np.array_equal(fs.frames[i], x[i * hop:i * hop + flen])

    def test_60ms_uses_1024_fft(self):
        assert dsp.default_fft_size(960) == 1024
        assert dsp.default_fft_size(320) == 512


class TestMagnitudeSpectrum:
    def test_zero_frame(self):
        mags = dsp.magnitude_spectra(np.zeros((1, 320)), 512)
        assert mags.shape == (1, 256)
        assert np.all(mags == 0.0)

    def test_on_bin_sine_peaks_at_bin(self):
        m = 40
        f = m * SR / 512
        t = np.arange(320) / SR
        mags = dsp.magnitude_spectra(np.sin(2 * np.pi * f * t)[None, :], 512)
        # stored index m-1 corresponds to bin m (DC excluded)
        assert int(np.argmax(mags[0])) == m - 1
        assert dsp.bin_frequencies(512, SR)[m - 1] == pytest.approx(f)

    def test_parseval_against_direct_dft(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(320)
            windowed = x * np.hamming(320)
            mags = direct_dft_magnitudes(windowed, 512)
            lhs = np.sum(mags ** 2)
            rhs = 512 * np.sum(windowed ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_windowing_precedes_zero_padding(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((5, 320))
        mags = dsp.magnitude_spectra(xs, 512)
        oracle = np.stack([direct_dft_magnitudes(x * np.hamming(320), 512)[1:257]
                           for x in xs])
        assert np.abs(mags - oracle).max() < 1e-9

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 320))
        a = dsp.magnitude_spectra(x, 512)
        b = dsp.magnitude_spectra(2.0 * x, 512)
        assert np.allclose(b, 2.0 * a, rtol=1e-12)

    def test_fft_too_small(self):
        with pytest.raises(ValueError):
            dsp.magnitude_spectra(np.zeros((1, 320)), 256)

    def test_fft_not_power_of_two(self):
        with pytest.raises(ValueError):
            dsp.magnitude_spectra(np.zeros((1, 320)), 500)


class TestBark:
    def test_zero(self):
        assert dsp.hz_to_bark(0.0) == 0.0

    def test_monotone_over_sweep(self):
        f = np.linspace(0.0, 8000.0, 2000)
        z = dsp.hz_to_bark(f)
        assert np.all(np.diff(z) >= 0.0)

    def test_1000_hz_closed_form(self):
        # hand evaluation of the closed form at 1 kHz
        expected = 26.81 * 1000.0 / (1960.0 + 1000.0) - 0.53
        assert dsp.hz_to_bark(1000.0) == pytest.approx(expected, rel=1e-12)
        assert dsp.hz_to_bark(1000.0) == pytest.approx(8.527432432432432)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dsp.hz_to_bark(-1.0)
