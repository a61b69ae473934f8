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
    HOP = dsp.samples_for_ms(dsp.HOP_MS)

    def test_one_second_20ms(self):
        frames = dsp.frame_signal(np.zeros(SR), 20.0)
        assert isinstance(frames, np.ndarray)
        assert frames.shape == (99, 320)

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="^expected a mono signal$"):
            dsp.frame_signal(np.zeros((2, SR)), 20.0)

    def test_187_grid_geometry(self):
        # 1.87 s yields 186 raw 20 ms frames; the 187-frame segment grid is
        # reached downstream by padding.
        n = int(1.87 * SR)
        assert dsp.frame_signal(np.zeros(n), 20.0).shape == (186, 320)

    @pytest.mark.parametrize("frame_ms", [20.0, 60.0])
    def test_shape_law(self, frame_ms):
        # every frame that fits on the hop grid, and no more
        flen = dsp.samples_for_ms(frame_ms)
        for n in (flen, flen + 1, flen + self.HOP - 1, flen + self.HOP, 23456):
            frames = dsp.frame_signal(np.zeros(n), frame_ms)
            count = (n - flen) // self.HOP + 1
            assert frames.shape == (count, flen)
            assert (count - 1) * self.HOP + flen <= n < count * self.HOP + flen

    def test_too_short(self):
        with pytest.raises(ValueError):
            dsp.frame_signal(np.zeros(100), 20.0)

    def test_frame_content_is_exact_slice(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(SR)
        frames = dsp.frame_signal(x, 20.0)
        flen = frames.shape[1]
        for i in (0, 1, 17, len(frames) - 1):
            assert np.array_equal(frames[i], x[i * self.HOP:i * self.HOP + flen])

    def test_frames_are_a_read_only_view(self):
        # framing copies nothing, so a write into one frame would change
        # its overlapping neighbours and the signal: it must raise
        x = np.random.default_rng(1).standard_normal(SR)
        frames = dsp.frame_signal(x, 60.0)
        assert np.shares_memory(frames, x)
        assert not frames.flags.writeable
        with pytest.raises(ValueError):
            frames[1, 0] = 0.0

    def test_60ms_uses_1024_fft(self):
        assert dsp.default_fft_size(960) == 1024
        assert dsp.default_fft_size(320) == 512
        # each spectrum takes its FFT size from its frame length
        assert dsp.magnitude_spectra(np.zeros((2, 960))).shape == (2, 512)
        assert dsp.magnitude_spectra(np.zeros((2, 320))).shape == (2, 256)

    def test_spectra_only_of_the_analysis_frames(self):
        # the windows are built at import for the two frame lengths only
        assert sorted(dsp.WINDOWS) == [320, 960]
        with pytest.raises(ValueError, match="no window for 480-sample frames, only 960 or 320"):
            dsp.magnitude_spectra(np.zeros((2, 480)))


class TestMagnitudeSpectrum:
    def test_zero_frame(self):
        mags = dsp.magnitude_spectra(np.zeros((1, 320)))
        assert mags.shape == (1, 256)
        assert np.all(mags == 0.0)

    def test_on_bin_sine_peaks_at_bin(self):
        m = 40
        f = m * SR / 512
        t = np.arange(320) / SR
        mags = dsp.magnitude_spectra(np.sin(2 * np.pi * f * t)[None, :])
        # stored index m-1 corresponds to bin m (DC excluded)
        assert int(np.argmax(mags[0])) == m - 1
        assert dsp.bin_frequencies(dsp.OTHER_FRAME_MS)[m - 1] == pytest.approx(f)

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
        mags = dsp.magnitude_spectra(xs)
        oracle = np.stack([direct_dft_magnitudes(x * np.hamming(320), 512)[1:257]
                           for x in xs])
        assert np.abs(mags - oracle).max() < 1e-9

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 320))
        a = dsp.magnitude_spectra(x)
        b = dsp.magnitude_spectra(2.0 * x)
        assert np.allclose(b, 2.0 * a, rtol=1e-12)


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
