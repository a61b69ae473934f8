import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import dct, next_fast_len

from lctid import cli, corpus, dsp, features, pitch
from lctid.corpus import Waveform
from lctid.features import (FeatureMatrix, apply_norm, energy_rows,
                            extract_matrix, fit_norm, flux_rows, hnr, jitter,
                            jitter_derivative, mel_filterbank, mfcc_rows,
                            resolve_featureset, sharpness_rows, shimmer,
                            zcr_rows)
from lctid.pitch import PeriodSequence
from conftest import SR, harmonic_tone


def periods(values_s, amps=None):
    """One row of periods and cycle amplitudes, as `track_periods` returns
    it for a frame."""
    vals = np.asarray(values_s, dtype=np.float64)
    if amps is None:
        amps = np.ones_like(vals)
    return PeriodSequence(periods_s=vals[None], peak_amps=np.asarray(amps, float)[None],
                          counts=np.array([vals.size]))


def one_row_hnr(x, f0):
    return hnr(np.asarray(x)[None], np.array([f0]))[0]


def random_spectra(rng, n, fft_size=512):
    """n magnitude spectra over bins 1..fft_size/2, one per row."""
    return rng.uniform(0.0, 1.0, (n, fft_size // 2))


class TestEnergy:
    def test_zeros(self):
        assert energy_rows(np.zeros((1, 10)))[0] == 0.0

    def test_quarter(self):
        assert energy_rows(np.full((1, 4), 0.5))[0] == 1.0

    def test_direct_sum_oracle(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((200, 320))
        direct = [sum(float(v) * float(v) for v in x) for x in xs]
        assert energy_rows(xs) == pytest.approx(direct, rel=1e-12)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100)
        e = energy_rows(np.stack([x, 3.0 * x]))
        assert e[1] == pytest.approx(9.0 * e[0], rel=1e-12)


def zcr_count_oracle(x):
    """Literal per-sample transcription of the crossing rule."""
    count = 0
    for n in range(1, len(x)):
        if x[n] != 0.0:
            if x[n - 1] * x[n] < 0.0:
                count += 1
        elif n + 1 < len(x):
            if x[n - 1] * x[n + 1] < 0.0:
                count += 1
    return count


class TestZcr:
    def test_constant_positive(self):
        assert zcr_rows(np.ones((1, 320)))[0] == 0.0

    def test_alternating(self):
        x = np.tile([1.0, -1.0], 160)
        assert zcr_rows(x[None, :])[0] == 319 / 0.02

    def test_100hz_sine(self):
        # phase offset puts all four ideal crossings (2 per cycle x 2 cycles)
        # strictly inside the 20 ms frame
        t = np.arange(320) / SR
        x = np.sin(2 * np.pi * 100.0 * t + np.pi / 4)
        assert zcr_rows(x[None, :])[0] == 200.0

    def test_zero_sample_rule(self):
        assert zcr_count_oracle([1.0, 0.0, -1.0]) == 1
        rates = zcr_rows(np.array([[1.0, 0.0, -1.0], [1.0, 0.0, 1.0]]))
        assert rates[0] == 1 / (3 / SR)
        assert rates[1] == 0.0

    def test_matches_oracle_on_random_frames(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((100, 320))
        expected = np.array([zcr_count_oracle(x) for x in xs]) / 0.02
        assert np.array_equal(zcr_rows(xs), expected)


class TestJitterFamily:
    def test_jitter_constant(self):
        assert jitter(periods([0.01, 0.01, 0.01, 0.01]))[0] == 0.0

    def test_jitter_hand_value(self):
        p = [0.010, 0.010, 0.012, 0.012]
        diffs = [abs(p[i + 1] - p[i]) for i in range(3)]
        expected = (sum(diffs) / 3) / (sum(p) / 4)
        assert jitter(periods(p))[0] == expected
        assert jitter(periods(p))[0] == pytest.approx(0.060606060, rel=1e-6)

    def test_jitter_scale_invariant(self):
        p = [0.010, 0.011, 0.0105, 0.012]
        assert jitter(periods([2 * v for v in p]))[0] == jitter(periods(p))[0]

    def test_jitter_too_few(self):
        # 2 periods fall back to 0, also where they differ
        for p in ([0.01, 0.01], [0.01, 0.012]):
            seq = periods(p, [1.0, 0.5])
            assert seq.counts[0] == 2
            assert jitter(seq)[0] == 0.0
            assert shimmer(seq)[0] == 0.0

    def test_derivative_hand_value(self):
        p = [0.010, 0.010, 0.012, 0.012]
        first = [abs(p[i + 1] - p[i]) for i in range(3)]
        second = [abs(first[i + 1] - first[i]) for i in range(2)]
        expected = (sum(second) / 2) / (sum(p) / 4)
        assert jitter_derivative(periods(p))[0] == expected
        assert jitter_derivative(periods(p))[0] == pytest.approx(0.1818181818, rel=1e-6)

    def test_derivative_linear_drift_zero(self):
        assert jitter_derivative(periods([0.010, 0.011, 0.012, 0.013]))[0] == \
            pytest.approx(0.0, abs=1e-12)

    def test_derivative_constant_zero(self):
        assert jitter_derivative(periods([0.01] * 5))[0] == 0.0

    def test_derivative_too_few(self):
        # 3 periods: JITTER is taken, DJITTER falls back to 0
        seq = periods([0.01, 0.01, 0.012])
        assert seq.counts[0] == 3
        assert jitter_derivative(seq)[0] == 0.0
        assert jitter(seq)[0] > 0.0

    def test_shimmer_constant(self):
        assert shimmer(periods([0.01] * 4, [1.0] * 4))[0] == 0.0

    def test_shimmer_hand_value(self):
        amps = [1.0, 1.0, 0.8, 0.8]
        diffs = [abs(amps[i + 1] - amps[i]) for i in range(3)]
        expected = (sum(diffs) / 3) / (sum(amps) / 4)
        got = shimmer(periods([0.01] * 4, amps))[0]
        assert got == expected
        assert got == pytest.approx(0.0740740740, rel=1e-6)

    def test_shimmer_scale_invariant(self):
        amps = [1.0, 0.9, 1.1, 0.8]
        a = shimmer(periods([0.01] * 4, amps))[0]
        b = shimmer(periods([0.01] * 4, [2 * v for v in amps]))[0]
        assert a == b


class TestHnr:
    def test_pure_tone_clamps_high(self):
        t = np.arange(960) / SR
        x = np.sin(2 * np.pi * 200.0 * t)
        assert one_row_hnr(x, 200.0) >= 3.0

    def test_equal_energy_mix_near_zero(self):
        vals = []
        for s in range(50):
            rng = np.random.default_rng(100 + s)
            t = np.arange(960) / SR
            tone = np.sin(2 * np.pi * 200.0 * t + rng.uniform(0, 2 * np.pi))
            noise = rng.standard_normal(960)
            noise *= np.sqrt(np.dot(tone, tone) / np.dot(noise, noise))
            vals.append(one_row_hnr(tone + noise, 200.0))
        assert abs(np.mean(vals)) <= 0.15

    def test_unvoiced_errors(self):
        with pytest.raises(pitch.UnvoicedFrameError):
            hnr(np.ones((1, 320)), np.array([0.0]))

    def test_noise_clamps_low(self):
        rng = np.random.default_rng(7)
        assert one_row_hnr(rng.standard_normal(960), 200.0) <= 1.0

    def test_fft_size_is_scipys_next_fast_len(self):
        sizes = [features._fast_fft_size(n) for n in range(1, 4097)]
        assert sizes == [next_fast_len(n, real=True) for n in range(1, 4097)]
        assert features._fast_fft_size(640) == 640  # 20 ms frames, padded
        assert features._fast_fft_size(960) == 960  # 480-sample frames, padded


class TestSpectralFeatures:
    def test_sharpness_single_bin(self):
        mags = np.zeros((1, 256))
        mags[0, 99] = 1.0  # bin 100
        assert sharpness_rows(mags)[0] == \
            pytest.approx(dsp.hz_to_bark(100 * SR / 512))

    def test_sharpness_scale_invariant(self):
        mags = random_spectra(np.random.default_rng(4), 1)
        sharp = sharpness_rows(np.vstack([mags, 2.0 * mags]))
        assert sharp[1] == pytest.approx(sharp[0], rel=1e-12)

    def test_sharpness_oracle(self):
        mags = random_spectra(np.random.default_rng(5), 200)
        barks = [dsp.hz_to_bark(float((k + 1) * SR / 512)) for k in range(256)]
        direct = [sum(z * float(m) for z, m in zip(barks, row)) / sum(map(float, row))
                  for row in mags]
        assert sharpness_rows(mags) == pytest.approx(direct, rel=1e-9)

    # The flux of spectrum a against its predecessor b is row 1 of
    # flux_rows([b, a]).

    def test_flux_identical(self):
        mags = random_spectra(np.random.default_rng(6), 1)
        assert flux_rows(np.vstack([mags, mags]))[1] == 0.0

    def test_flux_disjoint_unit(self):
        a = np.zeros(256)
        b = np.zeros(256)
        a[10] = 3.0
        b[200] = 0.5
        assert flux_rows(np.stack([b, a]))[1] == pytest.approx(2.0)

    def test_flux_scale_invariant(self):
        mags = random_spectra(np.random.default_rng(7), 1)
        assert flux_rows(np.vstack([2.0 * mags, mags]))[1] == 0.0

    def test_flux_zero_spectrum(self):
        mags = random_spectra(np.random.default_rng(8), 1)
        assert flux_rows(np.vstack([np.zeros((1, 256)), mags]))[1] == 0.0

    def test_flux_range_and_oracle(self):
        rng = np.random.default_rng(9)
        a = random_spectra(rng, 200)
        b = random_spectra(rng, 200)
        direct = []
        for sa, sb in zip(a, b):
            na = np.sqrt(sum(float(v) ** 2 for v in sa))
            nb = np.sqrt(sum(float(v) ** 2 for v in sb))
            direct.append(sum((float(x) / na - float(y) / nb) ** 2
                              for x, y in zip(sa, sb)))
        # rows b0, a0, b1, a1, ...: odd row 2i + 1 holds the flux of a_i against b_i
        got = flux_rows(np.stack([b, a], axis=1).reshape(400, 256))[1::2]
        assert got == pytest.approx(direct, rel=1e-9)
        assert np.all((got >= 0.0) & (got <= 4.0))


def log_filter_energies(frames):
    """The log mel energies `mfcc_rows` takes its DCT of, step by step."""
    emphasized = frames.copy()
    emphasized[:, 1:] -= features.PRE_EMPHASIS * frames[:, :-1]
    mags = dsp.magnitude_spectra(emphasized)
    energies = mags ** 2 @ mel_filterbank(2 * mags.shape[1]).T
    return np.log(np.maximum(energies, features.LOG_FLOOR))


class TestMfcc:
    @pytest.mark.parametrize("source", ["random", "corpus"])
    def test_matches_scipys_orthonormal_dct(self, source, small_corpus):
        if source == "random":
            frames = np.random.default_rng(11).standard_normal((200, 320))
        else:
            x = corpus.load_audio(small_corpus.records[0]).samples
            frames = dsp.frame_signal(x, features.OTHER_FRAME_MS)
        logs = log_filter_energies(frames)
        want = dct(logs, type=2, norm="ortho", axis=1)[:, :len(features.MFCC_IDS)]
        # each coefficient is a 26-term sum of |logs| times |cos| <= 1
        bound = features.MEL_FILTERS * np.finfo(np.float64).eps * np.abs(logs).sum(axis=1)
        assert np.all(np.abs(mfcc_rows(frames) - want) <= bound[:, None])

    def test_dct_basis_is_orthonormal(self):
        basis = features.MFCC_DCT
        assert basis.shape == (features.MEL_FILTERS, len(features.MFCC_IDS))
        assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() < 1e-14

    def test_zero_frame_floor_vector(self):
        c = mfcc_rows(np.zeros((1, 320)))[0]
        expected_c0 = 26 * np.log(1e-10) * np.sqrt(1.0 / 26)
        assert c.shape == (13,)
        assert c[0] == pytest.approx(expected_c0, rel=1e-12)
        assert np.abs(c[1:]).max() < 1e-10

    def test_noise_vs_tone_distance(self):
        rng = np.random.default_rng(3)
        t = np.arange(320) / SR
        noise = 0.1 * rng.standard_normal((40, 320))
        tones = 0.5 * np.sin(2 * np.pi * 300 * t + rng.uniform(0, 2 * np.pi, (40, 1)))
        noise_mean = mfcc_rows(noise).mean(axis=0)
        tone_mean = mfcc_rows(tones).mean(axis=0)
        assert np.linalg.norm(noise_mean - tone_mean) > 1.0

    def test_filterbank_partition(self):
        bank = mel_filterbank(512)
        colsum = bank.sum(axis=0)
        pts = np.linspace(features._hz_to_mel(0.0), features._hz_to_mel(SR / 2), 28)
        lo_c = 700 * (10 ** (pts[1] / 2595) - 1)
        hi_c = 700 * (10 ** (pts[26] / 2595) - 1)
        freqs = np.arange(1, 257) * (SR / 512)
        inner = (freqs >= lo_c) & (freqs <= hi_c)
        assert inner.sum() > 200
        assert np.abs(colsum[inner] - 1.0).max() < 1e-9


class TestResolveFeatureset:
    def test_named_sets(self):
        assert resolve_featureset("handcrafted") == features.HANDCRAFTED_IDS
        assert resolve_featureset("mfcc") == features.MFCC_IDS
        assert len(resolve_featureset("all")) == 23

    def test_explicit_order_is_canonical(self):
        assert resolve_featureset(["HNR", "F0", "ENERGY"]) == ("F0", "ENERGY", "HNR")
        assert resolve_featureset("energy,hnr,f0") == ("F0", "ENERGY", "HNR")

    def test_set_names_and_ids_give_their_union(self):
        assert resolve_featureset("handcrafted,mfcc") == features.ALL_IDS
        assert resolve_featureset("mfcc,F0") == ("F0",) + features.MFCC_IDS
        assert resolve_featureset(["handcrafted", "ZCR"]) == features.HANDCRAFTED_IDS

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown feature ids"):
            resolve_featureset(["FOO"])
        with pytest.raises(ValueError, match=r"unknown feature ids \['FOO'\]"):
            resolve_featureset("mfcc,FOO")


class TestExtractMatrix:
    def test_one_second_handcrafted_geometry(self):
        rng = np.random.default_rng(0)
        w = Waveform(0.1 * rng.standard_normal(SR), SR)
        m = extract_matrix(w, "handcrafted")
        assert m.values.shape == (10, 95)
        assert m.channel_ids == features.HANDCRAFTED_IDS

    def test_all_is_23_channels(self):
        rng = np.random.default_rng(1)
        w = Waveform(0.1 * rng.standard_normal(SR // 2), SR)
        m = extract_matrix(w, "all")
        assert m.values.shape[0] == 23

    def test_silence_rows_zero(self):
        w = Waveform(np.zeros(SR), SR)
        m = extract_matrix(w, "handcrafted")
        for ch in ("F0", "VPROB", "JITTER", "DJITTER", "SHIMMER", "HNR", "ENERGY"):
            assert np.all(m.channels([ch]).values == 0.0), ch

    def test_voiced_tone_has_pitch_and_quality(self):
        x = np.tile(harmonic_tone(250.0, 5, n=960, seed=3), 20)
        m = extract_matrix(Waveform(0.2 * x / np.abs(x).max(), SR), "handcrafted")
        f0 = m.channels(["F0"]).values[0]
        assert (f0 > 0).mean() > 0.9
        assert np.median(f0[f0 > 0]) == pytest.approx(250.0, abs=5.0)
        assert m.channels(["HNR"]).values[0].max() > 1.0

    def test_too_short_errors(self):
        with pytest.raises(ValueError, match="too short"):
            extract_matrix(Waveform(np.zeros(800), SR), "handcrafted")

    def test_other_rates_are_refused(self):
        # every kernel runs at the one analysis rate; there is no resampler
        with pytest.raises(ValueError, match="sample rate 8000 Hz; features "
                                             "are computed at 16000 Hz"):
            extract_matrix(Waveform(np.zeros(8000), 8000), "all")

    def test_mfcc_only_skips_pitch(self, monkeypatch):
        def no_pitch(*args, **kwargs):
            raise AssertionError("MFCC-only extraction ran the pitch tracker")

        monkeypatch.setattr(pitch, "shs_batch", no_pitch)
        rng = np.random.default_rng(2)
        w = Waveform(0.1 * rng.standard_normal(SR // 4), SR)
        m = extract_matrix(w, "mfcc")
        assert m.values.shape == (13, 20)  # floor((4000-960)/160)+1: the 60 ms grid

    def test_voice_quality_kernels_run_once_per_utterance(self, monkeypatch):
        calls = {"track_periods": 0, "hnr": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(pitch, "track_periods")
        counted(features, "hnr")
        x = np.tile(harmonic_tone(250.0, 5, n=960, seed=3), 2 * SR // 960 + 1)[:2 * SR]
        m = extract_matrix(Waveform(0.2 * x / np.abs(x).max(), SR), "all")
        assert (m.channels(["F0"]).values > 0).sum() > 100
        assert calls == {"track_periods": 1, "hnr": 1}

    def test_all_extraction_peak_memory(self):
        # The peak is the windowed 60 ms stack plus its complex spectra
        # (about 4.5 MB for 2.875 s); a copied frame stack, or whole-stack
        # temporaries kept alive together, push it past the bound.
        rng = np.random.default_rng(np.random.SeedSequence([0, 0]))
        w = Waveform(corpus._synth_utterance(rng, "CT", 2.875), SR)
        extract_matrix(w, "all")  # the SHS kernel and mel bank are cached
        tracemalloc.start()
        try:
            extract_matrix(w, "all")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.9e6

    def test_subset_channels(self):
        rng = np.random.default_rng(3)
        w = Waveform(0.1 * rng.standard_normal(SR // 2), SR)
        assert extract_matrix(w, ["ZCR", "ENERGY"]).channel_ids == ("ENERGY", "ZCR")
        for subset, reference in ((["ZCR", "ENERGY"], "handcrafted"),
                                  ("mfcc", "all")):
            m = extract_matrix(w, subset)
            full = extract_matrix(w, reference)
            assert np.array_equal(m.values, full.channels(m.channel_ids).values)

    @settings(max_examples=12, deadline=None)
    @given(num_samples=st.integers(SR // 10, SR // 2),
           f0=st.floats(90.0, 300.0),
           seed=st.integers(0, 2 ** 16),
           subset=st.sets(st.sampled_from(features.ALL_IDS), min_size=1))
    def test_one_grid_for_every_channel_set(self, num_samples, f0, seed, subset):
        # A harmonic tone in light noise, so that the pitch and voice-quality
        # channels see voiced frames.
        rng = np.random.default_rng(seed)
        x = harmonic_tone(f0, 5, n=num_samples, seed=seed)
        x = 0.1 * x / np.abs(x).max() + 0.01 * rng.standard_normal(num_samples)
        w = Waveform(x, SR)
        full = extract_matrix(w, "all")
        m = extract_matrix(w, subset)
        frames = (num_samples - 960) // 160 + 1
        assert full.num_frames == frames
        assert m.num_frames == frames
        assert np.array_equal(m.values, full.channels(m.channel_ids).values)


class TestNorm:
    def _matrices(self, rng, n=4):
        return [FeatureMatrix(values=rng.normal(3.0, 2.5, (5, 50)),
                              channel_ids=("A", "B", "C", "D", "E"))
                for _ in range(n)]

    def test_train_set_is_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        mats = self._matrices(rng)
        stats = fit_norm(mats)
        normed = np.concatenate([apply_norm(m, stats).values for m in mats], axis=1)
        assert np.abs(normed.mean(axis=1)).max() <= 1e-6
        assert np.abs(normed.std(axis=1) - 1.0).max() <= 1e-3

    def test_constant_channel_floored(self):
        vals = np.vstack([np.full(40, 7.5), np.arange(40, dtype=float)])
        m = FeatureMatrix(values=vals, channel_ids=("K", "R"))
        stats = fit_norm([m])
        assert np.all(stats.std > 0)
        out = apply_norm(m, stats).values
        assert np.allclose(out[0], 0.0, atol=1e-6)

    def test_applies_to_unseen_data(self):
        rng = np.random.default_rng(1)
        stats = fit_norm(self._matrices(rng))
        test = self._matrices(rng, n=1)[0]
        assert np.all(np.isfinite(apply_norm(test, stats).values))

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty"):
            fit_norm([])

    def test_channel_mismatch(self):
        rng = np.random.default_rng(2)
        stats = fit_norm(self._matrices(rng))
        other = FeatureMatrix(values=np.zeros((2, 10)), channel_ids=("X", "Y"))
        with pytest.raises(ValueError, match="channel ids"):
            apply_norm(other, stats)


def test_feature_csv_round_trip(tmp_path):
    """`lctid extract` writes one CSV per utterance that reads back exactly."""
    wav_dir = tmp_path / "wav"
    manifest = corpus.synth_corpus(
        corpus.SynthSpec(num_utterances=2, dur_min_s=0.3, dur_max_s=0.5,
                         out_dir=str(wav_dir)), seed=3)
    out = tmp_path / "csv"
    ids = "F0,ENERGY,ZCR,MFCC_0"
    assert cli.main(["extract", "--manifest", str(wav_dir / "manifest.tsv"),
                     "--features", ids, "--out", str(out)]) == 0
    index = (out / "index.csv").read_text().splitlines()
    assert index[0] == "id,dialect,csv,frames"
    assert len(index) == 3
    for record, line in zip(manifest.records, index[1:]):
        expected = extract_matrix(corpus.read_wav(record.audio_path), ids)
        uid, dialect, csv_name, frames = line.split(",")
        assert (uid, dialect, int(frames)) == (record.id, record.dialect,
                                               expected.num_frames)
        lines = (out / csv_name).read_text().splitlines()
        assert lines[0] == ids
        assert len(lines) == expected.num_frames + 1
        back = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(back.T, expected.values)
