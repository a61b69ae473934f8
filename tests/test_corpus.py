import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synth_oracle
from lctid import corpus
from lctid.corpus import (CorpusError, CorpusManifest, SynthSpec,
                          UtteranceRecord, Waveform, derive_balanced_subset,
                          load_manifest, read_wav, synth_corpus,
                          wav_duration_s, write_wav)

SR = 16000


def raw_wav_bytes(payload, format_code=1, channels=1, rate=SR, bits=16):
    fmt = struct.pack("<HHIIHH", format_code, channels, rate,
                      rate * channels * bits // 8, channels * bits // 8, bits)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def total_duration_per_class(manifest):
    totals = {d: 0.0 for d in corpus.DIALECTS}
    for r in manifest.records:
        totals[r.dialect] += r.duration_s
    return totals


class TestManifest:
    def _wav(self, path, n=1600):
        write_wav(path, Waveform(np.zeros(n), SR))

    def test_two_rows(self, tmp_path):
        self._wav(tmp_path / "a.wav")
        self._wav(tmp_path / "b.wav", n=3200)
        m = tmp_path / "m.tsv"
        m.write_text("id\tpath\tdialect\nu1\ta.wav\tLT\nu2\tb.wav\tCT\n")
        manifest = load_manifest(m)
        assert len(manifest) == 2
        assert {r.dialect for r in manifest.records} == {"LT", "CT"}
        totals = total_duration_per_class(manifest)
        assert totals["LT"] == pytest.approx(0.1)
        assert totals["CT"] == pytest.approx(0.2)

    def test_empty_file(self, tmp_path):
        m = tmp_path / "m.tsv"
        m.write_text("")
        with pytest.raises(CorpusError, match="no records"):
            load_manifest(m)

    def test_unknown_dialect_names_row(self, tmp_path):
        self._wav(tmp_path / "a.wav")
        m = tmp_path / "m.tsv"
        m.write_text("u1\ta.wav\tLT\nu2\ta.wav\tXX\n")
        with pytest.raises(CorpusError, match="row 2"):
            load_manifest(m)

    def test_malformed_row(self, tmp_path):
        m = tmp_path / "m.tsv"
        m.write_text("u1\tonlytwofields\n")
        with pytest.raises(CorpusError, match="row 1"):
            load_manifest(m)

    def test_duplicate_id(self, tmp_path):
        self._wav(tmp_path / "a.wav")
        m = tmp_path / "m.tsv"
        m.write_text("u1\ta.wav\tLT\nu1\ta.wav\tCT\n")
        with pytest.raises(CorpusError, match="duplicate"):
            load_manifest(m)

    def test_empty_id_names_row(self, tmp_path):
        self._wav(tmp_path / "a.wav")
        m = tmp_path / "m.tsv"
        m.write_text("u1\ta.wav\tLT\n \ta.wav\tCT\n")
        with pytest.raises(CorpusError, match=r"m\.tsv: row 2: empty id$"):
            load_manifest(m)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            load_manifest(tmp_path / "nope.tsv")


class TestWav:
    def test_pcm16_scaling(self, tmp_path):
        n = 777
        payload = struct.pack(f"<{n}h", *([16384] * n))
        p = tmp_path / "c.wav"
        p.write_bytes(raw_wav_bytes(payload))
        w = read_wav(p)
        assert w.samples.shape == (n,)
        assert np.all(w.samples == 0.5)  # 16384 / 32768

    def test_stereo_average(self, tmp_path):
        frames = 100
        left = int(0.4 * 32768)
        interleaved = [v for _ in range(frames) for v in (left, -left)]
        payload = struct.pack(f"<{2 * frames}h", *interleaved)
        p = tmp_path / "s.wav"
        p.write_bytes(raw_wav_bytes(payload, channels=2))
        w = read_wav(p)
        assert w.samples.shape == (frames,)
        assert np.all(w.samples == 0.0)

    def test_mulaw_rejected(self, tmp_path):
        p = tmp_path / "u.wav"
        p.write_bytes(raw_wav_bytes(b"\x00" * 100, format_code=7, bits=8))
        with pytest.raises(CorpusError, match="unsupported encoding"):
            read_wav(p)

    def test_truncated_data(self, tmp_path):
        payload = struct.pack("<100h", *range(100))
        blob = raw_wav_bytes(payload)
        p = tmp_path / "t.wav"
        p.write_bytes(blob[:-50])
        with pytest.raises(CorpusError):
            read_wav(p)

    def test_truncated_fmt_chunk(self, tmp_path):
        fmt = struct.pack("<HHI", 1, 1, SR)  # 8 of the 16 bytes
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        p = tmp_path / "f.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(CorpusError, match=r"f\.wav: truncated fmt chunk$"):
            read_wav(p)

    def test_missing_data_chunk(self, tmp_path):
        blob = raw_wav_bytes(b"")
        p = tmp_path / "d.wav"
        p.write_bytes(blob[:blob.index(b"data")])  # RIFF, WAVE and fmt only
        with pytest.raises(CorpusError, match=r"d\.wav: missing fmt or data chunk$"):
            read_wav(p)

    def test_empty_data_chunk(self, tmp_path):
        p = tmp_path / "e.wav"
        p.write_bytes(raw_wav_bytes(b""))
        with pytest.raises(CorpusError, match=r"e\.wav: empty audio data$"):
            read_wav(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match=r"^audio file not found: .*nope\.wav$"):
            read_wav(tmp_path / "nope.wav")

    def test_not_riff(self, tmp_path):
        p = tmp_path / "x.wav"
        p.write_bytes(b"garbage file contents")
        with pytest.raises(CorpusError, match="RIFF"):
            read_wav(p)

    @pytest.mark.parametrize("field", [{"channels": 0}, {"rate": 0}])
    def test_zero_channels_or_rate_rejected(self, tmp_path, field):
        p = tmp_path / "z.wav"
        p.write_bytes(raw_wav_bytes(struct.pack("<100h", *range(100)), **field))
        with pytest.raises(CorpusError, match="fmt chunk declares"):
            read_wav(p)
        with pytest.raises(CorpusError, match="fmt chunk declares"):
            wav_duration_s(p)

    @pytest.mark.parametrize("payload, field", [
        (b"\x00" * 101, {}),                                   # mono PCM16
        (b"\x00" * 6, {"channels": 2}),                        # stereo PCM16
        (b"\x00" * 10, {"format_code": 3, "bits": 32}),        # float32
    ])
    def test_partial_sample_frame_rejected(self, tmp_path, payload, field):
        p = tmp_path / "odd.wav"
        p.write_bytes(raw_wav_bytes(payload, **field))
        for read in (read_wav, wav_duration_s):
            with pytest.raises(CorpusError, match="odd.wav.*whole number"):
                read(p)

    def test_pcm16_round_trip_within_one_lsb(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.99, 0.99, 5000)
        p = tmp_path / "r.wav"
        write_wav(p, Waveform(x, SR))
        back = read_wav(p)
        assert back.sample_rate_hz == SR
        assert np.abs(back.samples - x).max() <= 1.0 / 32768.0

    def test_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 300).astype(np.float32).astype(np.float64)
        p = tmp_path / "f.wav"
        p.write_bytes(raw_wav_bytes(x.astype("<f4").tobytes(), format_code=3,
                                    bits=32))
        back = read_wav(p)
        assert np.array_equal(back.samples, x)

    def test_decode_holds_the_file_and_its_output_only(self, tmp_path):
        # a 46,000-sample PCM16 file traced 0.79 MiB when the data chunk was
        # sliced into new bytes and the scale and the clip each made a
        # float64 temporary; it is read in place and decoded into one array
        p = tmp_path / "m.wav"
        write_wav(p, Waveform(np.random.default_rng(2).uniform(-0.9, 0.9, 46000), SR))
        read_wav(p)
        tracemalloc.start()
        try:
            w = read_wav(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.stat().st_size + w.samples.nbytes + (16 << 10)

    def test_header_duration(self, tmp_path):
        p = tmp_path / "d.wav"
        write_wav(p, Waveform(np.zeros(8000), SR))
        assert wav_duration_s(p) == pytest.approx(0.5)

    def test_duration_reads_no_data_chunk(self, tmp_path):
        # load_manifest calls it once per record: it reads the chunk headers
        # and seeks past the samples, so it holds none of a 6 MB file
        p = tmp_path / "long.wav"
        write_wav(p, Waveform(np.zeros(3_000_000), SR))
        wav_duration_s(p)
        tracemalloc.start()
        try:
            dur = wav_duration_s(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dur == 187.5
        assert peak < 64 << 10

    @pytest.mark.parametrize("decode", [
        read_wav,
        lambda p: corpus.load_audio(UtteranceRecord(id="x", audio_path=str(p),
                                                    dialect="LT")),
    ], ids=["read_wav", "load_audio"])
    def test_load_audio_rejects_other_rates(self, tmp_path, decode):
        p = tmp_path / "slow.wav"
        write_wav(p, Waveform(np.zeros(8000), 8000))
        with pytest.raises(CorpusError, match="sample rate"):
            decode(p)


def _fake_manifest(durations_lt, durations_ct):
    recs = []
    for i, d in enumerate(durations_lt):
        recs.append(UtteranceRecord(f"lt{i}", f"lt{i}.wav", "LT", d))
    for i, d in enumerate(durations_ct):
        recs.append(UtteranceRecord(f"ct{i}", f"ct{i}.wav", "CT", d))
    return CorpusManifest(records=tuple(recs))


class TestBalancedSubset:
    def test_subsamples_to_target(self):
        rng = np.random.default_rng(4)
        # 31.49 h of LT vs 8.11 h of CT, target 8 h per class
        lt = list(rng.uniform(20, 40, 3600))
        lt = [d * (31.49 * 3600 / sum(lt)) for d in lt]
        ct = list(rng.uniform(20, 40, 900))
        ct = [d * (8.11 * 3600 / sum(ct)) for d in ct]
        manifest = _fake_manifest(lt, ct)
        sub = derive_balanced_subset(manifest, 8.0, seed=1)
        totals = total_duration_per_class(sub)
        for d in ("LT", "CT"):
            assert totals[d] >= 8.0 * 3600
            assert totals[d] - 8.0 * 3600 <= max(r.duration_s for r in manifest.records)
        assert len(sub.by_dialect("LT")) < 3600  # heavily subsampled

    def test_zero_target_is_rejected(self):
        # an empty subset would fail later, in the split, without the cause
        manifest = _fake_manifest([1.0, 2.0], [3.0])
        with pytest.raises(CorpusError, match="needs > 0 h per class, got 0 h"):
            derive_balanced_subset(manifest, 0.0, seed=0)

    def test_deterministic(self):
        manifest = _fake_manifest(list(range(1, 40)), list(range(1, 40)))
        a = derive_balanced_subset(manifest, 0.02, seed=9)
        b = derive_balanced_subset(manifest, 0.02, seed=9)
        assert [r.id for r in a.records] == [r.id for r in b.records]

    def test_insufficient_class(self):
        manifest = _fake_manifest([3600.0 * 9], [3600.0])
        with pytest.raises(CorpusError, match="CT"):
            derive_balanced_subset(manifest, 2.0, seed=0)


class TestSynthCorpus:
    def test_count_and_balance(self, tmp_path):
        spec = SynthSpec(num_utterances=12, dur_min_s=0.5, dur_max_s=0.8,
                         out_dir=str(tmp_path / "s"))
        manifest = synth_corpus(spec, seed=3)
        assert len(manifest) == 12
        assert len(manifest.by_dialect("LT")) == 6
        assert len(manifest.by_dialect("CT")) == 6
        for r in manifest.records:
            assert r.duration_s > 0
            assert r.duration_s == wav_duration_s(r.audio_path)
        assert load_manifest(tmp_path / "s" / "manifest.tsv") == manifest

    def test_byte_identical_given_seed(self, tmp_path):
        spec_a = SynthSpec(num_utterances=6, dur_min_s=0.5, dur_max_s=0.7,
                           out_dir=str(tmp_path / "a"))
        spec_b = SynthSpec(num_utterances=6, dur_min_s=0.5, dur_max_s=0.7,
                           out_dir=str(tmp_path / "b"))
        ma = synth_corpus(spec_a, seed=21)
        mb = synth_corpus(spec_b, seed=21)
        for ra, rb in zip(ma.records, mb.records):
            with open(ra.audio_path, "rb") as fa, open(rb.audio_path, "rb") as fb:
                assert fa.read() == fb.read()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dialect=st.sampled_from(corpus.DIALECTS),
           dur_s=st.floats(0.2, 6.0))
    def test_block_schedule_is_the_per_pulse_loop(self, seed, dialect, dur_s):
        # shimmer then jitter per pulse, read from one block of draws: the
        # samples and the generator's next draw equal the scalar loop's
        block, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        x = corpus._synth_utterance(block, dialect, dur_s)
        y = synth_oracle.synth_utterance(loop, dialect, dur_s)
        assert np.array_equal(x, y)
        assert block.random() == loop.random()

    def test_flux_contrast_over_corpus(self, small_corpus, small_handcrafted):
        lt = [u.matrix.channels(["SFLUX"]).values.mean()
              for u in small_handcrafted.utterances if u.dialect == "LT"]
        ct = [u.matrix.channels(["SFLUX"]).values.mean()
              for u in small_handcrafted.utterances if u.dialect == "CT"]
        assert np.mean(lt) > np.mean(ct)

    def test_labels_recoverable_from_flux_threshold(self, small_handcrafted):
        # the end-to-end acceptance test is well-posed: a single threshold on
        # mean spectral flux recovers > 90% of the labels
        stats = [(u.matrix.channels(["SFLUX"]).values.mean(), u.dialect)
                 for u in small_handcrafted.utterances]
        values = sorted(s for s, _ in stats)
        best = 0.0
        for i in range(len(values) - 1):
            thr = 0.5 * (values[i] + values[i + 1])
            acc = np.mean([(("LT" if s > thr else "CT") == d) for s, d in stats])
            best = max(best, acc)
        assert best > 0.9


def test_synth_corpus_names_an_output_directory_it_cannot_create(tmp_path):
    # a directory under a regular file cannot be made, whoever runs the test
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "corp"
    with pytest.raises(CorpusError, match=f"^output directory not writable: {re.escape(str(out))}: "):
        synth_corpus(SynthSpec(num_utterances=2, out_dir=str(out)), seed=0)
    assert not out.exists()
