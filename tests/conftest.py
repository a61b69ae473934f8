import numpy as np
import pytest

from lctid import corpus, experiments

SR = 16000


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth_small")
    spec = corpus.SynthSpec(num_utterances=40, dur_min_s=0.8, dur_max_s=1.6,
                            out_dir=str(out))
    return corpus.synth_corpus(spec, seed=7)


@pytest.fixture(scope="session")
def small_handcrafted(small_corpus):
    return experiments.prepare_dataset(small_corpus, "handcrafted")


def harmonic_tone(f0, num_harmonics, n=960, first=1, seed=0, sr=SR):
    """Equal-amplitude harmonics with random phases."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / sr
    x = np.zeros(n)
    for h in range(first, first + num_harmonics):
        x += np.sin(2 * np.pi * h * f0 * t + rng.uniform(0, 2 * np.pi))
    return x


def synthetic_channel_dataset(num_utterances=24, frames=60, seed=0,
                              channels=("SIG", "NOISE")):
    """Label-separable toy dataset: SIG carries the class, NOISE does not."""
    from lctid.features import FeatureMatrix

    rng = np.random.default_rng(seed)
    utts = []
    for i in range(num_utterances):
        dialect = "LT" if i % 2 == 0 else "CT"
        sign = 1.0 if dialect == "LT" else -1.0
        rows = []
        for ch in channels:
            if ch.startswith("SIG"):
                rows.append(sign * 1.0 + 0.3 * rng.standard_normal(frames))
            else:
                rows.append(rng.standard_normal(frames))
        mat = FeatureMatrix(values=np.asarray(rows), channel_ids=tuple(channels))
        utts.append(experiments.PreparedUtterance(id=f"u{i:03d}",
                                                  dialect=dialect, matrix=mat))
    return experiments.Dataset(utterances=tuple(utts),
                               channel_ids=tuple(channels))
