import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lctid import cnn, dsp, experiments, segmenter
from lctid.corpus import DIALECTS
from lctid.features import apply_norm
from conftest import synthetic_channel_dataset


def test_competition_ranks_with_ties():
    values = [0.9, 0.8, 0.9, 0.7]
    assert experiments.competition_ranks(values, higher_is_better=True) == [1, 3, 1, 4]
    assert experiments.competition_ranks(values, higher_is_better=False) == [3, 2, 3, 1]


def competition_ranks_oracle(values, higher_is_better):
    """1 plus the number of values strictly better, counted pair by pair."""
    if higher_is_better:
        return [1 + sum(1 for u in values if u > v) for v in values]
    return [1 + sum(1 for u in values if u < v) for v in values]


# few distinct values, so most lists hold ties
@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(-1e3, 1e3),
                max_size=12),
       st.booleans())
def test_competition_ranks_match_the_pairwise_count(values, higher_is_better):
    assert (experiments.competition_ranks(values, higher_is_better)
            == competition_ranks_oracle(values, higher_is_better))


@st.composite
def labelled_splits(draw):
    n_lt = draw(st.integers(2, 15))
    n_ct = draw(st.integers(2, 15))
    labels = draw(st.permutations(["LT"] * n_lt + ["CT"] * n_ct))
    return (labels, draw(st.floats(0.05, 0.5)),
            draw(st.integers(2, min(n_lt, n_ct))), draw(st.integers(0, 2**16)))


@settings(max_examples=60, deadline=None)
@given(labelled_splits())
def test_splits_are_disjoint_and_cover_every_index(case):
    labels, test_fraction, k, seed = case
    everything = set(range(len(labels)))

    train, test = experiments.stratified_holdout(labels, test_fraction, seed)
    assert not set(train) & set(test)
    assert set(train) | set(test) == everything
    assert {labels[i] for i in test} == {"LT", "CT"}

    folds = experiments.kfold_indices(labels, k, seed)
    assert len(folds) == k
    seen: set = set()
    for train, val in folds:
        assert not set(train) & set(val)
        assert set(train) | set(val) == everything
        assert not seen & set(val)
        seen |= set(val)
    assert seen == everything


def _config():
    return experiments.ExperimentConfig(
        train=cnn.TrainConfig(optimizer="minibatch_gd", batch_size=4, epochs=4,
                              seed=0),
        arch_id="CA02", test_fraction=0.25)


def test_ife_ranks_signal_above_noise():
    table = experiments.ife(["SIG", "NOISE"], synthetic_channel_dataset(), _config())
    ranks = {row.feature_id: row.rank for row in table.rows}
    assert ranks == {"SIG": 1, "NOISE": 2}
    assert len(table.rows) == 2


def test_rfe_ranks_removing_signal_first():
    dataset = synthetic_channel_dataset(channels=("SIG", "NOISE", "NOISE2"))
    config = experiments.ExperimentConfig(
        train=cnn.TrainConfig(optimizer="minibatch_gd", batch_size=4, epochs=4,
                              seed=0),
        arch_id="CA02", folds=2)
    table = experiments.rfe_round(["SIG", "NOISE", "NOISE2"], dataset, config)
    assert table.method == "rfe"
    # without SIG only noise is left; with it every fold separates
    ranks = {row.feature_id: row.rank for row in table.rows}
    assert ranks == {"SIG": 1, "NOISE": 2, "NOISE2": 2}


@pytest.mark.parametrize("fraction", [0.0, -3.0, 1.0, float("nan")])
def test_holdout_rejects_a_fraction_outside_0_1(fraction):
    with pytest.raises(ValueError, match=r"holdout fraction must be in \(0, 1\)"):
        experiments.stratified_holdout(["LT", "CT"] * 4, fraction, seed=0)


@pytest.mark.parametrize("fraction", [-0.1, 1.0, float("nan")])
def test_config_rejects_a_val_fraction_outside_0_1(fraction):
    with pytest.raises(ValueError, match=r"val_fraction must be in \[0, 1\)"):
        experiments.ExperimentConfig(val_fraction=fraction)


@pytest.mark.parametrize("settings, match", [
    ({"test_fraction": 0.0}, r"holdout fraction must be in \(0, 1\), got 0.0"),
    ({"folds": 1}, "folds must be >= 2, got 1"),
    ({"arch_id": "CA99"}, "unknown architecture 'CA99'"),
])
def test_config_rejects_split_settings_before_any_run(settings, match):
    # rfe_round never reads test_fraction; the config checks it for every run
    with pytest.raises(ValueError, match=match):
        experiments.ExperimentConfig(**settings)


def test_patience_needs_a_validation_split():
    # the message names the flag: the CLI passes --patience through unchecked
    with pytest.raises(ValueError, match="patience 3 needs a validation split; "
                                         r"set --val-fraction > 0"):
        experiments.ExperimentConfig(train=cnn.TrainConfig(early_stop_patience=3))


@pytest.mark.parametrize("arch_id", ["CA01", "CA03"])
def test_a_train_config_is_used_as_given(arch_id):
    # the benchmark passes a full TrainConfig; no field of it is resolved again
    train = cnn.TrainConfig(optimizer="minibatch_gd", batch_size=8, seed=4)
    config = experiments.ExperimentConfig(train=train, arch_id=arch_id,
                                          split_seed=0, val_fraction=0.0)
    assert config.train is train and config.split_seed == 0


@pytest.mark.parametrize("train, val_fraction, expected", [
    (None, 0.0, {"optimizer": "sgd", "batch_size": 1, "learning_rate": 0.005,
                 "early_stop_patience": 0}),
    ({"optimizer": "minibatch_gd"}, 0.2, {"batch_size": 32, "learning_rate": 0.01,
                                          "early_stop_patience": 5}),
    ({"early_stop_patience": 2}, 0.2, {"optimizer": "sgd", "early_stop_patience": 2}),
])
def test_a_dict_of_train_fields_resolves_the_rest(train, val_fraction, expected):
    config = experiments.ExperimentConfig(train=train, val_fraction=val_fraction)
    assert {k: getattr(config.train, k) for k in expected} == expected


def _decision_loop_stack(utt, norm, seg_duration_s):
    """One utterance's segments as the benchmark's decision loop builds them."""
    mat = apply_norm(utt.matrix.channels(norm.channel_ids), norm)
    segs = segmenter.split(mat, seg_duration_s)
    return np.asarray([s.matrix.T for s in segs])


def test_segment_path_matches_the_per_utterance_loop(small_handcrafted):
    # the benchmark checks the EvalReport against this loop; a break in the
    # shared segment path shows here first
    data = small_handcrafted
    config = experiments.ExperimentConfig(
        train=cnn.TrainConfig(optimizer="minibatch_gd", batch_size=8, epochs=2,
                              seed=0), arch_id="CA02", test_fraction=0.25)
    train_idx, test_idx = experiments.stratified_holdout(data.labels, 0.25, 0)
    report, model, aux = experiments.train_and_evaluate(
        data, data.channel_ids, config, train_idx, test_idx)
    norm, seg_s = aux["norm"], aux["segment_duration_s"]

    counts: dict = {}
    for i in test_idx:
        utt = data.utterances[i]
        acts = cnn.forward_batch(model, _decision_loop_stack(utt, norm, seg_s))
        key = (utt.dialect, segmenter.aggregate(acts))
        counts[key] = counts.get(key, 0) + 1
    assert {decided for _, decided in counts} == set(DIALECTS)  # not one class
    assert report == experiments.report_from_confusion(counts)

    train_utts = [data.utterances[i] for i in train_idx]
    stacks = [_decision_loop_stack(u, norm, seg_s) for u in train_utts]
    xs, ys = experiments._segments_for(train_utts, norm, seg_s)
    assert len(xs) > len(train_utts) == len(stacks)  # some span several segments
    assert np.array_equal(xs, np.concatenate(stacks))
    assert ys.tolist() == [DIALECTS.index(u.dialect)
                           for u, s in zip(train_utts, stacks) for _ in s]


@pytest.fixture(scope="module")
def trained_ca02(small_handcrafted):
    data = small_handcrafted
    config = experiments.ExperimentConfig(
        train=cnn.TrainConfig(optimizer="minibatch_gd", batch_size=8, epochs=2,
                              seed=0), arch_id="CA02", test_fraction=0.25)
    train_idx, test_idx = experiments.stratified_holdout(data.labels, 0.25, 0)
    report, model, aux = experiments.train_and_evaluate(
        data, data.channel_ids, config, train_idx, test_idx)
    return report, model, aux, [data.utterances[i] for i in test_idx]


@pytest.mark.parametrize("chunk", [1, 3, experiments.EVAL_CHUNK_SEGMENTS])
def test_evaluation_runs_one_forward_per_chunk(trained_ca02, monkeypatch, chunk):
    report, model, aux, test_utts = trained_ca02
    norm, seg_s = aux["norm"], aux["segment_duration_s"]
    counts = [len(experiments._segment_batch(u, norm, seg_s)) for u in test_utts]
    ends = np.cumsum(counts)
    if chunk == 3:  # some utterance's segments fall in two chunks
        assert any((e - n) // chunk != (e - 1) // chunk for e, n in zip(ends, counts))

    calls = []
    forward_batch = cnn.forward_batch

    def spy(model, x, *args, **kwargs):
        calls.append(len(x))
        return forward_batch(model, x, *args, **kwargs)

    monkeypatch.setattr(experiments, "EVAL_CHUNK_SEGMENTS", chunk)
    monkeypatch.setattr(cnn, "forward_batch", spy)
    assert experiments._evaluate_prepared(model, test_utts, norm, seg_s) == report
    assert len(calls) == -(-ends[-1] // chunk) and sum(calls) == ends[-1]
    assert max(calls) <= chunk


def test_saved_model_evaluates_as_the_per_utterance_loop(trained_ca02, small_corpus,
                                                         tmp_path):
    # the path that `lctid eval` runs: a model file and a manifest
    _, model, aux, _ = trained_ca02
    cnn.save(model, aux["norm"], tmp_path / "model.lct")
    loaded, norm = cnn.load(tmp_path / "model.lct")
    report = experiments.evaluate(loaded, norm, small_corpus)

    seg_s = loaded.input_frames * dsp.HOP_MS / 1000.0
    counts: dict = {}
    for utt in experiments.prepare_dataset(small_corpus, norm.channel_ids).utterances:
        acts = cnn.forward_batch(loaded, _decision_loop_stack(utt, norm, seg_s))
        key = (utt.dialect, segmenter.aggregate(acts))
        counts[key] = counts.get(key, 0) + 1
    assert {decided for _, decided in counts} == set(DIALECTS)
    assert report == experiments.report_from_confusion(counts)
    assert report.total == len(small_corpus)


def test_run_id_is_the_sha256_of_the_sorted_record():
    config = experiments.ExperimentConfig(arch_id="CA01",
                                          train={"epochs": 3, "seed": 7})
    record = experiments.run_record(config, ("F0", "MFCC_0"), "folds",
                                    {"command": "train", "mean_accuracy": 0.75})
    # the digest an earlier release gave this record: run ids stay comparable
    assert record["run_id"] == "90dd6f06610b"
    assert "folds" not in record["config"]
