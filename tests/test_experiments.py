import pytest
from hypothesis import given, settings, strategies as st

from lctid import cnn, experiments
from conftest import synthetic_channel_dataset


def test_competition_ranks_with_ties():
    values = [0.9, 0.8, 0.9, 0.7]
    assert experiments.competition_ranks(values, higher_is_better=True) == [1, 3, 1, 4]
    assert experiments.competition_ranks(values, higher_is_better=False) == [3, 2, 3, 1]


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
    assert table.evaluations == 2


def test_combine_rejects_overlapping_sets():
    with pytest.raises(ValueError, match="overlapping channels: \\['F0'\\]"):
        experiments.combine_and_eval("F0,ENERGY", "F0,ZCR",
                                     synthetic_channel_dataset(), _config())
