"""Training/evaluation protocol, metrics, and feature-ablation harnesses.

Evaluation is always at the utterance level: per-segment softmax
activations are averaged and the larger column wins.  Each metric is a
ratio of integer counts, taken as one correctly rounded division.

RFE ranks features by the accuracy drop when each one is removed (k-fold
mean per removal); IFE ranks them by the accuracy each achieves alone.
Tied accuracies share a rank and the following rank numbers are skipped.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import cnn, dsp, segmenter
from .corpus import DIALECTS, CorpusManifest, load_audio
from .features import (FeatureMatrix, NormStats, apply_norm, extract_matrix,
                       fit_norm, resolve_featureset)

logger = logging.getLogger(__name__)

__all__ = [
    "ClassMetrics", "EvalReport", "RankingRow", "RankingTable",
    "ExperimentConfig", "PreparedUtterance", "Dataset",
    "report_from_confusion", "prepare_dataset", "stratified_holdout",
    "kfold_indices", "train_and_evaluate", "evaluate",
    "rfe_round", "ife", "combine_and_eval", "competition_ranks",
    "run_record",
]


# ---------------------------------------------------------------------------
# Metrics

@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int

    def to_dict(self) -> dict:
        return {"precision": self.precision, "recall": self.recall,
                "f1": self.f1, "tp": self.tp, "fp": self.fp,
                "fn": self.fn, "tn": self.tn}


@dataclass(frozen=True)
class EvalReport:
    per_class: dict[str, ClassMetrics]
    accuracy: float
    total: int

    def to_dict(self) -> dict:
        return {"accuracy": self.accuracy, "total": self.total,
                "per_class": {d: m.to_dict() for d, m in self.per_class.items()}}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def report_from_confusion(counts: dict[tuple[str, str], int]) -> EvalReport:
    """Build an EvalReport from {(true_dialect, predicted_dialect): count}."""
    total = sum(counts.values())
    correct = sum(v for (t, p), v in counts.items() if t == p)
    per_class = {}
    for d in DIALECTS:
        tp = counts.get((d, d), 0)
        fp = sum(v for (t, p), v in counts.items() if p == d and t != d)
        fn = sum(v for (t, p), v in counts.items() if t == d and p != d)
        tn = total - tp - fp - fn
        per_class[d] = ClassMetrics(
            precision=_ratio(tp, tp + fp),
            recall=_ratio(tp, tp + fn),
            f1=_ratio(2 * tp, 2 * tp + fp + fn),
            tp=tp, fp=fp, fn=fn, tn=tn)
    return EvalReport(per_class=per_class, accuracy=_ratio(correct, total),
                      total=total)


# ---------------------------------------------------------------------------
# Ranking

@dataclass(frozen=True)
class RankingRow:
    feature_id: str
    accuracy: float
    rank: int


@dataclass(frozen=True)
class RankingTable:
    rows: tuple[RankingRow, ...]
    method: str  # "rfe" or "ife"
    evaluations: int = 0

    def gap_stats(self) -> tuple[float, float, float]:
        """(min, max, mean) gaps between successive distinct accuracies."""
        distinct = sorted(set(r.accuracy for r in self.rows))
        if len(distinct) < 2:
            return (0.0, 0.0, 0.0)
        gaps = np.diff(distinct)
        return (float(gaps.min()), float(gaps.max()), float(gaps.mean()))

    def write_csv(self, path: str | Path) -> None:
        lines = ["feature,accuracy,rank"]
        lines += [f"{r.feature_id},{r.accuracy!r},{r.rank}" for r in self.rows]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def competition_ranks(values: Sequence[float], higher_is_better: bool) -> list[int]:
    """Standard competition ranking: ties share a rank, later ranks skip."""
    ranks = []
    for v in values:
        if higher_is_better:
            better = sum(1 for u in values if u > v)
        else:
            better = sum(1 for u in values if u < v)
        ranks.append(1 + better)
    return ranks


def _rank_accuracies(acc_map: dict[str, float], method: str) -> RankingTable:
    """Rank 1 for the lowest accuracy-when-ablated under "rfe" (the most
    impact) and for the highest standalone accuracy under "ife"."""
    feats = list(acc_map)
    ranks = competition_ranks([acc_map[f] for f in feats],
                              higher_is_better=method == "ife")
    rows = tuple(RankingRow(f, acc_map[f], r) for f, r in zip(feats, ranks))
    return RankingTable(rows=rows, method=method, evaluations=len(feats))


# ---------------------------------------------------------------------------
# Prepared datasets (features extracted once, channels sliced per run)

@dataclass(frozen=True)
class PreparedUtterance:
    id: str
    dialect: str
    matrix: FeatureMatrix


@dataclass(frozen=True)
class Dataset:
    utterances: tuple[PreparedUtterance, ...]
    channel_ids: tuple[str, ...]

    @property
    def labels(self) -> list[str]:
        return [u.dialect for u in self.utterances]

    def __len__(self) -> int:
        return len(self.utterances)


def prepare_dataset(manifest: CorpusManifest,
                    featureset: str | Iterable[str]) -> Dataset:
    """Extract the requested channels for every utterance in the manifest."""
    channels = resolve_featureset(featureset)
    prepared = tuple(
        PreparedUtterance(id=r.id, dialect=r.dialect,
                          matrix=extract_matrix(load_audio(r), channels,
                                                source_id=r.id))
        for r in manifest.records)
    return Dataset(utterances=prepared, channel_ids=channels)


def stratified_holdout(labels: Sequence[str], test_fraction: float,
                       seed: int) -> tuple[list[int], list[int]]:
    """Disjoint per-class split; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for d in DIALECTS:
        members = [i for i, lab in enumerate(labels) if lab == d]
        if not members:
            continue
        order = rng.permutation(len(members))
        n_test = max(1, int(round(test_fraction * len(members))))
        if n_test >= len(members):
            raise ValueError(f"class {d}: not enough utterances to hold out")
        for j, k in enumerate(order):
            (test_idx if j < n_test else train_idx).append(members[k])
    return sorted(train_idx), sorted(test_idx)


def kfold_indices(labels: Sequence[str], k: int,
                  seed: int) -> list[tuple[list[int], list[int]]]:
    """Stratified k-fold: validation folds are disjoint and cover everything."""
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    fold_members: list[list[int]] = [[] for _ in range(k)]
    for d in DIALECTS:
        members = [i for i, lab in enumerate(labels) if lab == d]
        if members and len(members) < k:
            raise ValueError(f"class {d} has {len(members)} utterances; need >= {k}")
        order = rng.permutation(len(members))
        for j, m in enumerate(order):
            fold_members[j % k].append(members[m])
    folds = []
    for i in range(k):
        val = sorted(fold_members[i])
        train = sorted(x for j in range(k) if j != i for x in fold_members[j])
        folds.append((train, val))
    return folds


# ---------------------------------------------------------------------------
# Training plus evaluation

@dataclass(frozen=True)
class ExperimentConfig:
    train: cnn.TrainConfig = field(default_factory=cnn.TrainConfig)
    arch_id: str = "CA03"
    test_fraction: float = 0.2
    split_seed: int = 0
    folds: int = 4
    val_fraction: float = 0.0  # carved out of train for early stopping


def _segments_for(utterances, norm: NormStats, seg_duration_s: float):
    xs, ys = [], []
    for u in utterances:
        mat = apply_norm(u.matrix.channels(norm.channel_ids), norm)
        for seg in segmenter.split(mat, seg_duration_s):
            xs.append(seg.matrix.T)  # frames x channels
            ys.append(DIALECTS.index(u.dialect))
    return np.asarray(xs), np.asarray(ys)


def _evaluate_prepared(model: cnn.Model, utterances, norm: NormStats,
                       seg_duration_s: float) -> EvalReport:
    counts: dict[tuple[str, str], int] = {}
    for u in utterances:
        mat = apply_norm(u.matrix.channels(norm.channel_ids), norm)
        segs = segmenter.split(mat, seg_duration_s)
        acts = cnn.forward_batch(model, np.asarray([s.matrix.T for s in segs]))
        decided = segmenter.aggregate(acts)
        key = (u.dialect, decided)
        counts[key] = counts.get(key, 0) + 1
    return report_from_confusion(counts)


def train_and_evaluate(dataset: Dataset, channels: Sequence[str],
                       config: ExperimentConfig,
                       train_idx: Sequence[int], test_idx: Sequence[int],
                       ) -> tuple[EvalReport, cnn.Model, dict]:
    """Train one model on the given split and score it on the held-out part.

    Segment duration is the first quartile of the training utterances'
    durations; normalization is fitted on the training matrices only.
    """
    channels = tuple(channels)
    train_utts = [dataset.utterances[i] for i in train_idx]
    test_utts = [dataset.utterances[i] for i in test_idx]
    if not train_utts or not test_utts:
        raise ValueError("both train and test splits must be non-empty")

    train_mats = [u.matrix.channels(channels) for u in train_utts]
    seg_duration_s = segmenter.first_quartile([m.duration_s for m in train_mats])
    norm = fit_norm(train_mats)
    seg_len = segmenter.segment_frames(seg_duration_s)

    val_utts: list = []
    if config.val_fraction > 0.0:
        tr, va = stratified_holdout([u.dialect for u in train_utts],
                                    config.val_fraction, config.split_seed + 1)
        val_utts = [train_utts[i] for i in va]
        train_utts = [train_utts[i] for i in tr]

    xs, ys = _segments_for(train_utts, norm, seg_duration_s)
    model = cnn.build(config.arch_id, input_frames=seg_len,
                      in_channels=len(channels), seed=config.train.seed,
                      conv_dropout=config.train.conv_dropout,
                      dense_dropout=config.train.dense_dropout)
    val_args = {}
    if val_utts:
        vx, vy = _segments_for(val_utts, norm, seg_duration_s)
        val_args = {"val_inputs": vx, "val_targets": vy}
    history = cnn.train(model, xs, ys, config.train, **val_args)
    report = _evaluate_prepared(model, test_utts, norm, seg_duration_s)
    aux = {"history": history, "norm": norm, "segment_duration_s": seg_duration_s,
           "num_train_segments": int(len(xs))}
    return report, model, aux


def evaluate(model: cnn.Model, norm: NormStats,
             manifest: CorpusManifest) -> EvalReport:
    """Score a trained model on a manifest; decisions are per utterance.

    `model` and `norm` are what `cnn.load` returns: the channels extracted
    are `norm.channel_ids`, normalised with its statistics, and the segment
    length is the model's `input_frames` on the `dsp.HOP_MS` grid.
    """
    dataset = prepare_dataset(manifest, norm.channel_ids)
    seg_duration_s = model.input_frames * dsp.HOP_MS / 1000.0
    return _evaluate_prepared(model, dataset.utterances, norm, seg_duration_s)


# ---------------------------------------------------------------------------
# Ablation harnesses

def _mean_kfold_accuracy(dataset: Dataset, channels: Sequence[str],
                         config: ExperimentConfig) -> float:
    accuracies = []
    for train_idx, val_idx in kfold_indices(dataset.labels, config.folds,
                                            config.split_seed):
        report, _, _ = train_and_evaluate(dataset, channels, config,
                                          train_idx, val_idx)
        accuracies.append(report.accuracy)
    return float(np.mean(accuracies))


def _check_in_dataset(feats: Sequence[str], dataset: Dataset) -> None:
    missing = [f for f in feats if f not in dataset.channel_ids]
    if missing:
        raise KeyError(f"features not in dataset: {missing}")


def rfe_round(features: Iterable[str], dataset: Dataset,
              config: ExperimentConfig) -> RankingTable:
    """One round of recursive feature elimination.

    Each feature is ablated in turn and the remaining set is scored by
    k-fold mean accuracy; the lower the accuracy without it, the more the
    feature mattered (rank 1).  Exactly one evaluation per feature.
    """
    feats = list(dict.fromkeys(features))
    if len(feats) < 2:
        raise ValueError("RFE needs at least 2 features")
    _check_in_dataset(feats, dataset)
    acc_map = {}
    for f in feats:
        rest = [c for c in feats if c != f]
        acc = _mean_kfold_accuracy(dataset, rest, config)
        acc_map[f] = acc
        logger.info("rfe: ablated %s -> accuracy %.4f", f, acc)
    return _rank_accuracies(acc_map, "rfe")


def ife(features: Iterable[str], dataset: Dataset,
        config: ExperimentConfig) -> RankingTable:
    """Independent feature evaluation: one train/evaluate per single feature."""
    feats = list(dict.fromkeys(features))
    if not feats:
        raise ValueError("IFE needs at least 1 feature")
    _check_in_dataset(feats, dataset)
    train_idx, test_idx = stratified_holdout(dataset.labels,
                                             config.test_fraction,
                                             config.split_seed)
    acc_map = {}
    for f in feats:
        report, _, _ = train_and_evaluate(dataset, [f], config,
                                          train_idx, test_idx)
        acc_map[f] = report.accuracy
        logger.info("ife: %s alone -> accuracy %.4f", f, report.accuracy)
    return _rank_accuracies(acc_map, "ife")


def combine_and_eval(base: str | Iterable[str], extra: str | Iterable[str],
                     dataset: Dataset, config: ExperimentConfig,
                     ) -> tuple[EvalReport, cnn.Model, dict]:
    """Concatenate two disjoint channel sets and run the standard protocol."""
    base_ids = resolve_featureset(base)
    extra_ids = resolve_featureset(extra)
    overlap = set(base_ids) & set(extra_ids)
    if overlap:
        raise ValueError(f"overlapping channels: {sorted(overlap)}")
    channels = tuple(c for c in dataset.channel_ids
                     if c in set(base_ids) | set(extra_ids))
    if len(channels) != len(base_ids) + len(extra_ids):
        raise KeyError("combined channels missing from dataset")
    train_idx, test_idx = stratified_holdout(dataset.labels,
                                             config.test_fraction,
                                             config.split_seed)
    return train_and_evaluate(dataset, channels, config, train_idx, test_idx)


# ---------------------------------------------------------------------------
# Audit trail

def run_record(config: ExperimentConfig, featureset: Sequence[str],
               fold_reports: Sequence[EvalReport], extra: dict | None = None) -> dict:
    payload = {
        "config": asdict(config),
        "featureset": list(featureset),
        "folds": [r.to_dict() for r in fold_reports],
        "mean_accuracy": (float(np.mean([r.accuracy for r in fold_reports]))
                          if fold_reports else 0.0),
    }
    if extra:
        payload.update(extra)
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
    payload["run_id"] = digest[:12]
    return payload
