"""Training/evaluation protocol, metrics, and feature-ablation harnesses.

Evaluation is always at the utterance level: per-segment softmax
activations are averaged and the larger column wins.  The held-out
segments are scored in chunks of `EVAL_CHUNK_SEGMENTS`, not one forward
per utterance; each utterance's rows then go to `segmenter.aggregate`, the
one decision rule.  Each metric is a ratio of integer counts, taken as one
correctly rounded division.

RFE ranks features by the accuracy drop when each one is removed (k-fold
mean per removal); IFE ranks them by the accuracy each achieves alone.
Tied accuracies share a rank and the following rank numbers are skipped.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
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
    "rfe_round", "ife", "competition_ranks",
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
    """Standard competition ranking: ties share a rank, later ranks skip.

    A value's rank is 1 plus the number of values better than it, which is
    where it first fits in the values sorted best first.
    """
    keys = np.asarray(values, dtype=float)
    if higher_is_better:
        keys = -keys
    return (np.searchsorted(np.sort(keys), keys, side="left") + 1).tolist()


def _rank_accuracies(acc_map: dict[str, float], method: str) -> RankingTable:
    """Rank 1 for the lowest accuracy-when-ablated under "rfe" (the most
    impact) and for the highest standalone accuracy under "ife"."""
    feats = list(acc_map)
    ranks = competition_ranks([acc_map[f] for f in feats],
                              higher_is_better=method == "ife")
    rows = tuple(RankingRow(f, acc_map[f], r) for f, r in zip(feats, ranks))
    return RankingTable(rows=rows, method=method)


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


def _check_holdout_fraction(fraction: float) -> None:
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"holdout fraction must be in (0, 1), got {fraction}")


def stratified_holdout(labels: Sequence[str], test_fraction: float,
                       seed: int) -> tuple[list[int], list[int]]:
    """Disjoint per-class split; deterministic for a given seed."""
    _check_holdout_fraction(test_fraction)
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
    """A run's settings.  `train` is a `cnn.TrainConfig`, used as given, or a
    dict of the fields to set; the optimizer then follows `arch_id` and the
    patience is 5 with a validation split, else 0.  `split_seed` defaults to
    the training seed."""
    train: cnn.TrainConfig | dict | None = None
    arch_id: str = "CA03"
    test_fraction: float = 0.2
    split_seed: int | None = None
    folds: int = 4
    val_fraction: float = 0.0  # carved out of train for early stopping

    def __post_init__(self):
        # checked here, before any audio is read, as well as where it is used
        if self.arch_id not in cnn.ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.arch_id!r}; "
                             f"choose from {sorted(cnn.ARCHITECTURES)}")
        _check_holdout_fraction(self.test_fraction)
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), "
                             f"got {self.val_fraction}")
        train = self.train
        if not isinstance(train, cnn.TrainConfig):
            train = cnn.TrainConfig(**{
                "optimizer": cnn.default_optimizer(self.arch_id),
                "early_stop_patience": 5 if self.val_fraction > 0 else 0,
                **(train or {})})
            object.__setattr__(self, "train", train)
        if train.early_stop_patience > 0 and self.val_fraction == 0:
            raise ValueError(f"patience {train.early_stop_patience} needs a "
                             f"validation split; set --val-fraction > 0")
        if self.split_seed is None:
            object.__setattr__(self, "split_seed", train.seed)


# Held-out segments per forward.  From cnn.SGEMM_MIN_ROWS rows up a Dense
# layer is one sgemm, which makes one pass over the weights for all rows: 16
# rows of dense0 took 1.67 ms, against 6.89 ms as 16 gemvs.  The chunk caps
# the memory.
EVAL_CHUNK_SEGMENTS = 16


def _segment_batch(u: PreparedUtterance, norm: NormStats,
                   seg_duration_s: float) -> np.ndarray:
    """(segments, frames, channels): one utterance z-scored and split."""
    mat = apply_norm(u.matrix.channels(norm.channel_ids), norm)
    return np.asarray([s.matrix.T for s in segmenter.split(mat, seg_duration_s)])


def _segments_for(utterances, norm: NormStats, seg_duration_s: float):
    """Every utterance's segments stacked, with its class index per segment."""
    batches = [_segment_batch(u, norm, seg_duration_s) for u in utterances]
    labels = [DIALECTS.index(u.dialect) for u in utterances]
    return np.concatenate(batches), np.repeat(labels, [len(b) for b in batches])


def _evaluate_prepared(model: cnn.Model, utterances, norm: NormStats,
                       seg_duration_s: float) -> EvalReport:
    """Score every utterance's segments in chunks; decide per utterance."""
    batches = [_segment_batch(u, norm, seg_duration_s) for u in utterances]
    xs = np.concatenate(batches)
    acts = np.concatenate([cnn.forward_batch(model, xs[i:i + EVAL_CHUNK_SEGMENTS])
                           for i in range(0, len(xs), EVAL_CHUNK_SEGMENTS)])
    ends = np.cumsum([len(b) for b in batches])[:-1]
    counts: dict[tuple[str, str], int] = {}
    for u, utt_acts in zip(utterances, np.split(acts, ends)):
        key = (u.dialect, segmenter.aggregate(utt_acts))
        counts[key] = counts.get(key, 0) + 1
    return report_from_confusion(counts)


def train_and_evaluate(dataset: Dataset, channels: Sequence[str],
                       config: ExperimentConfig,
                       train_idx: Sequence[int], test_idx: Sequence[int],
                       ) -> tuple[EvalReport, cnn.Model, dict]:
    """Train one model on the given split and score it on the held-out part.

    Segment duration is the first quartile of the training utterances'
    durations; normalization is fitted on the training matrices only.  The
    held-out segments are scored in chunks of `EVAL_CHUNK_SEGMENTS`, and
    each utterance is decided by `segmenter.aggregate` over its own rows.
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


# ---------------------------------------------------------------------------
# Audit trail

def run_record(config: ExperimentConfig, featureset: Sequence[str],
               unread: str, extra: dict) -> dict:
    """A run's settings less `unread`, the split setting that it did not
    read, its feature set and `extra`, under a run id hashed from them all.
    hashlib is imported here, not at module top: it loads OpenSSL's
    libcrypto (about 3.5 MB resident), which only a run that writes its
    record needs."""
    import hashlib

    settings = asdict(config)
    del settings[unread]
    payload = {"config": settings, "featureset": list(featureset), **extra}
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
    payload["run_id"] = digest[:12]
    return payload
