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

`prepare_dataset` extracts a corpus in one process per core this process
may run on, each at one BLAS thread, so its matrices are those of a serial
loop at one thread whatever the process's thread count.  Every split
refuses a class in DIALECTS with no utterances, and a validation split is
carved out of the training utterances before the segment length and the
normalisation are fitted.
"""

from __future__ import annotations

import json
import logging
import os
import traceback
import warnings
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
    "ablate", "competition_ranks",
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


@dataclass(frozen=True)
class EvalReport:
    per_class: dict[str, ClassMetrics]
    accuracy: float
    total: int

    def to_dict(self) -> dict:
        return asdict(self)


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


def _share_count(num_records: int) -> int:
    """W, the number of extraction shares: one per core this process may run
    on, at most one per record.  1 where a child cannot be started by fork or
    held to one BLAS thread."""
    import multiprocessing

    if (not cnn.BLAS_PINNABLE or not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), num_records))


def _extract_share(records, channels) -> tuple[list[FeatureMatrix], Exception | None]:
    """Each record's matrix in order, up to the first record that fails:
    (matrices, None), or (the matrices before it, its exception)."""
    matrices = []
    for r in records:
        try:
            matrices.append(extract_matrix(load_audio(r), channels, source_id=r.id))
        except Exception as exc:
            return matrices, exc
    return matrices, None


def _share_process(conn, records, channels) -> None:
    """A child's whole work: its share at one BLAS thread, sent down `conn`
    with the failure's traceback as text, which pickling the failure drops."""
    with cnn.one_blas_thread():
        matrices, exc = _extract_share(records, channels)
    tb = None if exc is None else "".join(traceback.format_exception(exc))
    conn.send((matrices, exc, tb))
    conn.close()


class _ShareTraceback(Exception):
    """The cause of a failure re-raised from a child: where it happened."""


def prepare_dataset(manifest: CorpusManifest,
                    featureset: str | Iterable[str]) -> Dataset:
    """Extract the requested channels for every utterance in the manifest.

    The records are dealt into W shares, `records[k::W]`, W from
    `_share_count`.  This process extracts share 0; each other share runs
    in a fork-started child and comes back through the child's own pipe,
    received in the calling thread, since a `multiprocessing.Pool`'s result
    thread unpickles into a second malloc arena.  The children are forked,
    not spawned, so they start with the program already imported.  Every
    share runs at one BLAS thread, so each matrix is the one a serial loop
    computes at one thread, at any `OPENBLAS_NUM_THREADS` (the SHS matmul
    rounds differently at two), and the shares' processes do not contend
    for cores with BLAS threads.  A share stops at its first failure, and
    the failure of the lowest record index is raised: the error the serial
    loop raises, caused by the child's traceback where a child hit it.  No
    child outlives the call.
    """
    import multiprocessing  # about 16 ms of imports that only this call needs

    channels = resolve_featureset(featureset)
    records = manifest.records
    w = _share_count(len(records))
    children = []  # (process, receiving end), each listed before it starts
    try:
        with cnn.one_blas_thread():
            for k in range(1, w):
                receiver, sender = multiprocessing.Pipe(duplex=False)
                child = multiprocessing.get_context("fork").Process(
                    target=_share_process, args=(sender, records[k::w], channels))
                children.append((child, receiver))
                # From Python 3.12 os.fork warns when the process runs other
                # threads.  OpenBLAS stops its pool before a fork (its
                # pthread_atfork handler), and a child runs only extraction,
                # which takes no lock, with BLAS at one thread in its one
                # thread, so it waits on no thread that fork left behind.
                with sender, warnings.catch_warnings():  # then closes `sender`
                    warnings.filterwarnings(
                        "ignore", r"This process .* is multi-threaded, use of fork\(\)",
                        DeprecationWarning)
                    child.start()
            shares = [(*_extract_share(records[0::w], channels), None)]
        for k, (child, receiver) in enumerate(children, 1):
            try:
                shares.append(receiver.recv())
            except EOFError:  # the child ended without sending
                child.join()
                raise RuntimeError(
                    f"the process extracting records[{k}::{w}], from "
                    f"{records[k].id}, exited with code {child.exitcode} and "
                    "no result") from None
    except BaseException:
        for child, _ in children:
            if child.pid is not None:
                child.terminate()
        raise
    finally:
        for child, receiver in children:
            if child.pid is not None:
                child.join()
            receiver.close()
    failures = [(k + len(matrices) * w, exc, tb)
                for k, (matrices, exc, tb) in enumerate(shares) if exc is not None]
    if failures:
        index, exc, tb = min(failures, key=lambda f: f[0])
        if tb is None:
            raise exc
        raise exc from _ShareTraceback(
            f"record {records[index].id}, in the process extracting "
            f"records[{index % w}::{w}]:\n{tb}")
    prepared = tuple(
        PreparedUtterance(id=r.id, dialect=r.dialect, matrix=shares[i % w][0][i // w])
        for i, r in enumerate(records))
    return Dataset(utterances=prepared, channel_ids=channels)


def _check_holdout_fraction(fraction: float) -> None:
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"holdout fraction must be in (0, 1), got {fraction}")


def _class_members(labels: Sequence[str], dialect: str) -> list[int]:
    """The indices of `dialect`'s labels; ValueError if there are none."""
    members = [i for i, lab in enumerate(labels) if lab == dialect]
    if not members:
        raise ValueError(f"no {dialect} utterances: a split needs both "
                         f"classes {DIALECTS}")
    return members


def stratified_holdout(labels: Sequence[str], test_fraction: float,
                       seed: int) -> tuple[list[int], list[int]]:
    """Disjoint per-class split; deterministic for a given seed.  Every class
    in DIALECTS must have utterances."""
    _check_holdout_fraction(test_fraction)
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for d in DIALECTS:
        members = _class_members(labels, d)
        order = rng.permutation(len(members))
        n_test = max(1, int(round(test_fraction * len(members))))
        if n_test >= len(members):
            raise ValueError(f"class {d}: not enough utterances to hold out")
        for j, k in enumerate(order):
            (test_idx if j < n_test else train_idx).append(members[k])
    return sorted(train_idx), sorted(test_idx)


def kfold_indices(labels: Sequence[str], k: int,
                  seed: int) -> list[tuple[list[int], list[int]]]:
    """Stratified k-fold: validation folds are disjoint and cover everything.
    Every class in DIALECTS must have at least k utterances."""
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    fold_members: list[list[int]] = [[] for _ in range(k)]
    for d in DIALECTS:
        members = _class_members(labels, d)
        if len(members) < k:
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


def _segments_for(utterances, norm: NormStats, seg_duration_s: float, dtype):
    """(xs, labels, counts): each segment `segmenter.split` cuts from each
    utterance's z-scored matrix, written straight into its row of one `dtype`
    stack, its class index, and each utterance's segment count."""
    seg_len = segmenter.segment_frames(seg_duration_s)
    counts = [segmenter.segment_count(u.matrix.num_frames, seg_len)
              for u in utterances]
    xs = np.empty((sum(counts), seg_len, len(norm.channel_ids)), dtype=dtype)
    row = 0
    with np.errstate(over="ignore"):  # forward_batch reports the overflow
        for u in utterances:
            mat = apply_norm(u.matrix.channels(norm.channel_ids), norm)
            for seg in segmenter.split(mat, seg_duration_s):
                xs[row] = seg.matrix.T
                row += 1
    labels = [DIALECTS.index(u.dialect) for u in utterances]
    return xs, np.repeat(labels, counts), counts


def _evaluate_prepared(model: cnn.Model, utterances, norm: NormStats,
                       seg_duration_s: float) -> EvalReport:
    """Score every utterance's segments in chunks; decide per utterance.
    The segments are stacked once, in the model's compute dtype, which is
    what `forward_batch` casts each chunk to."""
    xs, _, seg_counts = _segments_for(utterances, norm, seg_duration_s,
                                      model.compute_dtype)
    acts = np.concatenate([cnn.forward_batch(model, xs[i:i + EVAL_CHUNK_SEGMENTS])
                           for i in range(0, len(xs), EVAL_CHUNK_SEGMENTS)])
    counts: dict[tuple[str, str], int] = {}
    for u, utt_acts in zip(utterances, np.split(acts, np.cumsum(seg_counts)[:-1])):
        key = (u.dialect, segmenter.aggregate(utt_acts))
        counts[key] = counts.get(key, 0) + 1
    return report_from_confusion(counts)


def train_and_evaluate(dataset: Dataset, channels: Sequence[str],
                       config: ExperimentConfig,
                       train_idx: Sequence[int], test_idx: Sequence[int],
                       ) -> tuple[EvalReport, cnn.Model, dict]:
    """Train one model on the given split and score it on the held-out part.

    With `val_fraction` > 0 the validation utterances are carved out of the
    training ones first.  Segment duration is the first quartile of the
    remaining training utterances' durations, and normalization is fitted on
    their matrices only, on channel copies dropped before training, so no
    validation frame reaches either.  The held-out segments are
    scored in chunks of `EVAL_CHUNK_SEGMENTS`, and each utterance is
    decided by `segmenter.aggregate` over its own rows.
    """
    channels = tuple(channels)
    train_utts = [dataset.utterances[i] for i in train_idx]
    test_utts = [dataset.utterances[i] for i in test_idx]
    if not train_utts or not test_utts:
        raise ValueError("both train and test splits must be non-empty")

    val_utts = []
    if config.val_fraction > 0.0:  # carved out of the training utterances
        tr, va = stratified_holdout([u.dialect for u in train_utts],
                                    config.val_fraction, config.split_seed + 1)
        val_utts = [train_utts[i] for i in va]
        train_utts = [train_utts[i] for i in tr]
    seg_duration_s = segmenter.first_quartile(
        [u.matrix.duration_s for u in train_utts])
    norm = fit_norm([u.matrix.channels(channels) for u in train_utts])
    model = cnn.build(config.arch_id,
                      input_frames=segmenter.segment_frames(seg_duration_s),
                      in_channels=len(channels), seed=config.train.seed,
                      conv_dropout=config.train.conv_dropout,
                      dense_dropout=config.train.dense_dropout)
    val_args = {}
    if val_utts:
        vx, vy, _ = _segments_for(val_utts, norm, seg_duration_s,
                                  model.compute_dtype)
        val_args = {"val_inputs": vx, "val_targets": vy}
    xs, ys, _ = _segments_for(train_utts, norm, seg_duration_s, model.compute_dtype)
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

def ablate(method: str, features: Iterable[str], dataset: Dataset,
           config: ExperimentConfig) -> RankingTable:
    """One round of RFE (`method` "rfe") or IFE ("ife"): each feature is
    scored once, by the mean accuracy over the method's splits of a model
    trained without it (RFE, k folds) or on it alone (IFE, one held-out
    split), then ranked.  Every check runs before any split or training."""
    if method not in ("rfe", "ife"):
        raise ValueError(f"unknown ablation method {method!r}; choose rfe or ife")
    rfe = method == "rfe"
    feats = list(dict.fromkeys(features))
    if len(feats) < (2 if rfe else 1):
        raise ValueError("RFE needs at least 2 features" if rfe
                         else "IFE needs at least 1 feature")
    missing = [f for f in feats if f not in dataset.channel_ids]
    if missing:
        raise KeyError(f"features not in dataset: {missing}")
    if rfe:
        splits = kfold_indices(dataset.labels, config.folds, config.split_seed)
    else:
        splits = [stratified_holdout(dataset.labels, config.test_fraction,
                                     config.split_seed)]
    acc_map = {}
    for f in feats:
        channels = [c for c in feats if c != f] if rfe else [f]
        acc_map[f] = float(np.mean([
            train_and_evaluate(dataset, channels, config, tr, te)[0].accuracy
            for tr, te in splits]))
        logger.info("rfe: ablated %s -> accuracy %.4f" if rfe
                    else "ife: %s alone -> accuracy %.4f", f, acc_map[f])
    return _rank_accuracies(acc_map, method)


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
