"""Fixed-duration segmentation of feature matrices and decision aggregation.

Variable-length utterances are split into segments of a common duration
(the first quartile of the training-set durations), the final segment is
zero padded, and an utterance-level decision is taken by averaging the
per-segment softmax activations and picking the larger column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dsp
from .corpus import DIALECTS
from .features import FeatureMatrix

__all__ = ["Segment", "first_quartile", "segment_frames", "segment_count",
           "split", "aggregate"]


@dataclass(frozen=True)
class Segment:
    """One fixed-length slice of an utterance's feature matrix."""

    matrix: np.ndarray  # (channels, segment_frames), pad region exactly zero
    pad_frames: int


def first_quartile(durations: Sequence[float]) -> float:
    """The ((n+1)/4)-th term of the ascending durations, 1-based.

    A fractional index interpolates linearly between the neighbouring
    terms; an index below 1 takes the first term, and none reaches n.
    """
    vals = sorted(float(d) for d in durations)
    n = len(vals)
    if n == 0:
        raise ValueError("empty duration list")
    q = (n + 1) / 4.0
    if q <= 1.0:
        return vals[0]
    lo = int(np.floor(q))
    frac = q - lo
    return vals[lo - 1] + frac * (vals[lo] - vals[lo - 1])


def segment_frames(segment_duration_s: float) -> int:
    """Frames per segment of the given duration on the `dsp.HOP_MS` grid."""
    frames = int(round(segment_duration_s / (dsp.HOP_MS / 1000.0)))
    if frames < 1:
        raise ValueError(f"segment duration {segment_duration_s} s rounds to "
                         f"{frames} frames of {dsp.HOP_MS} ms; need >= 1")
    return frames


def segment_count(num_frames: int, seg_len: int) -> int:
    """ceil(num_frames / seg_len): the number of segments `split` cuts."""
    return -(-num_frames // seg_len)


def split(matrix: FeatureMatrix, segment_duration_s: float) -> list[Segment]:
    """Split into ceil(d_u/d_s) segments; only the last is zero padded.

    Concatenating the segments and dropping the padding reproduces the
    source matrix exactly.  The matrix is padded once; each segment is a
    view of that copy.
    """
    if matrix.num_frames == 0:
        raise ValueError("empty feature matrix")
    seg_len = segment_frames(segment_duration_s)
    n_segments = segment_count(matrix.num_frames, seg_len)
    pad = n_segments * seg_len - matrix.num_frames
    padded = np.zeros((matrix.values.shape[0], n_segments * seg_len))
    padded[:, :matrix.num_frames] = matrix.values
    return [Segment(matrix=padded[:, i * seg_len:(i + 1) * seg_len],
                    pad_frames=pad if i == n_segments - 1 else 0)
            for i in range(n_segments)]


def aggregate(activations: np.ndarray) -> str:
    """Average per-class softmax activations across segments; argmax wins.

    Column 0 is LT, column 1 is CT; an exact tie resolves to LT.  A
    non-finite activation raises ValueError: a NaN row passes the sum
    check, and argmax would read it as LT.
    """
    acts = np.atleast_2d(np.asarray(activations, dtype=np.float64))
    if acts.size == 0:
        raise ValueError("no activations to aggregate")
    if acts.shape[1] != 2:
        raise ValueError(f"expected 2 activation columns, got {acts.shape[1]}")
    if not np.isfinite(acts).all():
        raise ValueError("activations must be finite")
    sums = acts.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValueError("activation rows must each sum to 1")
    means = acts.mean(axis=0)
    return DIALECTS[int(np.argmax(means))]
