from fractions import Fraction
from math import ceil

import numpy as np
import pytest

from lctid.features import FeatureMatrix
from lctid.segmenter import aggregate, first_quartile, segment_frames, split


def matrix(frames, channels=3, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(values=rng.standard_normal((channels, frames)),
                         channel_ids=tuple(f"C{i}" for i in range(channels)))


class TestFirstQuartile:
    def test_seven_terms(self):
        assert first_quartile([1, 2, 3, 4, 5, 6, 7]) == 2.0

    def test_singleton_clamps(self):
        assert first_quartile([4]) == 4.0

    def test_fractional_index_interpolates(self):
        # (4+1)/4 = 1.25 -> 1 + 0.25 * (2 - 1)
        assert first_quartile([1, 2, 3, 4]) == 1.25

    def test_order_independent(self):
        assert first_quartile([7, 1, 5, 3, 6, 2, 4]) == 2.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            first_quartile([])

    def test_between_min_and_median(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = rng.uniform(0.5, 5.0, rng.integers(3, 40))
            q = first_quartile(d)
            assert d.min() <= q <= np.median(d)


class TestSplit:
    def test_exact_fit_single_segment(self):
        segs = split(matrix(187), 1.87)
        assert len(segs) == 1
        assert segs[0].pad_frames == 0
        assert segs[0].matrix.shape == (3, 187)

    def test_four_seconds_at_187(self):
        # ceil(400/187) = 3 segments; padding 3*187 - 400 = 161 frames = 1.61 s
        segs = split(matrix(400), 1.87)
        assert len(segs) == 3
        assert segs[-1].pad_frames == 161
        assert all(s.pad_frames == 0 for s in segs[:-1])

    def test_short_utterance_padded(self):
        segs = split(matrix(50), 1.87)
        assert len(segs) == 1
        assert segs[0].pad_frames == 137

    def test_round_trip_bit_exact(self):
        m = matrix(400, seed=3)
        segs = split(m, 1.87)
        joined = np.concatenate([s.matrix for s in segs], axis=1)
        assert joined.shape[1] == 3 * 187
        assert np.array_equal(joined[:, :400], m.values)
        assert np.all(joined[:, 400:] == 0.0)

    def test_pad_region_exactly_zero(self):
        segs = split(matrix(100, seed=4), 0.9)
        last = segs[-1]
        if last.pad_frames:
            assert np.all(last.matrix[:, -last.pad_frames:] == 0.0)

    def test_segment_count_law_random(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            total = int(rng.integers(1, 600))
            seg_len = int(rng.integers(1, 300))
            d_u = Fraction(total, 100)
            d_s = Fraction(seg_len, 100)
            segs = split(matrix(total, channels=1, seed=0), float(d_s))
            n_s = ceil(d_u / d_s)
            assert len(segs) == n_s
            d_l = d_u - (n_s - 1) * d_s
            d_z = d_s - d_l
            assert Fraction(segs[-1].pad_frames, 100) == d_z

    def test_empty_matrix_errors(self):
        empty = FeatureMatrix(values=np.zeros((3, 0)), channel_ids=("a", "b", "c"))
        with pytest.raises(ValueError):
            split(empty, 1.87)

    def test_frames_per_segment(self):
        assert segment_frames(1.87) == 187
        assert segment_frames(0.5) == 50
        with pytest.raises(ValueError):
            segment_frames(0.0)

    def test_duration_under_half_a_frame_errors(self):
        # 0.004 s is 0.4 of a 10 ms frame: no segment could hold a frame
        with pytest.raises(ValueError, match="rounds to 0 frames"):
            segment_frames(0.004)
        with pytest.raises(ValueError, match="rounds to 0 frames"):
            split(matrix(10), 0.004)


class TestAggregate:
    def test_mean_activation_wins(self):
        assert aggregate(np.array([[0.9, 0.1], [0.4, 0.6]])) == "LT"

    def test_single_segment(self):
        assert aggregate(np.array([[0.2, 0.8]])) == "CT"

    def test_exact_tie_goes_lt(self):
        assert aggregate(np.array([[0.5, 0.5]])) == "LT"
        assert aggregate(np.array([[0.3, 0.7], [0.7, 0.3]])) == "LT"

    def test_order_invariant(self):
        rng = np.random.default_rng(1)
        a = rng.dirichlet([1, 1], size=9)
        for perm_seed in range(5):
            perm = np.random.default_rng(perm_seed).permutation(9)
            assert aggregate(a[perm]) == aggregate(a)

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            aggregate(np.array([[0.5, 0.6]]))

    @pytest.mark.parametrize("bad", [[np.nan, np.nan], [np.inf, 0.0],
                                     [0.5, np.nan]])
    def test_non_finite_activations_rejected(self, bad):
        # NaN fails no sum check and argmax reads it as column 0, LT
        with pytest.raises(ValueError, match="finite"):
            aggregate(np.array([[0.2, 0.8], bad]))

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            aggregate(np.zeros((0, 2)))

    def test_two_columns_required(self):
        with pytest.raises(ValueError):
            aggregate(np.array([[0.2, 0.3, 0.5]]))
