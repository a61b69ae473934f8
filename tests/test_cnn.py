import itertools
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import maxpool_oracle as pool_oracle
from grad_oracle import float64_copy, grad_check
from lctid import cnn
from lctid.features import ALL_IDS, NormStats


def tiny_model(seed=5):
    """Miniature network covering every layer kind (dropout rates are live
    but disabled inside grad_check)."""
    rng = np.random.default_rng(seed)
    m = cnn.Model(layers=[
        cnn.Conv1D(3, 2, 4), cnn.ReLU(), cnn.MaxPool(), cnn.Dropout(0.25),
        cnn.Conv1D(2, 4, 4), cnn.ReLU(), cnn.Flatten(),
        cnn.Dense(8, 6), cnn.ReLU(), cnn.Dropout(0.5),
        cnn.Dense(6, 2),
    ], arch_id="CA02", input_frames=8, in_channels=2, rng_seed=seed)
    for layer in m.layers:
        if hasattr(layer, "weights"):
            layer.weights = rng.normal(0, 0.5, layer.weights.shape).astype(np.float32)
            layer.biases = rng.normal(0, 0.1, layer.biases.shape).astype(np.float32)
    return m


def forward_extents(model):
    """Time/unit extent after every shape-changing layer, input first, as
    the layers' own `forward` produces it on a zero input."""
    x = np.zeros((1, model.input_frames, model.in_channels), dtype=np.float32)
    extents = [x.shape[1]]
    for layer in model.layers:
        out, _ = layer.forward(x)
        if out.shape != x.shape:
            extents.append(out.shape[1])
        x = out
    return extents


def trainable_arrays(model):
    """Each trainable layer's (weights, biases) array objects."""
    return [(l.weights, l.biases) for l in model.trainable()]


def materialised(gradient):
    """A parameter gradient as one array: XᵀG for the weights' factors."""
    if isinstance(gradient, tuple):
        x, g = gradient
        return x.T @ g
    return gradient


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def norm_for(model, seed=0):
    """Normalisation statistics for the model's first `in_channels` ids."""
    rng = np.random.default_rng(seed)
    n = model.in_channels
    return NormStats(mean=rng.standard_normal(n), std=rng.uniform(0.1, 3.0, n),
                     channel_ids=ALL_IDS[:n])


class TestConv1D:
    def test_fig11_first_conv_shape(self):
        model = cnn.build("CA02", 187, 10, seed=0)
        conv = model.layers[0]
        out, _ = conv.forward(np.zeros((1, 187, 10)))
        assert out.shape == (1, 181, 32)

    def test_identity_kernel(self):
        conv = cnn.Conv1D(1, 1, 1)
        conv.weights = np.ones((1, 1, 1), dtype=np.float32)
        x = np.random.default_rng(0).standard_normal((1, 20, 1))
        out, _ = conv.forward(x)
        assert np.allclose(out, x, atol=1e-7)  # float32 weight cast

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        conv = cnn.Conv1D(3, 2, 1)
        conv.weights = rng.standard_normal((3, 2, 1)).astype(np.float32)
        conv.biases = rng.standard_normal(1).astype(np.float32)
        x = rng.standard_normal((1, 12, 2))
        out, _ = conv.forward(x)
        for t in range(10):
            ref = float(conv.biases[0])
            for dt in range(3):
                for c in range(2):
                    ref += float(conv.weights[dt, c, 0]) * x[0, t + dt, c]
            assert out[0, t, 0] == pytest.approx(ref, abs=1e-12)

    def test_channel_mismatch(self):
        conv = cnn.Conv1D(3, 2, 1)
        with pytest.raises(cnn.ShapeMismatchError):
            conv.forward(np.zeros((1, 12, 5)))

    @pytest.mark.parametrize("batch", [1, 2, 32])
    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    def test_im2col_is_the_window_copy(self, batch, strided):
        # cols is C-contiguous and holds row t the frames t..t+k-1, each
        # frame's channels in order, as sliding_window_view lays them out
        conv = cnn.Conv1D(10, 13, 32)
        x = np.random.default_rng(batch).standard_normal(
            (batch, 2 * 40 if strided else 40, 13), dtype=np.float32)
        if strided:
            x = x[:, ::2]  # every other frame: no longer contiguous
        _, (_, cols) = conv.forward(x)
        win = np.lib.stride_tricks.sliding_window_view(x, 10, axis=1)
        want = np.ascontiguousarray(win.transpose(0, 1, 3, 2)).reshape(batch, 31, 130)
        assert cols.flags.c_contiguous and same_bits(cols, want)


POOL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]),
    st.floats(-4.0, 4.0, width=32))


@st.composite
def pool_cases(draw):
    """An input of 1-4 samples, 1-9 frames and 1-3 channels and a gradient
    of the pool's output, in one float dtype; the values repeat (ties) and
    include +-0.0, +-inf and NaN."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    b, t, c = (draw(st.integers(1, n)) for n in (4, 9, 3))
    x = draw(hnp.arrays(dtype, (b, t, c), elements=POOL_VALUES))
    grad = draw(hnp.arrays(dtype, (b, t // 2, c), elements=POOL_VALUES))
    return x, grad


# every kind of pair once, then a trailing odd frame; negative gradients,
# so a frame not kept must get +0.0, not -0.0
PAIRS_CASE = (
    np.array([np.nan, 1.0, 1.0, np.nan, np.nan, np.nan, 2.0, 2.0, -0.0, 0.0,
              0.0, -0.0, np.inf, np.inf, -np.inf, -np.inf, -np.inf, 5.0, 7.0],
             dtype=np.float32).reshape(1, 19, 1),
    -np.arange(1.0, 10.0, dtype=np.float32).reshape(1, 9, 1))


class TestReLU:
    def test_relu_backward_passes_where_the_input_was_positive(self):
        x = np.array([[np.nan, -0.0, 0.0, np.inf, -np.inf, 2.5, -1.0]],
                     dtype=np.float32)
        layer = cnn.ReLU()
        out, cache = layer.forward(x)
        grad = np.arange(1.0, 8.0, dtype=np.float32)[None]
        assert np.array_equal(layer.backward(grad, cache, {}),
                              np.where(x > 0.0, grad, 0.0))
        bare, no_cache = layer.forward(x, want_cache=False)  # as inference calls it
        assert same_bits(bare, out) and no_cache is None

    def test_inference_asks_for_no_mask(self, monkeypatch):
        asked = []
        forward = cnn.ReLU.forward

        def spy(layer, x, want_cache=True):
            asked.append(want_cache)
            return forward(layer, x, want_cache)

        monkeypatch.setattr(cnn.ReLU, "forward", spy)
        model = tiny_model()
        x = np.random.default_rng(0).standard_normal((2, 8, 2))
        cnn.forward_batch(model, x)
        assert asked == [False] * 3
        cnn.train_step(model, x, [0, 1], 0.01, np.random.default_rng(1))
        assert asked[3:] == [True] * 3


class TestMaxPool:
    @settings(max_examples=300, deadline=None)
    @given(pool_cases())
    @example(PAIRS_CASE)
    def test_matches_the_argmax_oracle(self, case):
        # bit for bit, so NaN, +-inf, ties and the sign of a zero all count
        x, grad = case
        out, cache = cnn.MaxPool().forward(x)
        want, want_cache = pool_oracle.forward(x)
        assert same_bits(out, want)
        dx = cnn.MaxPool().backward(grad, cache, {})
        assert same_bits(dx, pool_oracle.backward(grad, want_cache))

    def test_overflow_nan_reaches_the_output(self):
        # input frame 0 makes conv0's first output frame +inf, so conv1's
        # first output frame sums +inf and -inf products into NaN, while its
        # second frame stays finite.  The pool after conv1 must pass that
        # NaN on, as argmax did: the row is not finite and training stops.
        # (A NaN cannot come out of conv0 itself: with a fused multiply-add
        # the sum only reaches +-inf from finite values.)
        model = cnn.build("CA02", 40, 3, seed=0)
        conv0, conv1 = model.layers[0], model.layers[2]
        conv0.weights[0] = 2.0
        x = np.random.default_rng(0).standard_normal((1, 40, 3)).astype(np.float32)
        x[0, 0] = 3e38
        with np.errstate(over="ignore", invalid="ignore"):
            h = np.maximum(conv0.forward(x)[0], 0.0)
            pair = conv1.forward(h)[0][0, :2]
            out = cnn.forward_batch(model, x)
        assert np.isnan(pair[0]).all() and np.isfinite(pair[1]).all()
        assert not np.isfinite(out[0]).any()
        before = [(w.copy(), b.copy()) for w, b in trainable_arrays(model)]
        with pytest.raises(cnn.TrainingDivergedError):
            cnn.train_step(model, x, np.array([0]), 0.01, np.random.default_rng(0))
        for (w, b), (w0, b0) in zip(trainable_arrays(model), before):
            assert same_bits(w, w0) and same_bits(b, b0)


def _dense(in_features, out_features, seed=0):
    rng = np.random.default_rng(seed)
    dense = cnn.Dense(in_features, out_features)
    dense.weights = rng.standard_normal(dense.weights.shape, dtype=np.float32)
    dense.biases = rng.standard_normal(out_features, dtype=np.float32)
    return dense


class TestDense:
    # CA03's dense0, 2304 x 1024: its weights span 12 blocks, so that a sum
    # over other blocks, in another order or as one product shows in the bits
    @pytest.mark.parametrize("rows", range(2, cnn.SGEMM_MIN_ROWS))
    def test_few_rows_sum_the_weight_blocks_in_order(self, rows):
        dense = _dense(2304, 1024)
        x = np.random.default_rng(rows).standard_normal((rows, 2304), dtype=np.float32)
        out, cache = dense.forward(x)
        w, k = dense.weights, cnn.DENSE_BLOCK_BYTES // (4 * 1024)
        want = x[:, :k] @ w[:k]
        for i in range(k, 2304, k):
            want += x[:, i:i + k] @ w[i:i + k]
        assert 2304 // k == 12
        assert same_bits(out, want + dense.biases) and cache is x

    def test_one_row_is_the_matrix_product(self):
        # a batch-1 SGD step: the gemv path gives the bits x @ W gives
        dense = _dense(2304, 64)
        x = np.random.default_rng(1).standard_normal((1, 2304), dtype=np.float32)
        assert same_bits(dense.forward(x)[0], x @ dense.weights + dense.biases)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, cnn.SGEMM_MIN_ROWS + 2),
           blocks=st.integers(0, 3), tail=st.integers(0, 300),
           out_features=st.integers(1, 1024), seed=st.integers(0, 2**32 - 1))
    def test_matches_a_float64_reference(self, rows, blocks, tail, out_features,
                                         seed):
        # on both sides of SGEMM_MIN_ROWS, over up to 3 weight blocks and a
        # ragged tail; a float32 dot product of n terms is within n * eps of
        # the float64 one, relative to sum |x_i w_i|
        block_rows = cnn.DENSE_BLOCK_BYTES // (4 * out_features)
        in_features = max(1, blocks * block_rows + tail)
        dense = _dense(in_features, out_features, seed)
        x = np.random.default_rng(seed + 1).standard_normal(
            (rows, in_features), dtype=np.float32)
        w, b = dense.weights.astype(np.float64), dense.biases.astype(np.float64)
        got = dense.forward(x)[0]
        assert got.shape == (rows, out_features) and got.dtype == np.float32
        scale = np.abs(x.astype(np.float64)) @ np.abs(w) + np.abs(b)
        eps = np.finfo(np.float32).eps
        assert (np.abs(got - (x @ w + b)) <= (in_features + 1) * eps * scale).all()


class TestBuild:
    def test_ca02_parameter_counts(self):
        model = cnn.build("CA02", 187, 10, seed=0)
        assert [l.num_params for l in model.trainable()] == \
            [2272, 7200, 6208, 12352, 2688000, 2050]

    def test_ca02_total(self):
        model = cnn.build("CA02", 187, 10, seed=0)
        assert model.num_params == sum([2272, 7200, 6208, 12352, 2688000, 2050])

    def test_ca02_shape_chain(self):
        model = cnn.build("CA02", 187, 10, seed=0)
        assert forward_extents(model) == [187, 181, 175, 87, 85, 83, 41, 2624, 1024, 2]

    def test_ca01_first_conv(self):
        model = cnn.build("CA01", 187, 10, seed=0)
        assert forward_extents(model)[1] == 178  # 187 - 10 + 1

    def test_ca03_dense_stack(self):
        model = cnn.build("CA03", 187, 10, seed=0)
        widths = [l.out_features for l in model.layers if isinstance(l, cnn.Dense)]
        assert widths == [1024, 512, 2]

    def test_he_uniform_is_one_draw_per_layer(self):
        # build draws a large layer in parts; the weights must be those of
        # one float64 draw per layer, in network order, cast to float32
        model = cnn.build("CA02", 40, 3, seed=4)
        rng = np.random.default_rng(4)
        *drawn, classifier = model.trainable()
        assert max(l.weights.size for l in drawn) > 65536  # dense0: 320 x 1024
        for layer in drawn:
            limit = np.sqrt(6.0 / layer.weights[..., 0].size)
            want = rng.uniform(-limit, limit, size=layer.weights.shape)
            assert same_bits(layer.weights, want.astype(np.float32))
        assert not classifier.weights.any()

    @pytest.mark.parametrize("frames, match", [
        (5, "conv kernel 7 longer than input length 5"),
        (13, "maxpool output would be empty"),  # at the first pool
        (22, "maxpool output would be empty"),  # at the second pool
    ])
    def test_input_too_short(self, frames, match):
        with pytest.raises(cnn.ShapeMismatchError, match=match):
            cnn.build("CA02", frames, 3)

    def test_unknown_arch(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            cnn.build("CA99")

    def test_no_input_channels(self):
        with pytest.raises(ValueError, match="in_channels must be >= 1"):
            cnn.build("CA02", 40, 0)

    def test_maxpool_follows_conv_pair_then_dropout(self):
        model = cnn.build("CA02", 187, 10, seed=0)
        kinds = [l.kind for l in model.layers]
        assert kinds[:6] == ["conv", "relu", "conv", "relu", "maxpool", "dropout"]

    def test_default_optimizers(self):
        assert cnn.default_optimizer("CA01") == "minibatch_gd"
        assert cnn.default_optimizer("CA02") == "minibatch_gd"
        assert cnn.default_optimizer("CA03") == "sgd"


class TestForward:
    def test_softmax_sums_to_one(self):
        model = tiny_model()
        rng = np.random.default_rng(2)
        x = rng.standard_normal((100, 8, 2))
        probs = cnn.forward_batch(model, x)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
        assert np.all(probs >= 0.0)

    def test_infer_is_deterministic(self):
        model = cnn.build("CA02", 40, 3, seed=1)
        x = np.random.default_rng(3).standard_normal((40, 3))
        a = cnn.forward_batch(model, x[None])[0]
        b = cnn.forward_batch(model, x[None])[0]
        assert np.array_equal(a, b)

    def test_train_mode_dropout_is_stochastic(self):
        model = cnn.build("CA02", 40, 3, seed=1)
        x = np.random.default_rng(4).standard_normal((40, 3))
        # build zero-initialises the classifier: uniform output whatever the mask
        fresh = cnn.forward_batch(model, x[None], rng=np.random.default_rng(1))[0]
        assert np.array_equal(fresh, [0.5, 0.5])
        head = model.layers[-1]
        wrng = np.random.default_rng(5)
        head.weights = wrng.normal(0, 0.05, head.weights.shape).astype(np.float32)
        a = cnn.forward_batch(model, x[None], rng=np.random.default_rng(1))[0]
        b = cnn.forward_batch(model, x[None], rng=np.random.default_rng(2))[0]
        assert not np.array_equal(a, b)

    def test_zero_input_matches_bias_only_oracle(self):
        model = tiny_model(seed=9)
        got = cnn.forward_batch(model, np.zeros((8, 2))[None])[0]
        # propagate per-channel constants: zero input makes every activation
        # constant across time until Flatten
        const = np.zeros(2)
        t_len = 8
        for layer in model.layers:
            if isinstance(layer, cnn.Conv1D):
                const = np.einsum("kio,i->o", layer.weights.astype(np.float64), const) \
                    + layer.biases.astype(np.float64)
                t_len = t_len - layer.kernel_len + 1
            elif isinstance(layer, cnn.ReLU):
                const = np.maximum(const, 0.0)
            elif isinstance(layer, cnn.MaxPool):
                t_len //= 2
            elif isinstance(layer, cnn.Flatten):
                flat = np.tile(const, t_len)
                const = flat
            elif isinstance(layer, cnn.Dense):
                const = const @ layer.weights.astype(np.float64) \
                    + layer.biases.astype(np.float64)
        e = np.exp(const - const.max())
        assert np.allclose(got, e / e.sum(), atol=1e-12)

    def test_non_finite_input_rejected(self):
        model = tiny_model()
        x = np.zeros((2, 8, 2))
        x[0, 3, 1] = np.nan
        x[1, 0, 0] = -np.inf
        with pytest.raises(ValueError, match="2 non-finite"):
            cnn.forward_batch(model, x)

    def test_input_past_float32_range_rejected(self):
        # finite in float64, inf once cast to the float32 compute dtype
        model = tiny_model()
        x = np.zeros((1, 8, 2))
        x[0, :3, 0] = 1e39
        with pytest.raises(ValueError, match="3 non-finite value.*float32"):
            cnn.forward_batch(model, x)
        with pytest.raises(ValueError, match="non-finite"):
            cnn.train_step(model, x, np.array([0]), 0.01, np.random.default_rng(0))

    def test_shape_mismatch_at_inference(self):
        model = cnn.build("CA02", 40, 10, seed=0)
        with pytest.raises(cnn.ShapeMismatchError):
            cnn.forward_batch(model, np.zeros((40, 8))[None])


class TestTraining:
    def test_memorize_single_sample(self):
        model = cnn.build("CA02", 40, 3, seed=1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 40, 3))
        y = np.array([1])
        trng = np.random.default_rng(2)
        losses = [cnn.train_step(model, x, y, 0.01, trng) for _ in range(200)]
        assert losses[-1] < 0.01

    def test_zero_learning_rate_is_identity(self):
        model = tiny_model()
        before = [(l.weights.copy(), l.biases.copy())
                  for l in model.layers if hasattr(l, "weights")]
        x = np.random.default_rng(1).standard_normal((4, 8, 2))
        cnn.train_step(model, x, np.array([0, 1, 0, 1]), 0.0,
                       np.random.default_rng(3))
        after = [(l.weights, l.biases) for l in model.layers if hasattr(l, "weights")]
        for (w0, b0), (w1, b1) in zip(before, after):
            assert np.array_equal(w0, w1)
            assert np.array_equal(b0, b1)

    def test_init_loss_near_ln2(self):
        model = cnn.build("CA03", 187, 10, seed=3)
        rng = np.random.default_rng(5)
        logits = cnn.forward_batch(model, rng.standard_normal((64, 187, 10)),
                                   logits=True)
        loss, _ = cnn.cross_entropy(logits, rng.integers(0, 2, 64))
        assert loss == pytest.approx(np.log(2.0), abs=0.1)

    def test_targets_are_class_indices(self):
        logits = np.zeros((2, 2), dtype=np.float32)
        for targets in ([[0.5, 0.5], [1.0, 0.0]], [0, 1, 1], [0, -1], [0, 2],
                        [0.7, 1.0]):
            with pytest.raises(ValueError, match="2 class indices"):
                cnn.cross_entropy(logits, np.array(targets))

    def test_zero_loss_point_gradients_vanish(self):
        # a saturated softmax puts probability exactly 1 on the target class:
        # the cross-entropy gradient (p - y) is identically zero, so even at
        # learning rate 1 no float32 parameter bit moves
        model = tiny_model(seed=7)
        for layer in model.layers:
            if isinstance(layer, cnn.Dropout):
                layer.rate = 0.0
        model.layers[-1].biases = np.array([0.0, 1000.0], dtype=np.float32)
        x = np.random.default_rng(2).standard_normal((1, 8, 2))
        assert np.array_equal(cnn.forward_batch(model, x), [[0.0, 1.0]])
        before = [(l.weights.copy(), l.biases.copy())
                  for l in model.layers if hasattr(l, "weights")]
        cnn.train_step(model, x, np.array([1]), 1.0, np.random.default_rng(4))
        after = [(l.weights, l.biases) for l in model.layers if hasattr(l, "weights")]
        for (w0, b0), (w1, b1) in zip(before, after):
            assert np.array_equal(w0, w1)
            assert np.array_equal(b0, b1)

    def test_deterministic_training(self):
        def run():
            model = cnn.build("CA02", 40, 3, seed=11)
            rng = np.random.default_rng(0)
            xs = rng.standard_normal((20, 40, 3))
            ys = rng.integers(0, 2, 20)
            cnn.train(model, xs, ys,
                      cnn.TrainConfig(optimizer="minibatch_gd", batch_size=8,
                                      epochs=3, seed=11))
            return [l.weights.copy() for l in model.layers if hasattr(l, "weights")]

        a, b = run(), run()
        for wa, wb in zip(a, b):
            assert np.array_equal(wa, wb)

    def test_sgd_picks_random_samples(self):
        model = cnn.build("CA02", 40, 3, seed=2)
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((10, 40, 3))
        ys = rng.integers(0, 2, 10)
        history = cnn.train(model, xs, ys,
                            cnn.TrainConfig(optimizer="sgd", epochs=2, seed=4))
        assert len(history["train_loss"]) == 2

    def test_divergence_reported(self):
        model = tiny_model()
        x = np.random.default_rng(0).standard_normal((2, 8, 2)) * 1e30
        # one rng for the whole run, as cnn.train does: a fresh rng per step
        # repeats one dropout mask, under which this batch is fitted exactly
        rng = np.random.default_rng(0)
        with pytest.raises(cnn.TrainingDivergedError):
            for _ in range(50):
                cnn.train_step(model, x, np.array([0, 1]), 1e6, rng)
        # the diverging update was not applied
        for layer in model.layers:
            if hasattr(layer, "weights"):
                assert np.isfinite(layer.weights).all()
                assert np.isfinite(layer.biases).all()

    def test_failed_update_leaves_model_unchanged(self):
        # the classifier updates last, after every other layer has updated
        model = tiny_model()
        before = [(l.weights.copy(), l.biases.copy())
                  for l in model.layers if hasattr(l, "weights")]

        def diverge(grads, lr):
            raise cnn.TrainingDivergedError("update made the weights non-finite")

        model.layers[-1].apply_update = diverge
        x = np.random.default_rng(1).standard_normal((4, 8, 2))
        with pytest.raises(cnn.TrainingDivergedError, match="layer 10"):
            cnn.train_step(model, x, np.array([0, 1, 0, 1]), 0.1,
                           np.random.default_rng(3))
        after = [(l.weights, l.biases) for l in model.layers if hasattr(l, "weights")]
        for (w0, b0), (w1, b1) in zip(before, after):
            assert np.array_equal(w0, w1)
            assert np.array_equal(b0, b1)

    def test_step_writes_weights_in_place_and_binds_new_biases(self):
        model = tiny_model()
        for layer in model.layers:  # so every layer has a non-zero gradient
            if isinstance(layer, cnn.Dropout):
                layer.rate = 0.0
        old = trainable_arrays(model)
        copies = [(w.copy(), b.copy()) for w, b in old]
        x = np.random.default_rng(1).standard_normal((4, 8, 2))
        cnn.train_step(model, x, np.array([0, 1, 0, 1]), 0.1,
                       np.random.default_rng(3))
        for (w, b), (w0, b0), (w1, b1) in zip(old, copies, trainable_arrays(model)):
            assert w1 is w and not same_bits(w, w0)
            assert b1 is not b and same_bits(b, b0)

    def test_failed_middle_update_binds_nothing(self):
        # the layers before it have staged their updates, the ones after not
        model = tiny_model()
        old = trainable_arrays(model)
        copies = [(w.copy(), b.copy()) for w, b in old]

        def diverge(grads, lr):
            raise cnn.TrainingDivergedError("update made the weights non-finite")

        model.layers[7].apply_update = diverge
        x = np.random.default_rng(1).standard_normal((4, 8, 2))
        with pytest.raises(cnn.TrainingDivergedError, match="layer 7 \\(dense\\)"):
            cnn.train_step(model, x, np.array([0, 1, 0, 1]), 0.1,
                           np.random.default_rng(3))
        for (w, b), (w0, b0), (w1, b1) in zip(old, copies, trainable_arrays(model)):
            assert w1 is w and b1 is b
            assert same_bits(w, w0) and same_bits(b, b0)

    def test_learning_rate_defaults_per_optimizer(self):
        assert cnn.TrainConfig(optimizer="sgd").learning_rate == 0.005
        assert cnn.TrainConfig(optimizer="minibatch_gd").learning_rate == 0.01
        assert cnn.TrainConfig(optimizer="sgd", learning_rate=0.2).learning_rate == 0.2

    def test_batch_size_defaults_per_optimizer(self):
        assert cnn.TrainConfig(optimizer="sgd").batch_size == 1
        assert cnn.TrainConfig(optimizer="minibatch_gd").batch_size == 32
        assert cnn.TrainConfig(optimizer="minibatch_gd", batch_size=4).batch_size == 4
        # sgd steps on one drawn sample; a larger batch would be recorded
        # but never used
        with pytest.raises(ValueError, match="batch_size must be 1, got 32"):
            cnn.TrainConfig(optimizer="sgd", batch_size=32)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            cnn.TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            cnn.TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            cnn.TrainConfig(optimizer="adam")

    @pytest.mark.parametrize("field, value, match", [
        ("learning_rate", np.nan, "learning_rate must be finite"),
        ("learning_rate", np.inf, "learning_rate must be finite"),
        ("learning_rate", -0.01, "learning_rate must be finite and > 0"),
        ("batch_size", 0, "batch_size must be >= 1"),
        ("batch_size", -3, "batch_size must be >= 1"),
        ("early_stop_patience", -1, "early_stop_patience must be >= 0"),
    ])
    def test_config_rejects_settings_that_fail_late(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            cnn.TrainConfig(**{field: value})

    def test_early_stop_on_plateau(self):
        model = cnn.build("CA02", 40, 3, seed=6)
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((12, 40, 3))
        ys = rng.integers(0, 2, 12)
        history = cnn.train(
            model, xs, ys,
            cnn.TrainConfig(optimizer="minibatch_gd", epochs=50,
                            learning_rate=1e-9, seed=1, early_stop_patience=3),
            val_inputs=xs, val_targets=ys)
        assert len(history["train_loss"]) < 50


def _layer_with_gradient(kind, batch, dtype, rows=7, cols=5, seed=0):
    """A Conv1D or Dense with random parameters in `dtype`, and the gradients
    its backward stores for a random input of `batch` samples."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        layer, x_shape = cnn.Dense(rows, cols), (batch, rows)
    else:
        layer, x_shape = cnn.Conv1D(3, rows, cols), (batch, 6, rows)
    layer.weights = rng.standard_normal(layer.weights.shape).astype(dtype)
    layer.biases = rng.standard_normal(layer.biases.shape).astype(dtype)
    out, cache = layer.forward(rng.standard_normal(x_shape).astype(dtype))
    grads: dict = {}
    layer.backward(rng.standard_normal(out.shape).astype(dtype), cache, grads)
    return layer, grads


def _assert_commit_matches_reference(layer, grads, lr):
    """Check, stage and commit one update; the weights must be written in
    place and equal w - lr * XᵀG, taken in float64, to within the rounding
    of their dtype."""
    x, g = (a.astype(np.float64) for a in grads["weights"])
    w = layer.weights
    w64 = w.astype(np.float64).reshape(x.shape[1], g.shape[1])
    reference = w64 - lr * (x.T @ g)
    scale = np.abs(w64) + abs(lr) * (np.abs(x).T @ np.abs(g))
    layer.apply_update(grads, lr)
    cnn._commit(layer, grads, lr)
    assert layer.weights is w
    got = w.reshape(reference.shape).astype(np.float64)
    eps = np.finfo(w.dtype).eps
    assert (np.abs(got - reference) <= (x.shape[0] + 2) * eps * scale).all()
    # the running bound the next step starts from covers the new weights
    bound_of, bound = layer._weight_bound
    assert bound_of is w and np.abs(got).max() <= bound * (1 + 4 * eps)


class TestCommit:
    """A step writes W - lr * XᵀG into the weights in place, after every
    layer has passed the finite and bound checks."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind, batch", [
        ("dense", 1),  # one row: ger
        ("dense", 3),
        ("conv", 1),  # one row per output frame
        ("conv", 3),
    ])
    def test_writes_weights_in_place(self, kind, batch, dtype):
        layer, grads = _layer_with_gradient(kind, batch, dtype)
        old = layer.weights
        _assert_commit_matches_reference(layer, grads, 0.05)
        assert np.shares_memory(layer.weights, old)
        assert layer.weights.dtype == dtype

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["dense", "conv"]), batch=st.integers(1, 4),
           rows=st.integers(1, 6), cols=st.integers(1, 5),
           lr=st.floats(0.0, 2.0), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**32 - 1))
    def test_commit_is_the_reference_update(self, kind, batch, rows, cols, lr,
                                            dtype, seed):
        layer, grads = _layer_with_gradient(kind, batch, dtype, rows, cols, seed)
        _assert_commit_matches_reference(layer, grads, lr)

    @staticmethod
    def _model_with_huge_weight(model):
        """Put 0.9 x float32 max on conv0's weight for input channel 1, and
        return an input whose channel 1 is zero, so the forward stays finite."""
        huge = np.float32(0.9) * np.finfo(np.float32).max
        for layer in model.layers:
            if isinstance(layer, cnn.Dropout):
                layer.rate = 0.0
        weights = model.layers[0].weights.copy()
        weights[0, 1, 0] = huge
        model.layers[0].weights = weights
        x = np.random.default_rng(1).standard_normal((4, 8, 2))
        x[:, :, 1] = 0.0
        return x

    def test_bound_trip_raises_and_writes_nothing(self):
        model = tiny_model()
        x = self._model_with_huge_weight(model)
        old = trainable_arrays(model)
        copies = [(w.copy(), b.copy()) for w, b in old]
        with pytest.raises(cnn.TrainingDivergedError,
                           match="layer 0 \\(conv\\).*half the float32 range"):
            cnn.train_step(model, x, np.array([0, 1, 0, 1]), 1e-3,
                           np.random.default_rng(3))
        for (w, b), (w0, b0), (w1, b1) in zip(old, copies, trainable_arrays(model)):
            assert w1 is w and b1 is b
            assert same_bits(w, w0) and same_bits(b, b0)

    def test_bound_of_a_replaced_array_hides_no_trip(self):
        model = tiny_model()
        for layer in model.layers:
            if isinstance(layer, cnn.Dropout):
                layer.rate = 0.0
        x = np.random.default_rng(1).standard_normal((4, 8, 2))
        y = np.array([0, 1, 0, 1])
        cnn.train_step(model, x, y, 1e-3, np.random.default_rng(3))  # bounds cached
        x = self._model_with_huge_weight(model)  # conv0.weights rebound
        replaced = model.layers[0].weights
        with pytest.raises(cnn.TrainingDivergedError, match="layer 0 \\(conv\\)"):
            cnn.train_step(model, x, y, 1e-3, np.random.default_rng(3))
        assert model.layers[0].weights is replaced
        assert np.isfinite(replaced).all()

    def test_unscaled_product_past_range_raises(self):
        # lr * XᵀG is about 1e28, but gemm forms XᵀG (about 1e40) before it
        # scales by lr, which overflows float32
        layer, grads = _layer_with_gradient("dense", 3, np.float32)
        x, g = grads["weights"]
        grads["weights"] = (x * np.float32(1e20), g * np.float32(1e20))
        with pytest.raises(cnn.TrainingDivergedError, match="half the float32"):
            layer.apply_update(grads, 1e-12)

    def test_non_finite_factor_raises(self):
        layer, grads = _layer_with_gradient("dense", 2, np.float32)
        grads["weights"][1][1, 0] = np.nan
        with pytest.raises(cnn.TrainingDivergedError, match="non-finite"):
            layer.apply_update(grads, 0.01)


@pytest.mark.parametrize("kernel_len,frames", [(1, 4), (3, 8), (3, 9), (5, 11)])
def test_conv_bound_sees_every_input_value(kernel_len, frames):
    # the bound reads max|X| from the layer's input, not from the im2col
    # matrix X: both must give max|x|, and a NaN anywhere must raise
    rng = np.random.default_rng(kernel_len)
    layer = cnn.Conv1D(kernel_len, 2, 3)
    x = rng.standard_normal((2, frames, 2))
    out, cache = layer.forward(x)
    grads: dict = {}
    layer.backward(np.ones_like(out), cache, grads)
    assert (cnn._abs_max(grads["input"]) == cnn._abs_max(grads["weights"][0])
            == np.abs(x).max())
    for t in range(frames):
        bad = x.copy()
        bad[1, t, 1] = np.nan
        out, cache = layer.forward(bad)
        grads = {}
        layer.backward(np.ones_like(out), cache, grads)
        with pytest.raises(cnn.TrainingDivergedError, match="non-finite"):
            layer.apply_update(grads, 0.01)


# Extraction and inference in a fresh process: `all` channels of a voiced
# 0.5 s pulse train made without numpy.random (which imports hashlib through
# `secrets`); the model file argv[1] loaded, decided on and saved to argv[2];
# then one training step.  It prints the scipy and _hashlib modules loaded
# before the step, then whether the step loaded scipy's BLAS.
_GUARD_SCRIPT = """\
import sys
import numpy as np
import lctid.cli
from lctid import cnn, corpus, features

t = np.arange(8000) / corpus.CANONICAL_RATE_HZ
x = 0.5 * np.sin(2 * np.pi * 180.0 * t) ** 15 + 0.01 * np.sin(2 * np.pi * 3100.0 * t * t)
m = features.extract_matrix(corpus.Waveform(x, corpus.CANONICAL_RATE_HZ), "all")
model, norm = cnn.load(sys.argv[1])
segs = np.ascontiguousarray(m.values[:, :model.input_frames].T)[None]
cnn.forward_batch(model, np.repeat(segs, 2, axis=0))
cnn.save(model, norm, sys.argv[2])
print(sorted(k for k in sys.modules if k.split(".")[0] in ("scipy", "_hashlib")))
cnn.train_step(model, segs, [0], 0.01, np.random.default_rng(0))
print("scipy.linalg" in sys.modules)
"""


def test_importing_the_program_loads_no_scipy_linalg(tmp_path):
    # Extraction and inference run on numpy alone: scipy (27 MB resident
    # for scipy.fft, 28 MB for scipy.linalg.blas) and OpenSSL's libcrypto
    # (behind _hashlib) load only for a training step or a run record.
    model = cnn.build("CA01", input_frames=40, in_channels=len(ALL_IDS))
    norm = NormStats(mean=np.zeros(len(ALL_IDS)), std=np.ones(len(ALL_IDS)),
                     channel_ids=ALL_IDS)
    cnn.save(model, norm, tmp_path / "in.lct")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run(
        [sys.executable, "-c", _GUARD_SCRIPT, str(tmp_path / "in.lct"),
         str(tmp_path / "out.lct")],
        env=env, check=True, capture_output=True, text=True).stdout.split("\n")
    assert out[0] == "[]"
    # the guard is not vacuous: the first training step does load scipy
    assert out[1] == "True"
    assert (tmp_path / "out.lct").read_bytes() == (tmp_path / "in.lct").read_bytes()


def _float_arrays(value):
    """The floating-point arrays in a layer's cache, output or gradients."""
    if isinstance(value, np.ndarray):
        return [value] if value.dtype.kind == "f" else []
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _float_arrays(v)]
    if isinstance(value, dict):
        return _float_arrays(list(value.values()))
    return []


def _spy_dtypes(model):
    """Wrap each layer's forward and backward; returns the list of dtypes
    of every float array they take in, return or store as gradients."""
    seen = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen.extend(a.dtype for a in _float_arrays([args, result]))
            return result
        return wrapped

    for layer in model.layers:
        layer.forward = spy(layer.forward)
        layer.backward = spy(layer.backward)
    return seen


class TestComputeDtype:
    """The network computes in its parameters' dtype: float32 for a built or
    loaded model, float64 for grad_check's copy."""

    @pytest.mark.parametrize("to_float64", [False, True])
    def test_train_step_stays_in_parameter_dtype(self, to_float64):
        model = tiny_model(seed=3)
        expected = np.float32
        if to_float64:
            model, expected = float64_copy(model), np.float64
        seen = _spy_dtypes(model)
        x = np.random.default_rng(4).standard_normal((3, 8, 2))  # float64
        # a numpy float64 learning rate must not promote the update either
        cnn.train_step(model, x, np.array([0, 1, 1]), np.float64(0.1),
                       np.random.default_rng(5))
        # every layer's input, output, cache and, on the way back, its
        # incoming gradient, outgoing gradient and parameter gradients
        assert len(seen) > 3 * len(model.layers)
        assert set(seen) == {np.dtype(expected)}
        for layer in model.layers:
            if isinstance(layer, (cnn.Conv1D, cnn.Dense)):
                assert layer.weights.dtype == expected
                assert layer.biases.dtype == expected

    def test_dropout_mask_in_input_dtype(self):
        x = np.ones((2, 5, 3), dtype=np.float32)
        out, mask = cnn.Dropout(0.5).forward(x, np.random.default_rng(0))
        assert out.dtype == mask.dtype == np.float32
        # the mask comes from the float64 uniform stream whatever the dtype
        keep = np.random.default_rng(0).random(x.shape) < 0.5
        assert np.array_equal(mask != 0, keep)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.1, 0.25, 0.3, 0.5])
    def test_dropout_mask_is_the_float64_quotient_cast(self, dtype, rate):
        x = np.random.default_rng(1).standard_normal((3, 7, 5)).astype(dtype)
        out, mask = cnn.Dropout(rate).forward(x, np.random.default_rng(2))
        keep = 1.0 - rate
        want = ((np.random.default_rng(2).random(x.shape) < keep) / keep).astype(dtype)
        assert mask.dtype == dtype and mask.tobytes() == want.tobytes()
        assert out.tobytes() == (x * want).tobytes()

    @pytest.mark.parametrize("seed", [5, 12])
    def test_float32_gradients_match_float64(self, seed):
        model = tiny_model(seed=seed)
        for layer in model.layers:
            if isinstance(layer, cnn.Dropout):
                layer.rate = 0.0
        wide = float64_copy(model)
        x = np.random.default_rng(seed + 1).standard_normal((4, 8, 2))
        y = np.array([0, 1, 1, 0])
        loss32, grads32 = cnn._loss_and_grads(model, x, y, np.random.default_rng(0))
        loss64, grads64 = cnn._loss_and_grads(wide, x, y, np.random.default_rng(0))
        assert loss32 == pytest.approx(loss64, rel=1e-5)
        assert [i for i, _, _ in grads32] == [i for i, _, _ in grads64]
        for (i, _, g32), (_, _, g64) in zip(grads32, grads64):
            for name in ("weights", "biases"):
                a32, a64 = materialised(g32[name]), materialised(g64[name])
                assert a32.dtype == np.float32
                err = np.linalg.norm(a32 - a64) / np.linalg.norm(a64)
                assert err < 1e-3, (i, name, err)


def _spy_backprop(monkeypatch):
    """Record each Conv1D.backward call as (layer, keywords, result), and
    each backpropagation pass as (model, its trainable layers' gradients)."""
    calls, passes = [], []
    backward, loss_and_grads = cnn.Conv1D.backward, cnn._loss_and_grads

    def spy_backward(layer, *args, **kwargs):
        result = backward(layer, *args, **kwargs)
        calls.append((layer, kwargs, result))
        return result

    def spy_pass(model, *args):
        loss, found = loss_and_grads(model, *args)
        passes.append((model, found))
        return loss, found

    monkeypatch.setattr(cnn.Conv1D, "backward", spy_backward)
    monkeypatch.setattr(cnn, "_loss_and_grads", spy_pass)
    return calls, passes


class TestInputLayer:
    """Nothing reads the gradient of the network's input: the first conv is
    asked for none, and every trainable layer still stores its gradients."""

    @staticmethod
    def check(calls, passes):
        [(model, found)] = passes
        first = model.layers[0]
        assert [(kw, out) for layer, kw, out in calls if layer is first] == [
            ({"input_grad": False}, None)]
        later = [(kw, out) for layer, kw, out in calls if layer is not first]
        assert later and all(kw == {} and isinstance(out, np.ndarray)
                             for kw, out in later)
        assert [layer for _, layer, _ in found] == model.trainable()
        for _, layer, grads in found:
            w = layer.weights
            assert materialised(grads["weights"]).shape == (w.size // w.shape[-1],
                                                            w.shape[-1])
            assert grads["biases"].shape == layer.biases.shape

    def test_train_step(self, monkeypatch):
        model = tiny_model()
        calls, passes = _spy_backprop(monkeypatch)
        x = np.random.default_rng(1).standard_normal((4, 8, 2))
        cnn.train_step(model, x, np.array([0, 1, 0, 1]), 0.1,
                       np.random.default_rng(3))
        self.check(calls, passes)
        assert passes[0][0] is model

    def test_grad_check(self, monkeypatch):
        calls, passes = _spy_backprop(monkeypatch)
        err = grad_check(tiny_model(seed=5),
                         np.random.default_rng(6).standard_normal((2, 8, 2)),
                         [1, 0], epsilon=1e-5)
        self.check(calls, passes)
        assert err < 1e-4


class TestGradCheck:
    # Batches of more than one sample, so the check covers the mean over
    # the batch in the training gradient.

    def test_miniature_model_below_1e4(self):
        err = grad_check(tiny_model(seed=5),
                         np.random.default_rng(6).standard_normal((2, 8, 2)),
                         [1, 0], epsilon=1e-5)
        assert err < 1e-4

    def test_other_seed(self):
        err = grad_check(tiny_model(seed=12),
                         np.random.default_rng(13).standard_normal((3, 8, 2)),
                         [0, 0, 1], epsilon=1e-5)
        assert err < 1e-4


class TestSerialization:
    def test_round_trip_outputs_bit_exact(self, tmp_path):
        model = cnn.build("CA03", 60, 4, seed=17)
        path = tmp_path / "m.lct"
        cnn.save(model, norm_for(model), path)
        back, _ = cnn.load(path)
        assert back.arch_id == "CA03"
        assert back.rng_seed == 17
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal((60, 4))
            assert np.array_equal(cnn.forward_batch(model, x[None])[0],
                                  cnn.forward_batch(back, x[None])[0])

    def test_norm_round_trips_bit_exact(self, tmp_path):
        model = cnn.build("CA02", 40, 5, seed=3)
        norm = norm_for(model, seed=8)
        path = tmp_path / "m.lct"
        cnn.save(model, norm, path)
        _, back = cnn.load(path)
        assert back.channel_ids == ("F0", "ENERGY", "VPROB", "JITTER", "DJITTER")
        assert np.array_equal(back.mean, norm.mean)
        assert np.array_equal(back.std, norm.std)

    def test_truncated_file(self, tmp_path):
        model = cnn.build("CA02", 40, 3, seed=0)
        path = tmp_path / "m.lct"
        cnn.save(model, norm_for(model), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(cnn.ModelFileError, match="corrupt|truncated"):
            cnn.load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.lct"
        path.write_bytes(b"WAT?" + b"\x00" * 64)
        with pytest.raises(cnn.ModelFileError, match="magic"):
            cnn.load(path)

    def test_version_1_rejected(self, tmp_path):
        model = cnn.build("CA02", 40, 3, seed=0)
        path = tmp_path / "m.lct"
        cnn.save(model, norm_for(model), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<H", 1) + blob[6:])
        with pytest.raises(cnn.ModelFileError, match="version 1.*retrain"):
            cnn.load(path)

    def test_save_rejects_channel_count_mismatch(self, tmp_path):
        model = cnn.build("CA02", 40, 3, seed=0)
        for n_ids, n_stats in ((4, 4), (3, 2)):
            with pytest.raises(ValueError, match="channels"):
                cnn.save(model, NormStats(mean=np.zeros(n_stats),
                                          std=np.ones(n_stats),
                                          channel_ids=ALL_IDS[:n_ids]),
                         tmp_path / "m.lct")
        assert not (tmp_path / "m.lct").exists()

    def test_load_rejects_channel_count_mismatch(self, tmp_path):
        model = cnn.build("CA02", 40, 3, seed=0)
        path = tmp_path / "m.lct"
        cnn.save(model, norm_for(model), path)
        blob = path.read_bytes()
        # the channel count follows the shape and the two dropout rates
        at = 4 + 2 + 1 + len("CA02") + 16 + 16
        assert struct.unpack_from("<I", blob, at) == (3,)
        path.write_bytes(blob[:at] + struct.pack("<I", 2) + blob[at + 4:])
        with pytest.raises(cnn.ModelFileError, match="2 channels"):
            cnn.load(path)

    @pytest.mark.parametrize("ids, std, match", [
        (("F0", "XX", "ZCR"), (1.0, 1.0, 1.0), "unknown or repeated channel id 'XX'"),
        (("F0", "ZCR", "F0"), (1.0, 1.0, 1.0), "unknown or repeated channel id 'F0'"),
        (("F0", "HNR", "ZCR"), (1.0, 0.0, 1.0), "non-positive std"),
        (("F0", "HNR", "ZCR"), (1.0, np.nan, 1.0), "non-finite"),
        (("F0", "HNR", "ZCR"), (1.0, np.inf, 1.0), "non-finite"),
    ])
    def test_load_rejects_bad_channel_table(self, tmp_path, ids, std, match):
        model = cnn.build("CA02", 40, 3, seed=0)
        path = tmp_path / "m.lct"
        cnn.save(model, NormStats(mean=np.zeros(3), std=np.array(std),
                                  channel_ids=ids), path)
        with pytest.raises(cnn.ModelFileError, match=match):
            cnn.load(path)

    def test_wrong_channel_count_fails_at_inference(self, tmp_path):
        model = cnn.build("CA02", 40, 5, seed=0)
        path = tmp_path / "m.lct"
        cnn.save(model, norm_for(model), path)
        back, _ = cnn.load(path)
        with pytest.raises(cnn.ShapeMismatchError):
            cnn.forward_batch(back, np.zeros((40, 3))[None])

    def test_save_rejects_model_load_would_refuse(self, tmp_path):
        # tiny_model is labelled CA02 on 8 x 2, which CA02 cannot take; the
        # other is a CA02 on 40 x 3 given a 3-way classifier
        three_way = cnn.build("CA02", 40, 3, seed=0)
        three_way.layers[-1] = cnn.Dense(1024, 3)
        for model, match in ((tiny_model(), "longer than input"),
                             (three_way, "not the CA02 network")):
            with pytest.raises(ValueError, match=match):
                cnn.save(model, norm_for(model), tmp_path / "m.lct")
            assert not (tmp_path / "m.lct").exists()

    def test_save_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.lct", tmp_path / "b.lct"
        for path in (a, b):
            model = cnn.build("CA02", 40, 3, seed=21)
            cnn.save(model, norm_for(model), path)
        assert a.read_bytes() == b.read_bytes()


def _saved(tmp_path, arch="CA02", frames=40, channels=3, seed=0):
    model = cnn.build(arch, frames, channels, seed=seed)
    path = tmp_path / f"{arch}.lct"
    cnn.save(model, norm_for(model), path)
    return model, path.read_bytes()


# byte offsets of the version-3 header fields after a 4-character arch id
# (the seed is at 11)
_ARCH_AT, _FRAMES_AT, _CHANNELS_AT = 7, 19, 23
_CONV_DROPOUT_AT, _DENSE_DROPOUT_AT, _COUNT_AT = 27, 35, 43


def _patched(blob, at, fmt, value):
    return blob[:at] + struct.pack(fmt, value) + blob[at + struct.calcsize(fmt):]


class TestModelFile:
    @settings(max_examples=8, deadline=None)
    @given(arch=st.sampled_from(sorted(cnn.ARCHITECTURES)),
           frames=st.integers(40, 90),
           ids=st.lists(st.sampled_from(ALL_IDS), min_size=1, max_size=23,
                        unique=True),
           seed=st.integers(0, 2**64 - 1),
           conv_dropout=st.floats(0.0, 1.0, exclude_max=True),
           dense_dropout=st.floats(0.0, 1.0, exclude_max=True))
    def test_round_trip(self, tmp_path_factory, arch, frames, ids, seed,
                        conv_dropout, dense_dropout):
        tmp_path = tmp_path_factory.mktemp("rt")
        model = cnn.build(arch, frames, len(ids), seed=seed,
                          conv_dropout=conv_dropout, dense_dropout=dense_dropout)
        rng = np.random.default_rng(seed % 1000)
        model.layers[-1].weights = rng.normal(
            0, 0.05, model.layers[-1].weights.shape).astype(np.float32)
        norm = NormStats(mean=rng.standard_normal(len(ids)),
                         std=rng.uniform(0.1, 3.0, len(ids)), channel_ids=tuple(ids))
        first, second = tmp_path / "a.lct", tmp_path / "b.lct"
        cnn.save(model, norm, first)
        back, back_norm = cnn.load(first)
        cnn.save(back, back_norm, second)
        assert first.read_bytes() == second.read_bytes()
        rates = [l.rate for l in back.layers if isinstance(l, cnn.Dropout)]
        assert rates[0] == conv_dropout and rates[-1] == dense_dropout
        x = rng.standard_normal((3, frames, len(ids)))
        assert np.array_equal(cnn.forward_batch(model, x),
                              cnn.forward_batch(back, x))

    @settings(max_examples=20, deadline=None)
    @given(cut=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncated_prefix(self, tmp_path_factory, cut):
        tmp_path = tmp_path_factory.mktemp("cut")
        _, blob = _saved(tmp_path)
        path = tmp_path / "m.lct"
        path.write_bytes(blob[:int(cut * len(blob))])
        with pytest.raises(cnn.ModelFileError):
            cnn.load(path)

    def test_trailing_bytes(self, tmp_path):
        _, blob = _saved(tmp_path)
        path = tmp_path / "m.lct"
        path.write_bytes(blob + b"\x00" * 4)
        with pytest.raises(cnn.ModelFileError, match="bytes of parameters"):
            cnn.load(path)

    @pytest.mark.parametrize("src, dst",
                             itertools.permutations(sorted(cnn.ARCHITECTURES), 2))
    def test_relabelled_arch(self, tmp_path, src, dst):
        _, blob = _saved(tmp_path, arch=src)
        path = tmp_path / "m.lct"
        path.write_bytes(blob.replace(src.encode(), dst.encode(), 1))
        with pytest.raises(cnn.ModelFileError, match=f"{dst} on .*holds"):
            cnn.load(path)

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_nan_parameter(self, tmp_path, where):
        model, blob = _saved(tmp_path)
        at = len(blob) - 4 * model.num_params if where == "first" else len(blob) - 4
        path = tmp_path / "m.lct"
        path.write_bytes(_patched(blob, at, "<f", np.nan))
        with pytest.raises(cnn.ModelFileError, match="non-finite parameter"):
            cnn.load(path)

    def test_invalid_utf8(self, tmp_path):
        _, blob = _saved(tmp_path)
        path = tmp_path / "m.lct"
        path.write_bytes(blob.replace(b"CA02", b"CA\xff2", 1))
        with pytest.raises(cnn.ModelFileError, match="invalid UTF-8"):
            cnn.load(path)
        first_id = _COUNT_AT + 4 + 1  # after the count and the id's length
        path.write_bytes(blob[:first_id] + b"\xff" + blob[first_id + 1:])
        with pytest.raises(cnn.ModelFileError, match="invalid UTF-8"):
            cnn.load(path)

    def test_version_2_rejected(self, tmp_path):
        _, blob = _saved(tmp_path)
        path = tmp_path / "m.lct"
        path.write_bytes(_patched(blob, 4, "<H", 2))
        with pytest.raises(cnn.ModelFileError, match="version 2.*retrain"):
            cnn.load(path)

    @pytest.mark.parametrize("at, fmt, value, match", [
        (_FRAMES_AT, "<I", 5, "longer than input"),
        # a network of about 256 TiB: refused before any of it is written
        (_FRAMES_AT, "<I", 2**32 - 1, "model file header|bytes of parameters"),
        (_CONV_DROPOUT_AT, "<d", 1.0, "dropout rate"),
        (_DENSE_DROPOUT_AT, "<d", np.nan, "dropout rate"),
        (_ARCH_AT, "<4s", b"CA99", "unknown architecture"),
    ])
    def test_header_build_rejects(self, tmp_path, at, fmt, value, match):
        _, blob = _saved(tmp_path)
        path = tmp_path / "m.lct"
        path.write_bytes(_patched(blob, at, fmt, value))
        with pytest.raises(cnn.ModelFileError, match=match):
            cnn.load(path)

    def test_no_input_channels_rejected(self, tmp_path):
        model, blob = _saved(tmp_path)
        params = blob[len(blob) - 4 * model.num_params:]
        header = _patched(blob[:_COUNT_AT], _CHANNELS_AT, "<I", 0)
        path = tmp_path / "m.lct"
        path.write_bytes(header + struct.pack("<I", 0) + params)
        with pytest.raises(cnn.ModelFileError, match="in_channels must be >= 1"):
            cnn.load(path)
