import numpy as np
import pytest

from lctid import cnn


def tiny_model(seed=5):
    """Miniature network covering every layer kind (dropout rates are live
    but disabled inside grad_check)."""
    rng = np.random.default_rng(seed)
    m = cnn.Model(layers=[
        cnn.Conv1D(3, 2, 4), cnn.ReLU(), cnn.MaxPool(2), cnn.Dropout(0.25),
        cnn.Conv1D(2, 4, 4), cnn.ReLU(), cnn.Flatten(),
        cnn.Dense(8, 6), cnn.ReLU(), cnn.Dropout(0.5),
        cnn.Dense(6, 2), cnn.Softmax(),
    ], arch_id="CA02", input_frames=8, in_channels=2, rng_seed=seed)
    for layer in m.layers:
        if hasattr(layer, "weights"):
            layer.weights = rng.normal(0, 0.5, layer.weights.shape).astype(np.float32)
            layer.biases = rng.normal(0, 0.1, layer.biases.shape).astype(np.float32)
    return m


class TestConv1D:
    def test_fig11_first_conv_shape(self):
        model = cnn.build("CA02", 187, 10, seed=0)
        conv = model.layers[0]
        out, _ = conv.forward(np.zeros((1, 187, 10)))
        assert out.shape == (1, 181, 32)

    def test_identity_kernel(self):
        conv = cnn.Conv1D(1, 1, 1, weights=np.ones((1, 1, 1)), biases=np.zeros(1))
        x = np.random.default_rng(0).standard_normal((1, 20, 1))
        out, _ = conv.forward(x)
        assert np.allclose(out, x, atol=1e-7)  # float32 weight cast

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        conv = cnn.Conv1D(3, 2, 1,
                          weights=rng.standard_normal((3, 2, 1)),
                          biases=rng.standard_normal(1))
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


class TestBuild:
    def test_ca02_parameter_counts(self):
        model = cnn.build("CA02", 187, 10, seed=0)
        assert model.parameter_counts() == [2272, 7200, 6208, 12352, 2688000, 2050]

    def test_ca02_total(self):
        model = cnn.build("CA02", 187, 10, seed=0)
        assert model.num_params == sum([2272, 7200, 6208, 12352, 2688000, 2050])

    def test_ca02_shape_chain(self):
        model = cnn.build("CA02", 187, 10, seed=0)
        assert model.shape_chain() == [187, 181, 175, 87, 85, 83, 41, 2624, 1024, 2]

    def test_ca01_first_conv(self):
        model = cnn.build("CA01", 187, 10, seed=0)
        assert model.shape_chain()[1] == 178  # 187 - 10 + 1

    def test_ca03_dense_stack(self):
        model = cnn.build("CA03", 187, 10, seed=0)
        widths = [l.out_features for l in model.layers if isinstance(l, cnn.Dense)]
        assert widths == [1024, 512, 2]

    def test_unknown_arch(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            cnn.build("CA99")

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
        a = cnn.forward(model, x)
        b = cnn.forward(model, x)
        assert np.array_equal(a, b)

    def test_train_mode_dropout_is_stochastic(self):
        model = cnn.build("CA02", 40, 3, seed=1)
        x = np.random.default_rng(4).standard_normal((40, 3))
        # build zero-initialises the classifier: uniform output whatever the mask
        fresh = cnn.forward(model, x, mode="train", rng=np.random.default_rng(1))
        assert np.array_equal(fresh, [0.5, 0.5])
        head = model.layers[-2]
        wrng = np.random.default_rng(5)
        head.weights = wrng.normal(0, 0.05, head.weights.shape).astype(np.float32)
        a = cnn.forward(model, x, mode="train", rng=np.random.default_rng(1))
        b = cnn.forward(model, x, mode="train", rng=np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_zero_input_matches_bias_only_oracle(self):
        model = tiny_model(seed=9)
        got = cnn.forward(model, np.zeros((8, 2)))
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
                t_len //= layer.width
            elif isinstance(layer, cnn.Flatten):
                flat = np.tile(const, t_len)
                const = flat
            elif isinstance(layer, cnn.Dense):
                const = const @ layer.weights.astype(np.float64) \
                    + layer.biases.astype(np.float64)
            elif isinstance(layer, cnn.Softmax):
                e = np.exp(const - const.max())
                const = e / e.sum()
        assert np.allclose(got, const, atol=1e-12)

    def test_shape_mismatch_at_inference(self):
        model = cnn.build("CA02", 40, 10, seed=0)
        with pytest.raises(cnn.ShapeMismatchError):
            cnn.forward(model, np.zeros((40, 8)))


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
        probs = cnn.forward_batch(model, rng.standard_normal((64, 187, 10)))
        loss = cnn.cross_entropy(probs, rng.integers(0, 2, 64))
        assert loss == pytest.approx(np.log(2.0), abs=0.1)

    def test_zero_loss_point_gradients_vanish(self):
        # target = output: cross-entropy gradient (p - y) is identically zero,
        # so even at learning rate 1 no float32 parameter bit moves
        model = tiny_model(seed=7)
        for layer in model.layers:
            if isinstance(layer, cnn.Dropout):
                layer.rate = 0.0
        x = np.random.default_rng(2).standard_normal((1, 8, 2))
        probs = cnn.forward_batch(model, x)
        before = [(l.weights.copy(), l.biases.copy())
                  for l in model.layers if hasattr(l, "weights")]
        cnn.train_step(model, x, probs, 1.0, np.random.default_rng(4))
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

        model.layers[-2].apply_update = diverge
        x = np.random.default_rng(1).standard_normal((4, 8, 2))
        with pytest.raises(cnn.TrainingDivergedError, match="layer 10"):
            cnn.train_step(model, x, np.array([0, 1, 0, 1]), 0.1,
                           np.random.default_rng(3))
        after = [(l.weights, l.biases) for l in model.layers if hasattr(l, "weights")]
        for (w0, b0), (w1, b1) in zip(before, after):
            assert np.array_equal(w0, w1)
            assert np.array_equal(b0, b1)

    def test_learning_rate_defaults_per_optimizer(self):
        assert cnn.TrainConfig(optimizer="sgd").learning_rate == 0.005
        assert cnn.TrainConfig(optimizer="minibatch_gd").learning_rate == 0.01
        assert cnn.TrainConfig(optimizer="sgd", learning_rate=0.2).learning_rate == 0.2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            cnn.TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            cnn.TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            cnn.TrainConfig(optimizer="adam")

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


class TestGradCheck:
    # Batches of more than one sample, so the check covers the mean over
    # the batch in the training gradient.

    def test_miniature_model_below_1e4(self):
        err = cnn.grad_check(tiny_model(seed=5),
                             np.random.default_rng(6).standard_normal((2, 8, 2)),
                             [1, 0], epsilon=1e-5)
        assert err < 1e-4

    def test_other_seed(self):
        err = cnn.grad_check(tiny_model(seed=12),
                             np.random.default_rng(13).standard_normal((3, 8, 2)),
                             [0, 0, 1], epsilon=1e-5)
        assert err < 1e-4


class TestSerialization:
    def test_round_trip_outputs_bit_exact(self, tmp_path):
        model = cnn.build("CA03", 60, 4, seed=17)
        path = tmp_path / "m.lct"
        cnn.save(model, path)
        back = cnn.load(path)
        assert back.arch_id == "CA03"
        assert back.rng_seed == 17
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal((60, 4))
            assert np.array_equal(cnn.forward(model, x), cnn.forward(back, x))

    def test_truncated_file(self, tmp_path):
        model = cnn.build("CA02", 40, 3, seed=0)
        path = tmp_path / "m.lct"
        cnn.save(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(cnn.ModelFileError, match="corrupt|truncated"):
            cnn.load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.lct"
        path.write_bytes(b"WAT?" + b"\x00" * 64)
        with pytest.raises(cnn.ModelFileError, match="magic"):
            cnn.load(path)

    def test_wrong_channel_count_fails_at_inference(self, tmp_path):
        model = cnn.build("CA02", 40, 5, seed=0)
        path = tmp_path / "m.lct"
        cnn.save(model, path)
        back = cnn.load(path)
        with pytest.raises(cnn.ShapeMismatchError):
            cnn.forward(back, np.zeros((40, 3)))

    def test_save_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.lct", tmp_path / "b.lct"
        cnn.save(cnn.build("CA02", 40, 3, seed=21), a)
        cnn.save(cnn.build("CA02", 40, 3, seed=21), b)
        assert a.read_bytes() == b.read_bytes()
