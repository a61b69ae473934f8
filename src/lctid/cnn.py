"""From-scratch 1D-CNN: layers, backprop, training, and serialization.

Convolution is valid (no padding), stride 1, implemented as correlation
across time and summed over input channels.  Parameters are stored as
float32 (matching the model file format exactly, so save/load round-trips
bit-exactly) while activations and gradients flow in float64.

Architectures: two pairs of convolutional layers, each pair followed by
max-pooling and dropout, then one or two ReLU dense layers and a final
2-way softmax.  CA01 uses kernels [10, 10, 5, 5]; CA02/CA03 use
[7, 7, 3, 3]; CA03 has dense widths [1024, 512] instead of [1024].

Training takes the cross-entropy on the logits (the input to the final
softmax) and backpropagates its gradient p - y from there, so a saturated
wrong prediction keeps a gradient of full size instead of a clamped zero.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ARCHITECTURES", "CONV_CHANNELS", "ShapeMismatchError", "ModelFileError",
    "TrainingDivergedError", "Conv1D", "ReLU", "MaxPool", "Dropout",
    "Flatten", "Dense", "Softmax", "Model", "TrainConfig", "build",
    "forward", "forward_batch", "cross_entropy", "train_step", "train",
    "grad_check", "save", "load", "default_optimizer", "default_learning_rate",
]


class ShapeMismatchError(ValueError):
    pass


class ModelFileError(Exception):
    pass


class TrainingDivergedError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Layers.  forward(x, ...) -> (out, cache); backward(grad, cache) -> dx and,
# for trainable layers, parameter gradients stored into the given dict.

class Conv1D:
    kind = "conv"

    def __init__(self, kernel_len: int, in_channels: int, out_channels: int,
                 weights: np.ndarray | None = None,
                 biases: np.ndarray | None = None):
        self.kernel_len = kernel_len
        self.in_channels = in_channels
        self.out_channels = out_channels
        shape = (kernel_len, in_channels, out_channels)
        self.weights = (np.zeros(shape, dtype=np.float32)
                        if weights is None else np.asarray(weights, dtype=np.float32))
        self.biases = (np.zeros(out_channels, dtype=np.float32)
                       if biases is None else np.asarray(biases, dtype=np.float32))
        if self.weights.shape != shape or self.biases.shape != (out_channels,):
            raise ShapeMismatchError("conv parameter shapes do not match layer spec")

    @property
    def num_params(self) -> int:
        return self.weights.size + self.biases.size

    def out_shape(self, in_shape):
        t, c = in_shape
        if c != self.in_channels:
            raise ShapeMismatchError(
                f"conv expects {self.in_channels} channels, got {c}")
        if t < self.kernel_len:
            raise ShapeMismatchError(
                f"conv kernel {self.kernel_len} longer than input length {t}")
        return (t - self.kernel_len + 1, self.out_channels)

    def forward(self, x):
        b, t, c = x.shape
        t_out, _ = self.out_shape((t, c))
        win = np.lib.stride_tricks.sliding_window_view(x, self.kernel_len, axis=1)
        cols = np.ascontiguousarray(win.transpose(0, 1, 3, 2)).reshape(
            b, t_out, self.kernel_len * c)
        w_mat = self.weights.reshape(self.kernel_len * self.in_channels,
                                     self.out_channels)
        out = cols @ w_mat + self.biases
        return out, (cols, (b, t, c))

    def backward(self, grad, cache, grads_out: dict):
        cols, (b, t, c) = cache
        w_mat = self.weights.reshape(self.kernel_len * self.in_channels,
                                     self.out_channels)
        grads_out["weights"] = np.einsum("btf,bto->fo", cols, grad).reshape(
            self.weights.shape)
        grads_out["biases"] = grad.sum(axis=(0, 1))
        dcols = (grad @ w_mat.T).reshape(b, -1, self.kernel_len, c)
        dx = np.zeros((b, t, c))
        t_out = dcols.shape[1]
        for dt in range(self.kernel_len):
            dx[:, dt:dt + t_out, :] += dcols[:, :, dt, :]
        return dx

    def apply_update(self, grads: dict, lr: float):
        _gradient_step(self, grads, lr)


def _gradient_step(layer, grads: dict, lr: float) -> None:
    """Rebind the layer's weights and biases to their float32 update.

    Both new arrays are computed and checked before either is assigned: a
    non-finite result (a non-finite gradient, or a value past the float32
    range) raises TrainingDivergedError and leaves the layer unchanged.
    The old arrays are never written to.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        new = {name: (getattr(layer, name) - lr * grads[name]).astype(np.float32)
               for name in ("weights", "biases")}
    for name, value in new.items():
        if not np.isfinite(value).all():
            raise TrainingDivergedError(f"update made the {name} non-finite")
    layer.weights, layer.biases = new["weights"], new["biases"]


class ReLU:
    kind = "relu"
    num_params = 0

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x):
        return np.maximum(x, 0.0), (x > 0.0)

    def backward(self, grad, cache, grads_out):
        return grad * cache


class MaxPool:
    kind = "maxpool"
    num_params = 0

    def __init__(self, width: int = 2):
        self.width = width

    def out_shape(self, in_shape):
        t, c = in_shape
        out_t = t // self.width
        if out_t < 1:
            raise ShapeMismatchError("maxpool output would be empty")
        return (out_t, c)

    def forward(self, x):
        b, t, c = x.shape
        t2 = t // self.width
        xr = x[:, :t2 * self.width].reshape(b, t2, self.width, c)
        idx = xr.argmax(axis=2)
        out = np.take_along_axis(xr, idx[:, :, None, :], axis=2)[:, :, 0, :]
        return out, (idx, (b, t, c))

    def backward(self, grad, cache, grads_out):
        idx, (b, t, c) = cache
        t2 = idx.shape[1]
        dxr = np.zeros((b, t2, self.width, c))
        np.put_along_axis(dxr, idx[:, :, None, :], grad[:, :, None, :], axis=2)
        dx = np.zeros((b, t, c))
        dx[:, :t2 * self.width] = dxr.reshape(b, t2 * self.width, c)
        return dx


class Dropout:
    """Inverted dropout: active only in train mode, identity at inference."""

    kind = "dropout"
    num_params = 0

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x, rng: np.random.Generator | None = None):
        if rng is None or self.rate == 0.0:
            return x, None
        keep = 1.0 - self.rate
        mask = (rng.random(x.shape) < keep) / keep
        return x * mask, mask

    def backward(self, grad, cache, grads_out):
        return grad if cache is None else grad * cache


class Flatten:
    kind = "flatten"
    num_params = 0

    def out_shape(self, in_shape):
        t, c = in_shape
        return (t * c,)

    def forward(self, x):
        b = x.shape[0]
        return x.reshape(b, -1), x.shape

    def backward(self, grad, cache, grads_out):
        return grad.reshape(cache)


class Dense:
    kind = "dense"

    def __init__(self, in_features: int, out_features: int,
                 weights: np.ndarray | None = None,
                 biases: np.ndarray | None = None):
        self.in_features = in_features
        self.out_features = out_features
        self.weights = (np.zeros((in_features, out_features), dtype=np.float32)
                        if weights is None else np.asarray(weights, dtype=np.float32))
        self.biases = (np.zeros(out_features, dtype=np.float32)
                       if biases is None else np.asarray(biases, dtype=np.float32))
        if self.weights.shape != (in_features, out_features) \
                or self.biases.shape != (out_features,):
            raise ShapeMismatchError("dense parameter shapes do not match layer spec")

    @property
    def num_params(self) -> int:
        return self.weights.size + self.biases.size

    def out_shape(self, in_shape):
        (n,) = in_shape
        if n != self.in_features:
            raise ShapeMismatchError(
                f"dense expects {self.in_features} inputs, got {n}")
        return (self.out_features,)

    def forward(self, x):
        return x @ self.weights + self.biases, x

    def backward(self, grad, cache, grads_out):
        grads_out["weights"] = cache.T @ grad
        grads_out["biases"] = grad.sum(axis=0)
        return grad @ self.weights.T

    def apply_update(self, grads: dict, lr: float):
        _gradient_step(self, grads, lr)


class Softmax:
    kind = "softmax"
    num_params = 0

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x):
        return _softmax(x)[0], None


def _softmax(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax probabilities and log-probabilities of logits."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    return e / total, shifted - np.log(total)


_LAYER_KINDS = {0: "conv", 1: "relu", 2: "maxpool", 3: "dropout",
                4: "flatten", 5: "dense", 6: "softmax"}
_KIND_CODES = {v: k for k, v in _LAYER_KINDS.items()}


# ---------------------------------------------------------------------------
# Model

@dataclass
class Model:
    layers: list
    arch_id: str
    input_frames: int
    in_channels: int
    rng_seed: int

    @property
    def num_params(self) -> int:
        return sum(l.num_params for l in self.layers)

    def parameter_counts(self) -> list[int]:
        """Per trainable layer (conv/dense), in network order."""
        return [l.num_params for l in self.layers if l.num_params > 0]

    def shape_chain(self) -> list[int]:
        """Time/unit extent after every shape-changing layer, input first."""
        chain = [self.input_frames]
        shape = (self.input_frames, self.in_channels)
        for layer in self.layers:
            out = layer.out_shape(shape)
            if out != shape:
                chain.append(out[0])
            shape = out
        return chain


ARCHITECTURES = {
    "CA01": {"kernels": (10, 10, 5, 5), "dense": (1024,)},
    "CA02": {"kernels": (7, 7, 3, 3), "dense": (1024,)},
    "CA03": {"kernels": (7, 7, 3, 3), "dense": (1024, 512)},
}
CONV_CHANNELS = (32, 32, 64, 64)

NUM_CLASSES = 2


def default_optimizer(arch_id: str) -> str:
    """CA01/CA02 train with mini-batch gradient descent, CA03 with SGD."""
    return "sgd" if arch_id == "CA03" else "minibatch_gd"


def default_learning_rate(optimizer: str) -> float:
    """0.01 for mini-batch gradient descent, 0.005 for SGD.

    An SGD step follows one sample's gradient, not a batch mean, and at
    0.01 it overshoots on samples whose activations have a large norm:
    CA03 then diverged on 4 of 61 seeds of the synthetic benchmark corpus
    (48 utterances, 10 handcrafted channels), and on none of 71 at 0.005.
    """
    return 0.005 if optimizer == "sgd" else 0.01


def build(arch_id: str, input_frames: int = 187, in_channels: int = 10,
          seed: int = 0, conv_dropout: float = 0.25,
          dense_dropout: float = 0.5) -> Model:
    """Construct a CA01/CA02/CA03 model with He-uniform initialization.

    The final classifier layer starts at zero so a fresh network outputs
    the uniform distribution for every input.
    """
    if arch_id not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch_id!r}; "
                         f"choose from {sorted(ARCHITECTURES)}")
    spec = ARCHITECTURES[arch_id]
    rng = np.random.default_rng(seed)

    def he_uniform(shape, fan_in):
        limit = np.sqrt(6.0 / fan_in)
        return rng.uniform(-limit, limit, size=shape).astype(np.float32)

    layers: list = []
    kernels = spec["kernels"]
    chans = (in_channels,) + CONV_CHANNELS
    for pair in range(2):
        for j in range(2):
            k = kernels[pair * 2 + j]
            cin, cout = chans[pair * 2 + j], chans[pair * 2 + j + 1]
            layers.append(Conv1D(k, cin, cout,
                                 weights=he_uniform((k, cin, cout), k * cin)))
            layers.append(ReLU())
        layers.append(MaxPool(2))
        layers.append(Dropout(conv_dropout))
    layers.append(Flatten())

    shape = (input_frames, in_channels)
    for layer in layers:
        shape = layer.out_shape(shape)
    (units,) = shape
    for width in spec["dense"]:
        layers.append(Dense(units, width,
                            weights=he_uniform((units, width), units)))
        layers.append(ReLU())
        layers.append(Dropout(dense_dropout))
        units = width
    layers.append(Dense(units, NUM_CLASSES))  # zero-initialized classifier
    layers.append(Softmax())

    return Model(layers=layers, arch_id=arch_id, input_frames=input_frames,
                 in_channels=in_channels, rng_seed=seed)


# ---------------------------------------------------------------------------
# Forward / loss / training

def forward_batch(model: Model, x: np.ndarray, train: bool = False,
                  rng: np.random.Generator | None = None,
                  want_caches: bool = False, logits: bool = False):
    """(B, frames, channels) -> (B, 2) activations; caches when training.

    With `logits` the final softmax is not applied and the output is its
    input.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (model.input_frames, model.in_channels):
        raise ShapeMismatchError(
            f"input shape {x.shape[1:]} does not match model input "
            f"({model.input_frames}, {model.in_channels})")
    layers = model.layers
    if logits and layers and isinstance(layers[-1], Softmax):
        layers = layers[:-1]
    caches = []
    for layer in layers:
        if isinstance(layer, Dropout):
            x, cache = layer.forward(x, rng if train else None)
        else:
            x, cache = layer.forward(x)
        if want_caches:
            caches.append(cache)
    return (x, caches) if want_caches else x


def forward(model: Model, segment: np.ndarray, mode: str = "infer",
            rng: np.random.Generator | None = None) -> np.ndarray:
    """Class activations (2,) for one frames x channels segment."""
    if mode not in ("infer", "train"):
        raise ValueError("mode must be 'infer' or 'train'")
    x = np.asarray(segment, dtype=np.float64)[None, :, :]
    return forward_batch(model, x, train=(mode == "train"), rng=rng)[0]


def _as_target_matrix(targets, batch: int) -> np.ndarray:
    t = np.asarray(targets)
    if t.ndim == 1:
        onehot = np.zeros((batch, NUM_CLASSES))
        onehot[np.arange(batch), t.astype(int)] = 1.0
        return onehot
    return t.astype(np.float64)


def cross_entropy(probs: np.ndarray, targets) -> float:
    """Mean cross-entropy of probabilities the model has already produced.

    Targets may be class indices or full distributions (rows sum to 1).
    Probabilities are clamped at 1e-12, which caps the loss of a saturated
    wrong prediction, so training does not use this (it takes the loss on
    the logits, `_logit_loss`); it scores the validation loss in `train`.
    """
    probs = np.asarray(probs, dtype=np.float64)
    y = _as_target_matrix(targets, probs.shape[0])
    return float(-(y * np.log(np.maximum(probs, 1e-12))).sum() / probs.shape[0])


def _logit_loss(logits: np.ndarray, targets) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax(logits) and its gradient (p - y) / B.

    Taken as logsumexp(z) - z_y, without clamping, so the loss and the
    gradient stay exact when the softmax saturates.
    """
    batch = logits.shape[0]
    y = _as_target_matrix(targets, batch)
    p, log_p = _softmax(logits)
    return float(-(y * log_p).sum() / batch), (p - y) / batch


def _loss_and_grads(model: Model, inputs: np.ndarray, targets,
                    rng: np.random.Generator) -> tuple[float, list]:
    """Training loss and, in network order, (index, layer, gradients) of
    every trainable layer."""
    logits, caches = forward_batch(model, inputs, train=True, rng=rng,
                                   want_caches=True, logits=True)
    loss, grad = _logit_loss(logits, targets)
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"loss diverged (loss={loss})")
    found = []
    for i in reversed(range(len(caches))):
        layer = model.layers[i]
        grads: dict = {}
        grad = layer.backward(grad, caches[i], grads)
        if grads:
            found.append((i, layer, grads))
    return loss, found[::-1]


def train_step(model: Model, inputs: np.ndarray, targets,
               learning_rate: float, rng: np.random.Generator) -> float:
    """One forward/backward/update pass; returns the pre-update mean loss.

    Raises TrainingDivergedError, naming the layer, when the loss is not
    finite or when the update would make any parameter non-finite (a
    non-finite gradient, or a value past the float32 range).  The model is
    then left exactly as it was before the step.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[0] == 0:
        raise ValueError("batch must be (B, frames, channels) with B >= 1")
    loss, updates = _loss_and_grads(model, inputs, targets, rng)
    # apply_update rebinds a layer's arrays, so keeping the old ones is
    # enough to undo the layers already updated when a later one diverges
    before = [(layer, layer.weights, layer.biases) for _, layer, _ in updates]
    for i, layer, grads in updates:
        try:
            layer.apply_update(grads, learning_rate)
        except TrainingDivergedError as exc:
            for done, weights, biases in before:
                done.weights, done.biases = weights, biases
            raise TrainingDivergedError(
                f"layer {i} ({layer.kind}): {exc} (loss={loss})") from None
    return loss


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "minibatch_gd"  # or "sgd"
    batch_size: int = 32
    learning_rate: float | None = None  # None: default_learning_rate(optimizer)
    epochs: int = 20
    conv_dropout: float = 0.25
    dense_dropout: float = 0.5
    seed: int = 0
    early_stop_patience: int = 5  # 0 disables

    def __post_init__(self):
        if self.optimizer not in ("minibatch_gd", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate is None:
            object.__setattr__(self, "learning_rate",
                               default_learning_rate(self.optimizer))
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def train(model: Model, inputs: np.ndarray, targets: np.ndarray,
          config: TrainConfig,
          val_inputs: np.ndarray | None = None,
          val_targets: np.ndarray | None = None) -> dict:
    """Train in place; returns per-epoch loss history.

    Mini-batch GD shuffles once per epoch and walks the permutation;
    SGD draws one random sample per step.  With a validation set, training
    stops once the validation loss has not improved for
    `early_stop_patience` epochs.

    Raises TrainingDivergedError when a step's loss is not finite or its
    update would make a parameter non-finite (see `train_step`); the model
    then keeps the parameters it had before that step.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets)
    n = inputs.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    rng = np.random.default_rng(config.seed)
    history: dict = {"train_loss": [], "val_loss": []}
    best_val = np.inf
    stale = 0
    for _epoch in range(config.epochs):
        losses = []
        if config.optimizer == "minibatch_gd":
            order = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                sel = order[start:start + config.batch_size]
                losses.append(train_step(model, inputs[sel], targets[sel],
                                         config.learning_rate, rng))
        else:  # sgd: one randomly drawn sample per step
            for _ in range(n):
                i = int(rng.integers(n))
                losses.append(train_step(model, inputs[i:i + 1], targets[i:i + 1],
                                         config.learning_rate, rng))
        history["train_loss"].append(float(np.mean(losses)))
        if val_inputs is not None and len(val_inputs):
            probs = forward_batch(model, val_inputs)
            val_loss = cross_entropy(probs, val_targets)
            history["val_loss"].append(val_loss)
            if val_loss < best_val - 1e-6:
                best_val = val_loss
                stale = 0
            else:
                stale += 1
                if config.early_stop_patience and stale >= config.early_stop_patience:
                    break
    return history


# ---------------------------------------------------------------------------
# Gradient check

def grad_check(model: Model, inputs: np.ndarray, targets,
               epsilon: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Checks the gradients `train_step` applies to the batch `inputs`
    (batch, frames, channels) with `targets` (class indices or
    distributions), including their mean over the batch, on a float64 copy
    of the model with dropout disabled; intended for small models (<= a
    few thousand parameters).
    """
    work = _float64_copy(model, zero_dropout=True)
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets)

    _, updates = _loss_and_grads(work, x, y, np.random.default_rng(0))
    analytic = [(layer, name, g) for _, layer, grads in updates
                for name, g in grads.items()]

    def loss_at() -> float:
        z = forward_batch(work, x, train=True, rng=np.random.default_rng(0),
                          logits=True)
        return _logit_loss(z, y)[0]

    worst = 0.0
    for layer, name, g_analytic in analytic:
        params = getattr(layer, name)
        flat = params.reshape(-1)
        g_flat = g_analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = loss_at()
            flat[i] = orig - epsilon
            down = loss_at()
            flat[i] = orig
            numeric = (up - down) / (2.0 * epsilon)
            denom = max(abs(g_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(g_flat[i] - numeric) / denom)
    return worst


def _float64_copy(model: Model, zero_dropout: bool = False) -> Model:
    layers = []
    for layer in model.layers:
        if isinstance(layer, Conv1D):
            c = Conv1D(layer.kernel_len, layer.in_channels, layer.out_channels)
            c.weights = layer.weights.astype(np.float64)
            c.biases = layer.biases.astype(np.float64)
            layers.append(c)
        elif isinstance(layer, Dense):
            d = Dense(layer.in_features, layer.out_features)
            d.weights = layer.weights.astype(np.float64)
            d.biases = layer.biases.astype(np.float64)
            layers.append(d)
        elif isinstance(layer, Dropout):
            layers.append(Dropout(0.0 if zero_dropout else layer.rate))
        elif isinstance(layer, MaxPool):
            layers.append(MaxPool(layer.width))
        else:
            layers.append(type(layer)())
    return Model(layers=layers, arch_id=model.arch_id,
                 input_frames=model.input_frames,
                 in_channels=model.in_channels, rng_seed=model.rng_seed)


# ---------------------------------------------------------------------------
# Serialization: magic "LCT1", version, arch, seed, input shape, then layers
# with little-endian float32 parameters.

_MAGIC = b"LCT1"
_VERSION = 1


def save(model: Model, path: str | Path) -> None:
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<H", _VERSION)
    arch = model.arch_id.encode("utf-8")
    out += struct.pack("<B", len(arch)) + arch
    out += struct.pack("<QII", model.rng_seed, model.input_frames,
                       model.in_channels)
    out += struct.pack("<I", len(model.layers))
    for layer in model.layers:
        out += struct.pack("<B", _KIND_CODES[layer.kind])
        if isinstance(layer, Conv1D):
            out += struct.pack("<III", layer.kernel_len, layer.in_channels,
                               layer.out_channels)
            out += layer.weights.astype("<f4").tobytes()
            out += layer.biases.astype("<f4").tobytes()
        elif isinstance(layer, Dense):
            out += struct.pack("<II", layer.in_features, layer.out_features)
            out += layer.weights.astype("<f4").tobytes()
            out += layer.biases.astype("<f4").tobytes()
        elif isinstance(layer, MaxPool):
            out += struct.pack("<I", layer.width)
        elif isinstance(layer, Dropout):
            out += struct.pack("<d", layer.rate)
    Path(path).write_bytes(bytes(out))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ModelFileError("corrupt or truncated model file")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype="<f4").copy()


def load(path: str | Path) -> Model:
    r = _Reader(Path(path).read_bytes())
    if r.take(4) != _MAGIC:
        raise ModelFileError("not a model file (bad magic)")
    (version,) = r.unpack("<H")
    if version != _VERSION:
        raise ModelFileError(f"unsupported model file version {version}")
    (arch_len,) = r.unpack("<B")
    arch_id = r.take(arch_len).decode("utf-8")
    seed, input_frames, in_channels = r.unpack("<QII")
    (n_layers,) = r.unpack("<I")
    layers: list = []
    for _ in range(n_layers):
        (code,) = r.unpack("<B")
        kind = _LAYER_KINDS.get(code)
        if kind is None:
            raise ModelFileError(f"unknown layer kind code {code}")
        if kind == "conv":
            k, cin, cout = r.unpack("<III")
            w = r.floats(k * cin * cout).reshape(k, cin, cout)
            b = r.floats(cout)
            layers.append(Conv1D(k, cin, cout, weights=w, biases=b))
        elif kind == "dense":
            fin, fout = r.unpack("<II")
            w = r.floats(fin * fout).reshape(fin, fout)
            b = r.floats(fout)
            layers.append(Dense(fin, fout, weights=w, biases=b))
        elif kind == "maxpool":
            (width,) = r.unpack("<I")
            layers.append(MaxPool(width))
        elif kind == "dropout":
            (rate,) = r.unpack("<d")
            layers.append(Dropout(rate))
        elif kind == "relu":
            layers.append(ReLU())
        elif kind == "flatten":
            layers.append(Flatten())
        elif kind == "softmax":
            layers.append(Softmax())
    if r.pos != len(r.data):
        raise ModelFileError("trailing bytes in model file")
    return Model(layers=layers, arch_id=arch_id, input_frames=input_frames,
                 in_channels=in_channels, rng_seed=seed)
