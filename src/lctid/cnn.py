"""From-scratch 1D-CNN: layers, backprop, training, and serialization.

Convolution is valid (no padding), stride 1, implemented as correlation
across time and summed over input channels.  Parameters are stored as
float32, matching the model file format exactly, so save/load round-trips
bit-exactly.  The network computes in its parameters' dtype: inputs are
cast to it once, and activations, gradients and updates stay in it, so a
loaded or freshly built model runs in float32 and a float64 copy runs the
same code in float64.  Only the softmax and the loss, on the (B, 2)
logits, are taken in float64.

Architectures: two pairs of convolutional layers, each pair followed by
max-pooling of frame pairs and dropout, then one or two ReLU dense layers
and a 2-way dense classifier.  CA01 uses kernels [10, 10, 5, 5], CA02/CA03
[7, 7, 3, 3]; CA03 has dense widths [1024, 512] instead of [1024].

The network ends at its logits; `forward_batch` applies the softmax.
`cross_entropy` takes the loss on the logits, for training and for the
validation loss alike, and backpropagates its gradient p - y from there,
so a saturated wrong prediction keeps a gradient of full size instead of a
clamped zero.

One constructor, `_network`, makes every network from `build`'s
arguments and computes its layer shapes: `build` draws its initial
parameters, and `load` reads them from a model file.  The file holds
those arguments, the channel ids and z-score statistics the model was
trained on, and the parameters.

A training step commits once.  Each layer keeps its weight gradient as
two factors, its input and its output gradient G, and stages its biases'
update in their gradient's array; `apply_update` checks both and writes
nothing.  Only after every layer has passed does `train_step` write each
layer's weights in place, W − lr·XᵀG as one `ger` or `gemm` call, and
bind its new biases.  A step that raises writes nothing.  The call goes
through ctypes into the BLAS that numpy links, so the program loads one
BLAS library and no scipy module: a training process's peak RSS is about
20 MB lower than when the commit loaded scipy's BLAS, with the same bits.

X is a Dense's input and a Conv1D's im2col matrix, which holds each input
value up to kernel_len times: it is built from the kept input just before
the layer's BLAS call and dropped after it, so a step holds one im2col
matrix at a time.  A Conv1D forms its input gradient one kernel tap at a
time and builds no im2col matrix of it either.  One CA01 batch-32 step at
(166, 13) traces a 10.00 MiB peak this way, and 24.06 MiB when every conv
keeps its im2col matrix from the forward to the commit and the backward
builds its gradient.

A Dense input of 2 to SGEMM_MIN_ROWS - 1 rows is multiplied by one row
block of the weights at a time, y = x[:, :k] @ W[:k] and then
y += x[:, i:i + k] @ W[i:i + k], each block DENSE_BLOCK_BYTES of W.
OpenBLAS's sgemm packs the whole weight matrix however few rows it
multiplies, and one gemv per row streams W from memory once per row; a
block fits in L2 (2 MB per core), so W is read once for all rows.  On
CA03's 2304×1024 dense0 (one BLAS thread, 2-core Xeon, OpenBLAS 0.3.31
Haswell kernels, numpy 2.4.6, medians in ms)

    rows            1     2     3     4     6     8    16
    sgemm         0.46  1.24  1.44  1.30  1.73  1.67  1.67
    gemv per row  0.49  0.86  1.27  1.74  2.88  3.84  6.89
    blocks of W   0.52  0.50  0.70  0.62  1.73  1.66  1.73

and on 1024×512 dense1 blocks took 0.11 and 0.16 ms at 2 and 3 rows,
against 0.14 and 0.20 as gemvs and 0.28 and 0.33 as one sgemm.  Blocks of
128 to 256 rows of a 1024-wide W ran alike; 384 rows (1.5 MB) took 1.60
ms at 3 rows, past L2 with the packed rows.  DENSE_BLOCK_BYTES is 192
rows of a 1024-wide W; a narrower W takes more rows per block, dense1 384
and the classifier all of its rows in one product.  Per-utterance inference
scores 1–3 segments, so it takes the block path.  One row stays x @ W,
which numpy already runs as gemv, so a batch-1 SGD step is untouched.  A
2- or 3-row batch rounds differently in the last bits than one sgemm
would.  Blocks still win at 4 rows, but SGEMM_MIN_ROWS stays 4, so that
batches of 4 rows and more keep the bits of one sgemm.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import ALL_IDS, NormStats

__all__ = [
    "ARCHITECTURES", "CONV_CHANNELS", "ShapeMismatchError", "ModelFileError",
    "TrainingDivergedError", "Conv1D", "ReLU", "MaxPool", "Dropout",
    "Flatten", "Dense", "Model", "TrainConfig", "build",
    "forward_batch", "cross_entropy", "train_step", "train",
    "save", "load", "OPTIMIZERS", "default_optimizer", "default_learning_rate",
    "blas_info", "BLAS_PINNABLE", "one_blas_thread",
]


class ShapeMismatchError(ValueError):
    pass


class ModelFileError(Exception):
    pass


class TrainingDivergedError(RuntimeError):
    """A training step's loss is not finite, or its update could make a
    parameter non-finite; the step then writes nothing."""


# ---------------------------------------------------------------------------
# Layers.  forward(x, ...) -> (out, cache); backward(grad, cache) -> dx and,
# for trainable layers, parameter gradients stored into the given dict (with
# input_grad=False a Conv1D stores them and returns None): the biases' as an
# array, the weights' as the factors (x, G), the layer's input and its output
# gradient as (rows, out channels).  The gradient of the weights reshaped to
# (rows of X, out channels) is XᵀG, where X is x for a Dense and x's im2col
# matrix for a Conv1D (`_weight_factors`); X has G's rows and holds the
# values of x, so max|X| is max|x|.

class Conv1D:
    kind = "conv"

    def __init__(self, kernel_len: int, in_channels: int, out_channels: int):
        self.kernel_len = kernel_len
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weights = np.zeros((kernel_len, in_channels, out_channels),
                                dtype=np.float32)
        self.biases = np.zeros(out_channels, dtype=np.float32)

    @property
    def num_params(self) -> int:
        return self.weights.size + self.biases.size

    def forward(self, x):
        _, _, c = x.shape
        if c != self.in_channels:
            raise ShapeMismatchError(
                f"conv expects {self.in_channels} channels, got {c}")
        cols = _im2col(x, self.kernel_len)
        out = cols @ self.weights.reshape(-1, self.out_channels) + self.biases
        return out, x

    def backward(self, grad, cache, grads_out: dict, *, input_grad: bool = True):
        grads_out["weights"] = (cache, grad.reshape(-1, self.out_channels))
        grads_out["biases"] = grad.sum(axis=(0, 1))
        if not input_grad:
            return None
        # tap dt's share of the im2col gradient lands on frames dt..dt+t_out-1;
        # grad @ W[dt]ᵀ rounds as that tap's columns of grad @ W_matᵀ
        dx = np.zeros(cache.shape, dtype=grad.dtype)
        t_out = grad.shape[1]
        for dt, w in enumerate(self.weights):
            dx[:, dt:dt + t_out] += grad @ w.T
        return dx

    def apply_update(self, grads: dict, lr: float):
        _gradient_step(self, grads, lr)


def _im2col(x: np.ndarray, kernel_len: int) -> np.ndarray:
    """(b, t, c) -> (b, t - kernel_len + 1, kernel_len * c), C-contiguous:
    row t holds frames t..t + kernel_len - 1, each frame's channels in
    order.  One copy of a window (b, t_out, k, c) over x's own buffer; BLAS
    cannot take the overlapping rows of the window itself."""
    x = np.ascontiguousarray(x)
    b, t, c = x.shape
    sb, st, sc = x.strides
    t_out = t - kernel_len + 1
    win = np.ndarray((b, t_out, kernel_len, c), x.dtype, x, 0, (sb, st, st, sc))
    return np.ascontiguousarray(win).reshape(b, t_out, kernel_len * c)


def _weight_factors(layer, grads: dict) -> tuple[np.ndarray, np.ndarray]:
    """The factors (X, G) of a layer's weight gradient XᵀG, both 2-D: for
    a Conv1D, X is the im2col matrix of its stored input."""
    x, g = grads["weights"]
    if isinstance(layer, Conv1D):
        x = _im2col(x, layer.kernel_len)
    return x.reshape(len(g), -1), g


def _gradient_step(layer, grads: dict, lr: float) -> None:
    """Check a layer's update and stage what `train_step` commits; the
    layer itself is not touched.

    The biases' update b - lr * g is staged in the gradient's own array as
    (-lr) * g + b, which rounds exactly as b - lr * g, in the parameters'
    dtype (a Python float rate does not promote it).  The weights are
    written later, in place, from the factors (X, G); here they must pass
    a bound instead: every |(XᵀG)_ij| is at most rows * max|X| * max|G|,
    with the rows G's and max|X| taken over the stored input x (the same
    values, each once), and both that and max|W| + lr * that
    must stay below half the dtype's maximum (the half leaves room for
    BLAS rounding).  max|W| is a running upper bound kept with the array
    it was taken on, which only a step writes in place; when there is
    none for the current array, or it trips, the exact max|W| is taken and
    checked again.  The bound is stricter than a finite check of the
    written weights: it refuses every update that could make a weight
    non-finite, and some that would not.

    Raises TrainingDivergedError when x, G or the staged biases hold a
    non-finite value, or the bound trips.
    """
    lr = float(lr)
    x, g = grads["weights"]
    x_max, g_max = _abs_max(x), _abs_max(g)
    if not (math.isfinite(x_max) and math.isfinite(g_max)):
        raise TrainingDivergedError("the weight gradient is non-finite")
    w = layer.weights
    limit = 0.5 * float(np.finfo(w.dtype).max)
    product = len(g) * x_max * g_max  # bounds every |(XᵀG)_ij|
    step = abs(lr) * product
    bound_of, w_max = getattr(layer, "_weight_bound", (None, math.inf))
    if bound_of is not w or not w_max + step < limit:
        w_max = _abs_max(w)
    if not (product < limit and w_max + step < limit):
        raise TrainingDivergedError(
            f"update could take the weights past half the {w.dtype.name} range")
    grads["weight_bound"] = w_max + step
    b = grads["biases"]
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(b, -lr, out=b)
        np.add(b, layer.biases, out=b)
    if not np.isfinite(b).all():
        raise TrainingDivergedError("update made the biases non-finite")


def _abs_max(a: np.ndarray) -> float:
    """max|a| as a Python float, without a temporary; nan for a NaN."""
    return float(np.maximum(a.max(), -a.min()))


# numpy's own BLAS, the one library that runs every matmul of the program.
# dlsym on numpy's core extension also searches the libraries it links.
# numpy's wheels export OpenBLAS's CBLAS there under ILP64 scipy-openblas
# names: dimensions and increments are int64 and the CBLAS enums C ints, and
# a wrong width corrupts memory without an error.  A name the library does
# not export binds None: extraction and inference need none of these, and a
# training step refuses to start without its two (`_blas_routines`).
_NUMPY_BLAS = ctypes.CDLL(np._core._multiarray_umath.__file__)
_COL_MAJOR, _NO_TRANS, _TRANS = 102, 111, 112


def _bind(name: str, restype, *argtypes):
    fn = getattr(_NUMPY_BLAS, name, None)
    if fn is not None:
        fn.argtypes, fn.restype = argtypes, restype
    return fn


def _ger_gemm(prefix: str, real) -> tuple:
    i, n, p = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p
    return (_bind(f"scipy_cblas_{prefix}ger64_", None,
                  i, n, n, real, p, n, p, n, p, n),
            _bind(f"scipy_cblas_{prefix}gemm64_", None,
                  i, i, i, n, n, n, real, p, n, p, n, real, p, n))


_BLAS = {np.dtype(np.float32): _ger_gemm("s", ctypes.c_float),  # (ger, gemm)
         np.dtype(np.float64): _ger_gemm("d", ctypes.c_double)}
_BLAS_CONFIG = _bind("scipy_openblas_get_config64_", ctypes.c_char_p)
_BLAS_THREADS = _bind("scipy_openblas_get_num_threads64_", ctypes.c_int)
_BLAS_SET_THREADS = _bind("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
# whether `one_blas_thread` holds BLAS to one thread: numpy's BLAS exports
# the thread getter and setter
BLAS_PINNABLE = _BLAS_THREADS is not None and _BLAS_SET_THREADS is not None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block at one BLAS thread and restore the count after it.
    Where `BLAS_PINNABLE` is false, the block runs at whatever count BLAS
    has."""
    if not BLAS_PINNABLE:
        yield
        return
    threads = _BLAS_THREADS()
    _BLAS_SET_THREADS(1)
    try:
        yield
    finally:
        _BLAS_SET_THREADS(threads)


def _blas_routines(dtype) -> tuple:
    """numpy's BLAS `ger` and `gemm` for `dtype`; RuntimeError if its BLAS
    does not export them."""
    dtype = np.dtype(dtype)
    ger, gemm = _BLAS.get(dtype, (None, None))
    if ger is None or gemm is None:
        raise RuntimeError(
            f"numpy's BLAS does not export the CBLAS ger and gemm that training "
            f"in {dtype.name} calls: training needs a numpy built with "
            "scipy-openblas, as numpy's own wheels are")
    return ger, gemm


def blas_info() -> dict:
    """The BLAS that runs this process's matmuls: OpenBLAS's build
    configuration and its current thread count (None where numpy's BLAS
    does not export them), and numpy's version.  BLAS rounds differently
    at other thread counts, so a run records them."""
    return {"config": None if _BLAS_CONFIG is None else _BLAS_CONFIG().decode(),
            "threads": None if _BLAS_THREADS is None else _BLAS_THREADS(),
            "numpy": np.__version__}


def _commit(layer, grads: dict, lr: float) -> None:
    """Write W - lr * XᵀG into the layer's weights in place and bind its
    staged biases, after `_gradient_step` has passed them.

    One call into numpy's own BLAS on the weights' dtype: `ger` when X has
    one row, `gemm` with beta = 1 otherwise.  A Conv1D's X is built here,
    from its input, and freed on return.  In column-major terms W is the
    (out, in) matrix C with ldc = out, G the (out, rows) A with lda = out,
    and X, transposed, the (in, rows) B with ldb = in: the C-contiguous
    arrays as they are, so BLAS copies none of them.  The in-place update
    rounds W − lr·XᵀG once per weight, which numpy's operators cannot do.
    """
    x, g = _weight_factors(layer, grads)
    w = np.require(layer.weights, requirements="CW")  # the same array if so
    ger, gemm = _blas_routines(w.dtype)
    x = np.ascontiguousarray(x, dtype=w.dtype)  # no copy in any current call
    g = np.ascontiguousarray(g, dtype=w.dtype)
    (rows, n_in), n_out = x.shape, g.shape[1]
    alpha = -float(lr)
    if rows == 1:
        ger(_COL_MAJOR, n_out, n_in, alpha, g.ctypes.data, 1,
            x.ctypes.data, 1, w.ctypes.data, n_out)
    else:
        gemm(_COL_MAJOR, _NO_TRANS, _TRANS, n_out, n_in, rows, alpha,
             g.ctypes.data, n_out, x.ctypes.data, n_in, 1.0, w.ctypes.data, n_out)
    layer.weights, layer.biases = w, grads["biases"]
    layer._weight_bound = (w, grads["weight_bound"])


class ReLU:
    """max(x, 0).  Its cache is the backward mask x > 0, built only when the
    caller keeps caches, so inference builds none.  The output itself would
    serve as the cache (out > 0 wherever x > 0), but keeping it alive until
    the backward holds four times the mask's bytes: at batch 32 that made
    glibc return heap pages after each step and fault them in again, about
    46,000 minor faults per CA01 training run of the benchmark against 1,800.
    """

    kind = "relu"

    def forward(self, x, want_cache: bool = True):
        return np.maximum(x, 0.0), ((x > 0.0) if want_cache else None)

    def backward(self, grad, cache, grads_out):
        return grad * cache


class MaxPool:
    """Max of each frame pair, the first frame on a tie or a NaN in it, moved
    as bits: np.where is slower, and a product with a mask gives -0.0."""

    kind = "maxpool"

    def forward(self, x):
        a, b = x[:, :-1:2], x[:, 1::2]
        keep = -((a >= b) | np.isnan(a)).astype(f"i{x.itemsize}")
        out = (a.view(keep.dtype) & keep) | (b.view(keep.dtype) & ~keep)
        return out.view(x.dtype), (keep, x.shape[1])

    def backward(self, grad, cache, grads_out):
        keep, t = cache
        dx = np.zeros((grad.shape[0], t, grad.shape[2]), dtype=grad.dtype)
        g, d = grad.view(keep.dtype), dx.view(keep.dtype)
        np.bitwise_and(g, keep, out=d[:, :-1:2])
        np.bitwise_and(g, ~keep, out=d[:, 1::2])
        return dx


class Dropout:
    """Inverted dropout: active only when given an rng, identity otherwise."""

    kind = "dropout"

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate

    def forward(self, x, rng: np.random.Generator | None = None):
        if rng is None or self.rate == 0.0:
            return x, None
        keep = 1.0 - self.rate
        # drawn in float64 whatever x's dtype, so a seed drops the same
        # units; the mask is 1 / keep in x's dtype, with no float64 copy
        mask = np.multiply(rng.random(x.shape) < keep, 1.0 / keep, dtype=x.dtype)
        return x * mask, mask

    def backward(self, grad, cache, grads_out):
        return grad if cache is None else grad * cache


class Flatten:
    kind = "flatten"

    def forward(self, x):
        b = x.shape[0]
        return x.reshape(b, -1), x.shape

    def backward(self, grad, cache, grads_out):
        return grad.reshape(cache)


SGEMM_MIN_ROWS = 4  # from here one sgemm; from 2 rows to here, blocks of W
DENSE_BLOCK_BYTES = 768 << 10  # weights per block: 192 rows of a 1024-wide W


class Dense:
    kind = "dense"

    def __init__(self, in_features: int, out_features: int):
        self.in_features = in_features
        self.out_features = out_features
        self.weights = np.zeros((in_features, out_features), dtype=np.float32)
        self.biases = np.zeros(out_features, dtype=np.float32)

    @property
    def num_params(self) -> int:
        return self.weights.size + self.biases.size

    def forward(self, x):
        """x @ W + b.  2 to SGEMM_MIN_ROWS - 1 rows are summed over row
        blocks of DENSE_BLOCK_BYTES of W, in order, so W is read once: on
        dense0 two rows took 0.50 ms, against 0.86 ms as two gemvs and 1.24
        ms as one sgemm (table in the module docstring).  One row stays
        x @ W, which numpy runs as gemv."""
        if 1 < x.shape[0] < SGEMM_MIN_ROWS:
            w = self.weights
            k = DENSE_BLOCK_BYTES // w[0].nbytes  # rows per block
            y = x[:, :k] @ w[:k]
            for i in range(k, len(w), k):
                y += x[:, i:i + k] @ w[i:i + k]
            return y + self.biases, x
        return x @ self.weights + self.biases, x

    def backward(self, grad, cache, grads_out):
        grads_out["weights"] = (cache, grad)
        grads_out["biases"] = grad.sum(axis=0)
        return grad @ self.weights.T

    def apply_update(self, grads: dict, lr: float):
        _gradient_step(self, grads, lr)


def _softmax(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax probabilities and log-probabilities of logits."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    return e / total, shifted - np.log(total)


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
        return sum(l.num_params for l in self.trainable())

    def trainable(self) -> list:
        """The Conv1D and Dense layers, in network order."""
        return [l for l in self.layers if isinstance(l, (Conv1D, Dense))]

    @property
    def compute_dtype(self) -> np.dtype:
        """The dtype the network computes in, its first trainable layer's
        weights'."""
        return self.trainable()[0].weights.dtype


ARCHITECTURES = {
    "CA01": {"kernels": (10, 10, 5, 5), "dense": (1024,)},
    "CA02": {"kernels": (7, 7, 3, 3), "dense": (1024,)},
    "CA03": {"kernels": (7, 7, 3, 3), "dense": (1024, 512)},
}
CONV_CHANNELS = (32, 32, 64, 64)

NUM_CLASSES = 2

OPTIMIZERS = ("minibatch_gd", "sgd")


def default_optimizer(arch_id: str) -> str:
    """CA01/CA02 train with mini-batch gradient descent, CA03 with SGD."""
    return "sgd" if arch_id == "CA03" else "minibatch_gd"


def default_learning_rate(optimizer: str) -> float:
    """0.01 for mini-batch gradient descent, 0.005 for SGD.

    An SGD step follows one sample's gradient, not a batch mean, and at
    0.01 it overshoots on samples whose activations have a large norm:
    CA03 then diverged on 4 of 61 seeds of the synthetic benchmark corpus
    (48 utterances, 10 handcrafted channels), and on none of 71 at 0.005.
    Computing in float32 left both counts as they were.
    """
    return 0.005 if optimizer == "sgd" else 0.01


def build(arch_id: str, input_frames: int = 187, in_channels: int = 10,
          seed: int = 0, conv_dropout: float = 0.25,
          dense_dropout: float = 0.5) -> Model:
    """Construct a CA01/CA02/CA03 model with He-uniform initialization.

    The final classifier layer starts at zero so a fresh network outputs
    the uniform distribution for every input.  Raises ValueError (or its
    subclass ShapeMismatchError) for arguments no network can take.
    """
    model = _network(arch_id, input_frames, in_channels, seed,
                     conv_dropout, dense_dropout)
    rng = np.random.default_rng(seed)
    for layer in model.trainable()[:-1]:  # the classifier stays zero
        limit = np.sqrt(6.0 / layer.weights[..., 0].size)  # over the fan-in
        flat = layer.weights.reshape(-1)  # drawn in parts: no float64 copy of all
        for part in np.array_split(flat, flat.size // 65536 + 1):
            part[...] = rng.uniform(-limit, limit, size=part.size)
    return model


def _network(arch_id: str, input_frames: int, in_channels: int, seed: int,
             conv_dropout: float, dense_dropout: float) -> Model:
    """The model `build` makes, with every parameter still zero.

    A conv of kernel k maps t frames to t - k + 1 and a pool maps t to
    t // 2; the first Dense takes the t x CONV_CHANNELS[-1] values left.
    `build` and `load` write their parameters into these arrays in place.
    numpy takes a large zero array as fresh pages that cost memory only
    once written, so a corrupt header that asks for a huge network costs
    none before `load` finds the file too short for it.
    """
    if arch_id not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch_id!r}; "
                         f"choose from {sorted(ARCHITECTURES)}")
    if in_channels < 1:
        raise ValueError(f"in_channels must be >= 1, got {in_channels}")
    spec = ARCHITECTURES[arch_id]
    layers: list = []
    chans = (in_channels,) + CONV_CHANNELS
    t = input_frames
    for i, kernel_len in enumerate(spec["kernels"]):
        if t < kernel_len:
            raise ShapeMismatchError(
                f"conv kernel {kernel_len} longer than input length {t}")
        t -= kernel_len - 1
        layers += [Conv1D(kernel_len, chans[i], chans[i + 1]), ReLU()]
        if i % 2:  # after each pair of conv layers
            t //= 2
            if t < 1:
                raise ShapeMismatchError("maxpool output would be empty")
            layers += [MaxPool(), Dropout(conv_dropout)]
    layers.append(Flatten())

    units = t * CONV_CHANNELS[-1]
    for width in spec["dense"]:
        layers.append(Dense(units, width))
        layers.append(ReLU())
        layers.append(Dropout(dense_dropout))
        units = width
    layers.append(Dense(units, NUM_CLASSES))

    return Model(layers=layers, arch_id=arch_id, input_frames=input_frames,
                 in_channels=in_channels, rng_seed=seed)


# ---------------------------------------------------------------------------
# Forward / loss / training

def _in_compute_dtype(model: Model, x) -> np.ndarray:
    """`x` cast to the model's compute dtype; no copy when it is in that
    dtype already."""
    with np.errstate(over="ignore"):  # forward_batch reports the overflow
        return np.asarray(x, dtype=model.compute_dtype)


def forward_batch(model: Model, x: np.ndarray,
                  rng: np.random.Generator | None = None,
                  want_caches: bool = False, logits: bool = False):
    """(B, frames, channels) -> (B, 2) activations; caches when training.

    Dropout is on exactly when an `rng` is given, as in training.  The
    input is cast to the parameters' dtype and the layers compute in
    it.  With `logits` the output is the last layer's, before the softmax;
    otherwise the softmax is taken in float64.  Raises ValueError when the
    cast input holds a non-finite value (in float32, any value past about
    3.4e38).
    """
    x = _in_compute_dtype(model, x)
    if x.ndim != 3 or x.shape[1:] != (model.input_frames, model.in_channels):
        raise ShapeMismatchError(
            f"input shape {x.shape[1:]} does not match model input "
            f"({model.input_frames}, {model.in_channels})")
    bad = x.size - np.count_nonzero(np.isfinite(x))
    if bad:
        raise ValueError(f"input holds {bad} non-finite value(s) "
                         f"as {x.dtype.name}")
    caches = []
    for layer in model.layers:
        if isinstance(layer, Dropout):
            x, cache = layer.forward(x, rng)
        elif isinstance(layer, ReLU):
            x, cache = layer.forward(x, want_cache=want_caches)
        else:
            x, cache = layer.forward(x)
        if want_caches:
            caches.append(cache)
    if not logits:
        x = _softmax(x.astype(np.float64))[0]
    return (x, caches) if want_caches else x


def _as_target_matrix(targets, batch: int) -> np.ndarray:
    """One-hot rows of `batch` class indices; the comparison that builds
    them is the check, as a row that equals no class index is all False."""
    t = np.asarray(targets)
    if t.shape == (batch,):
        hot = t[:, None] == np.arange(NUM_CLASSES)
        if hot.any(axis=1).all():
            return hot.astype(np.float64)
    raise ValueError(f"targets must be {batch} class indices "
                     f"in [0, {NUM_CLASSES})")


def cross_entropy(logits: np.ndarray, targets) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax(logits) and its gradient (p - y) / B.

    Targets are class indices, one per row of `logits`.  Taken as
    logsumexp(z) - z_y in float64, without clamping, so the loss and the
    gradient stay exact when the softmax saturates; the gradient is
    returned in the logits' dtype.
    """
    batch = logits.shape[0]
    y = _as_target_matrix(targets, batch)
    p, log_p = _softmax(logits.astype(np.float64))
    grad = ((p - y) / batch).astype(logits.dtype)
    return float(-(y * log_p).sum() / batch), grad


def _loss_and_grads(model: Model, inputs: np.ndarray, targets,
                    rng: np.random.Generator) -> tuple[float, list]:
    """Training loss and, in network order, (index, layer, gradients) of
    every trainable layer; the first, a Conv1D, computes no input gradient."""
    logits, caches = forward_batch(model, inputs, rng=rng, want_caches=True,
                                   logits=True)
    loss, grad = cross_entropy(logits, targets)
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"loss diverged (loss={loss})")
    found = []
    for i, layer in reversed(list(enumerate(model.layers))):
        grads: dict = {}
        if i:
            grad = layer.backward(grad, caches[i], grads)
        else:
            layer.backward(grad, caches[i], grads, input_grad=False)
        if grads:
            found.append((i, layer, grads))
    return loss, found[::-1]


def train_step(model: Model, inputs: np.ndarray, targets,
               learning_rate: float, rng: np.random.Generator) -> float:
    """One forward/backward/update pass; returns the pre-update mean loss.

    Raises TrainingDivergedError, naming the layer, when the loss is not
    finite or when the update could make a parameter non-finite (a
    non-finite gradient, or a weight bound past half the dtype's range,
    see `_gradient_step`).  Every layer checks and stages its update
    before any is written; only then are the weights written in place, as
    one BLAS call per layer, and the new biases bound.  A step that raises
    leaves the model exactly as it was before the step.  It raises
    RuntimeError before computing anything when numpy's BLAS does not
    export the routines the commit calls (`_blas_routines`).
    """
    inputs = _in_compute_dtype(model, inputs)
    if inputs.ndim != 3 or inputs.shape[0] == 0:
        raise ValueError("batch must be (B, frames, channels) with B >= 1")
    _blas_routines(inputs.dtype)  # before the step computes anything
    # an overflow shows up as a non-finite loss or update, which raises
    # TrainingDivergedError
    with np.errstate(over="ignore", invalid="ignore"):
        loss, updates = _loss_and_grads(model, inputs, targets, rng)
    for i, layer, grads in updates:
        try:
            layer.apply_update(grads, learning_rate)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(
                f"layer {i} ({layer.kind}): {exc} (loss={loss})") from None
    for _, layer, grads in updates:  # the one commit point
        _commit(layer, grads, learning_rate)
    return loss


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "minibatch_gd"  # one of OPTIMIZERS
    batch_size: int | None = None  # None: 1 for sgd, 32 for minibatch_gd
    learning_rate: float | None = None  # None: default_learning_rate(optimizer)
    epochs: int = 20
    conv_dropout: float = 0.25
    dense_dropout: float = 0.5
    seed: int = 0
    early_stop_patience: int = 0  # off; an ExperimentConfig with a val split picks 5

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate is None:
            object.__setattr__(self, "learning_rate",
                               default_learning_rate(self.optimizer))
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, "
                             f"got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size is None:
            object.__setattr__(self, "batch_size",
                               1 if self.optimizer == "sgd" else 32)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.optimizer == "sgd" and self.batch_size != 1:
            raise ValueError(f"sgd steps on one sample; batch_size must be 1, "
                             f"got {self.batch_size}")
        if self.early_stop_patience < 0:
            raise ValueError(f"early_stop_patience must be >= 0, "
                             f"got {self.early_stop_patience}")
        for name in ("conv_dropout", "dense_dropout"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:  # checked again by Dropout, at build
                raise ValueError(f"{name}: dropout rate must be in [0, 1), "
                                 f"got {rate}")


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
    inputs = _in_compute_dtype(model, inputs)  # once, not per batch
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
            val_loss = cross_entropy(forward_batch(model, val_inputs, logits=True),
                                     val_targets)[0]
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
# Serialization, little-endian.  Version 3: magic "LCT1", version <H; the
# arguments of `build`: arch id, seed <Q, input_frames <I, in_channels <I,
# conv and dense dropout rates <d; the channel count <I, then per channel
# its id and its z-score mean and std as <f8, so inference normalises
# bit-exactly as training did; then the float32 weights and biases of every
# Conv1D and Dense in network order, shaped as `build` shapes them.  Text
# is a <B length plus UTF-8.  Versions 1 and 2 are rejected.

_MAGIC = b"LCT1"
_VERSION = 3


def _text(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack("<B", len(raw)) + raw


def _param_shapes(model: Model) -> list[tuple]:
    return [p.shape for l in model.trainable() for p in (l.weights, l.biases)]


def save(model: Model, norm: NormStats, path: str | Path) -> None:
    """Write the model with the channels and normalisation it was trained on;
    raises ValueError, writing nothing, for a model `load` would refuse."""
    if not (len(norm.channel_ids) == len(norm.mean) == len(norm.std)
            == model.in_channels):
        raise ValueError(f"normalisation has {len(norm.channel_ids)} channels "
                         f"but the model takes {model.in_channels}")
    # build puts the conv dropout first and the dense dropout last
    rates = [l.rate for l in model.layers if isinstance(l, Dropout)]
    if not rates or _param_shapes(model) != _param_shapes(_network(
            model.arch_id, model.input_frames, model.in_channels,
            model.rng_seed, rates[0], rates[-1])):
        raise ValueError(f"model is not the {model.arch_id} network build "
                         f"makes on ({model.input_frames}, "
                         f"{model.in_channels})")
    out = bytearray(_MAGIC + struct.pack("<H", _VERSION) + _text(model.arch_id))
    out += struct.pack("<QIIddI", model.rng_seed, model.input_frames,
                       model.in_channels, rates[0], rates[-1],
                       len(norm.channel_ids))
    for channel_id, mean, std in zip(norm.channel_ids, norm.mean, norm.std):
        out += _text(channel_id) + struct.pack("<dd", mean, std)
    for layer in model.trainable():
        out += layer.weights.astype("<f4").tobytes()
        out += layer.biases.astype("<f4").tobytes()
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
        return np.frombuffer(self.take(4 * count), dtype="<f4")

    def text(self) -> str:
        raw = self.take(self.unpack("<B")[0])
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ModelFileError(f"model file holds invalid UTF-8 {raw!r}") from None


def _read_norm(r: _Reader, in_channels: int) -> NormStats:
    (count,) = r.unpack("<I")
    if count != in_channels:
        raise ModelFileError(f"model file lists {count} channels for an "
                             f"input of {in_channels}")
    ids: list[str] = []
    stats = []
    for _ in range(count):
        channel_id = r.text()
        if channel_id not in ALL_IDS or channel_id in ids:
            raise ModelFileError(f"unknown or repeated channel id "
                                 f"{channel_id!r} in model file")
        ids.append(channel_id)
        stats.append(r.unpack("<dd"))
    mean, std = np.array(stats, dtype=np.float64).reshape(count, 2).T.copy()
    if not (np.isfinite(stats).all() and (std > 0.0).all()):
        raise ModelFileError("model file holds a non-finite mean or a "
                             "non-finite or non-positive std")
    return NormStats(mean=mean, std=std, channel_ids=tuple(ids))


def load(path: str | Path) -> tuple[Model, NormStats]:
    """Read a version-3 model file: the model and its normalisation.

    The header's `build` arguments make the network, and every Conv1D and
    Dense takes exactly as many floats from the file as it holds.  Raises
    ModelFileError for a header `build` rejects, a file whose size does not
    fit the network, and a non-finite parameter.
    """
    r = _Reader(Path(path).read_bytes())
    if r.take(4) != _MAGIC:
        raise ModelFileError("not a model file (bad magic)")
    (version,) = r.unpack("<H")
    if version in (1, 2):
        raise ModelFileError(
            f"model file version {version} predates the version-{_VERSION} "
            f"format; retrain the model to write version {_VERSION}")
    if version != _VERSION:
        raise ModelFileError(f"unsupported model file version {version}")
    arch_id = r.text()
    seed, input_frames, in_channels, conv_dropout, dense_dropout = \
        r.unpack("<QIIdd")
    norm = _read_norm(r, in_channels)
    try:
        model = _network(arch_id, input_frames, in_channels, seed,
                         conv_dropout, dense_dropout)
    except (ValueError, MemoryError) as exc:
        raise ModelFileError(f"model file header: {exc}") from None
    have, need = len(r.data) - r.pos, 4 * model.num_params
    if have != need:
        raise ModelFileError(
            f"corrupt or truncated model file: {have} bytes of parameters, "
            f"where {arch_id} on ({input_frames}, {in_channels}) holds {need}")
    for layer in model.trainable():
        for params in (layer.weights, layer.biases):
            params[...] = r.floats(params.size).reshape(params.shape)
            if not np.isfinite(params).all():
                raise ModelFileError("model file holds a non-finite parameter")
    return model, norm
