"""Central-difference gradient check for `cnn`'s training gradient.

`grad_check` compares the gradients that `cnn.train_step` applies with
finite differences of the loss, on a float64 copy of the model with
dropout off.  It calls `cnn._loss_and_grads` through the module, so a
test that replaces that attribute sees the check's backward pass too.
"""

import copy

import numpy as np

from lctid import cnn


def float64_copy(model: cnn.Model) -> cnn.Model:
    """A copy with float64 parameters and dropout off."""
    work = copy.deepcopy(model)
    for layer in work.layers:
        if isinstance(layer, (cnn.Conv1D, cnn.Dense)):
            layer.weights = layer.weights.astype(np.float64)
            layer.biases = layer.biases.astype(np.float64)
        elif isinstance(layer, cnn.Dropout):
            layer.rate = 0.0
    return work


def grad_check(model: cnn.Model, inputs: np.ndarray, targets,
               epsilon: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Checks the gradients `train_step` applies to the batch `inputs`
    (batch, frames, channels) with `targets` (class indices), including
    their mean over the batch; intended for small models (<= a few
    thousand parameters).
    """
    work = float64_copy(model)
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets)

    _, updates = cnn._loss_and_grads(work, x, y, np.random.default_rng(0))
    analytic = []
    for _, layer, grads in updates:
        xf, gf = cnn._weight_factors(layer, grads)
        analytic += [(layer.weights, xf.T @ gf),
                     (layer.biases, grads["biases"])]

    def loss_at() -> float:
        z = cnn.forward_batch(work, x, rng=np.random.default_rng(0), logits=True)
        return cnn.cross_entropy(z, y)[0]

    worst = 0.0
    for params, g_analytic in analytic:
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
