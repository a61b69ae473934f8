"""Reference max-pool for `cnn.MaxPool`.

This is the general pool `cnn.MaxPool` ran before it pooled pairs only:
`argmax` over each window of `width` frames picks the first maximum, or
the first NaN, and the backward pass puts each gradient back where that
pick was, with +0.0 everywhere else.  Frames past the last whole window
are dropped and get a zero gradient.
"""

import numpy as np


def forward(x, width=2):
    """(b, t, c) -> ((b, t // width, c), cache)."""
    b, t, c = x.shape
    t2 = t // width
    xr = x[:, :t2 * width].reshape(b, t2, width, c)
    idx = xr.argmax(axis=2)
    out = np.take_along_axis(xr, idx[:, :, None, :], axis=2)[:, :, 0, :]
    return out, (idx, (b, t, c))


def backward(grad, cache, width=2):
    idx, (b, t, c) = cache
    t2 = idx.shape[1]
    dxr = np.zeros((b, t2, width, c), dtype=grad.dtype)
    np.put_along_axis(dxr, idx[:, :, None, :], grad[:, :, None, :], axis=2)
    dx = np.zeros((b, t, c), dtype=grad.dtype)
    dx[:, :t2 * width] = dxr.reshape(b, t2 * width, c)
    return dx
