"""The benchmark's tracer finds every program function and layer method it
wraps.

`benchmarks/lctbench/tracing.py` skips a target it cannot find without a
word, and the per-layer metrics read from that target then stay at 0.
These tests install the tracer's wrappers and fail on any such skip, so a
rename or a shared layer base class in `lctid` cannot empty those metrics
unnoticed.
"""

import sys
from pathlib import Path

import numpy as np

from lctid import cnn

sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                       / "benchmarks" / "lctbench"))
import tracing  # noqa: E402

TRAINABLE_KINDS = ("conv", "dense")


class RecordingTracer(tracing.Tracer):
    """A tracer that lists every target it would silently skip."""

    def __init__(self):
        super().__init__()
        self.patches = 0
        self.misses: list[str] = []
        self.kinds: set[str] = set()

    def patch_function(self, module, attr, name, *args, **kwargs):
        self.patches += 1
        if getattr(module, attr, None) is None:
            self.misses.append(f"{module.__name__}.{attr}")
        super().patch_function(module, attr, name, *args, **kwargs)

    def patch_method(self, cls, attr, name, *args, **kwargs):
        self.patches += 1
        self.kinds.add(cls.kind)
        needed = attr != "apply_update" or cls.kind in TRAINABLE_KINDS
        if needed and attr not in cls.__dict__:
            self.misses.append(f"{cls.__name__}.{attr}")
        super().patch_method(cls, attr, name, *args, **kwargs)


def test_no_target_is_skipped():
    tracer = RecordingTracer()
    try:
        tracing.install_program_spans(tracer)
    finally:
        tracer.uninstall()
    assert tracer.misses == []
    assert set(TRAINABLE_KINDS) <= tracer.kinds
    assert tracer.patches >= 37


def test_training_step_fills_the_layer_and_loss_spans():
    model = cnn.build("CA03", 40, 3, seed=0)
    x = np.random.default_rng(0).standard_normal((2, 40, 3))
    tracer = tracing.Tracer()
    try:
        tracing.install_program_spans(tracer)
        cnn.train_step(model, x, np.array([0, 1]), 0.01, np.random.default_rng(1))
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert "cnn.cross_entropy" in names
    for layer in ("conv0", "conv3", "dense0", "dense2"):
        for phase in ("fwd", "bwd", "upd"):
            assert f"cnn.{layer}.{phase}" in names
