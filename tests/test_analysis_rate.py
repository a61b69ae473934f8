"""The analysis rate is `corpus.CANONICAL_RATE_HZ` alone: no function of
the dsp, pitch or feature kernels takes a rate as a parameter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lctid"
RATE_NAMES = {"sample_rate_hz", "sr", "bin_hz"}


def rate_parameters(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
                if arg is not None and arg.arg in RATE_NAMES:
                    found.append(f"{node.name}({arg.arg}) line {node.lineno}")
    return found


def test_detects_a_rate_parameter():
    assert rate_parameters("def f(x, sr):\n    def g(*, bin_hz=1): pass\n") == [
        "f(sr) line 1", "g(bin_hz) line 2"]
    assert rate_parameters("def f(x, srate): pass\n") == []


@pytest.mark.parametrize("module", ["dsp", "pitch", "features"])
def test_no_kernel_takes_a_rate(module):
    assert rate_parameters((SRC / f"{module}.py").read_text(encoding="utf-8")) == []
