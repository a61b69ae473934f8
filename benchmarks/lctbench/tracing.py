"""Span tracing installed at run time around the program's public functions.

Nothing here edits the program: `install_program_spans` swaps module
attributes and class methods of `lctid` for recording wrappers and
`Tracer.uninstall` puts the originals back.  A span holds a name, start,
end, parent span and the tag (utterance id or training step) current when
it opened.  Spans stay in memory until the run writes them out.

Self time of a span is its duration minus the part of it its child spans
cover.  A wrapper that never fires leaves its metrics at 0.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    tag: str | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.tag: str | None = None
        self._stack: list[int] = []
        self._next = 0
        self._undo: list[Callable[[], None]] = []
        self.layer_names: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def wrap(self, fn: Callable, name: str | Callable,
             on_result: Callable | None = None,
             on_error: Callable | None = None,
             on_call: Callable | None = None) -> Callable:
        """`fn` wrapped in a span; `name` may be a function of the arguments.

        Hooks get (tracer, args) before the call, (tracer, name, args,
        result) after it and (tracer, name, args, exception) on a raise.
        """
        tracer = self

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args)
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            tag = tracer.tag
            start = time.perf_counter()
            error = None
            try:
                return_value = fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                span_name = name(args) if callable(name) else name
                tracer.spans.append(Span(sid, span_name, start, end, parent, tag))
                if error is not None and on_error is not None:
                    on_error(tracer, span_name, args, error)
            if on_result is not None:
                on_result(tracer, span_name, args, return_value)
            return return_value

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def patch_function(self, module, attr: str, name: str,
                       on_result: Callable | None = None,
                       on_error: Callable | None = None,
                       on_call: Callable | None = None) -> None:
        """Wrap `module.attr` and every `lctid` module global bound to it.

        Modules that did `from .x import f` hold their own reference, so
        those are replaced too.  A missing attribute is skipped.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            return
        wrapped = self.wrap(orig, name, on_result, on_error, on_call)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lctid" or mod_name.startswith("lctid.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append(lambda m=mod, k=key, v=orig: setattr(m, k, v))

    def patch_method(self, cls, attr: str, name: str | Callable,
                     on_result: Callable | None = None) -> None:
        orig = cls.__dict__.get(attr)
        if orig is None:
            return
        setattr(cls, attr, self.wrap(orig, name, on_result))
        self._undo.append(lambda: setattr(cls, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent].append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(s.sid, ())):
                lo, hi = max(lo, s.start), min(hi, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[s.sid] = (s.end - s.start) - covered
        return out

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, list[float]]]:
        """Per span name: summed self seconds, call count, durations."""
        selfs = self.self_times()
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        durations: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            self_s[s.name] += selfs[s.sid]
            calls[s.name] += 1
            durations[s.name].append(s.end - s.start)
        return self_s, calls, durations

    def write(self, path: Path) -> None:
        """All spans as JSON lines, in the order they opened."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans):
                fh.write(json.dumps(s._asdict()) + "\n")


# ---------------------------------------------------------------------------
# The program's layer boundaries

def _count_rows(key: str):
    def hook(tracer, _name, _args, result):
        arr = result[0] if isinstance(result, tuple) else result
        tracer.counts[key] += int(np.shape(arr)[0]) if np.ndim(arr) else 1
    return hook


def _track_failure(tracer, name, _args, _exc):
    tracer.counts[name + ".failed"] += 1


def _split_pad(tracer, _name, _args, segments):
    for seg in segments:
        pad = getattr(seg, "pad_frames", 0)
        frames = np.shape(getattr(seg, "matrix", np.zeros((0, 0))))[-1]
        tracer.counts["segmenter.pad_frames"] += pad
        tracer.counts["segmenter.frames"] += frames


def _tag_utterance(tracer, args):
    tracer.tag = getattr(args[0], "id", tracer.tag) if args else tracer.tag


def _tag_step(tracer, _args):
    tracer.tag = f"step{int(tracer.counts['cnn.steps'])}"
    tracer.counts["cnn.steps"] += 1


def _register_layers(tracer, args):
    """Name the model's trainable layers conv0.., dense0.. in network order."""
    seen: dict[str, int] = defaultdict(int)
    for layer in getattr(args[0] if args else None, "layers", ()):
        kind = getattr(layer, "kind", "")
        if kind in ("conv", "dense"):
            tracer.layer_names[layer] = f"{kind}{seen[kind]}"
            seen[kind] += 1
        else:
            tracer.layer_names[layer] = "other"


def _layer_flops(layer, phase: str, arr) -> float:
    """Multiply-adds x 2 of one layer call, from its shapes."""
    kind = getattr(layer, "kind", "")
    if phase == "upd":
        return 2.0 * float(getattr(layer, "num_params", 0))
    mult = 2.0 if phase == "fwd" else 4.0  # backward: input and weight gradients
    shape = np.shape(arr)
    if kind == "conv":
        k, cin, cout = layer.kernel_len, layer.in_channels, layer.out_channels
        b, t = shape[0], shape[1]
        t_out = t - k + 1 if phase == "fwd" else t
        return mult * b * t_out * k * cin * cout
    if kind == "dense":
        return mult * shape[0] * layer.in_features * layer.out_features
    return 0.0


def install_program_spans(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from lctid import cnn, corpus, dsp, experiments, features, pitch, segmenter

    tracer.patch_function(corpus, "load_audio", "corpus.load_audio", on_call=_tag_utterance)
    tracer.patch_function(corpus, "read_wav", "corpus.read_wav")
    tracer.patch_function(dsp, "frame_signal", "dsp.frame_signal")
    tracer.patch_function(dsp, "magnitude_spectra", "dsp.magnitude_spectra",
                          on_result=_count_rows("dsp.magnitude_spectra.rows"))
    tracer.patch_function(pitch, "shs_batch", "pitch.shs_batch",
                          on_result=_count_rows("pitch.shs_batch.frames"))
    tracer.patch_function(pitch, "track_periods", "pitch.track_periods",
                          on_error=_track_failure)
    tracer.patch_function(features, "hnr", "features.hnr")
    for attr in ("jitter", "jitter_derivative", "shimmer"):
        tracer.patch_function(features, attr, "features.period_stats")
    tracer.patch_function(features, "extract_matrix", "features.extract_matrix")
    tracer.patch_function(features, "fit_norm", "features.fit_norm")
    tracer.patch_function(features, "apply_norm", "features.apply_norm")
    tracer.patch_function(segmenter, "split", "segmenter.split", on_result=_split_pad)
    tracer.patch_function(segmenter, "aggregate", "segmenter.aggregate")
    tracer.patch_function(cnn, "cross_entropy", "cnn.cross_entropy")
    tracer.patch_function(experiments, "train_and_evaluate",
                          "experiments.train_and_evaluate")

    tracer.patch_function(cnn, "train_step", "cnn.train_step", on_call=_tag_step)
    tracer.patch_function(cnn, "forward_batch", "cnn.forward_batch",
                          on_call=_register_layers)

    def layer_name(phase):
        def name(args):
            layer = args[0]
            return f"cnn.{tracer.layer_names.get(layer, 'other')}.{phase}"
        return name

    def flops(phase):
        def hook(tr, _name, args, _result):
            arr = args[1] if len(args) > 1 else None
            tr.counts["cnn.flops"] += _layer_flops(args[0], phase, arr)
        return hook

    for cls in list(vars(cnn).values()):
        if not (isinstance(cls, type) and isinstance(getattr(cls, "kind", None), str)
                and cls.__module__ == cnn.__name__):
            continue
        tracer.patch_method(cls, "forward", layer_name("fwd"), flops("fwd"))
        tracer.patch_method(cls, "backward", layer_name("bwd"), flops("bwd"))
        tracer.patch_method(cls, "apply_update", layer_name("upd"), flops("upd"))
