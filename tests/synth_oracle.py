"""The per-pulse reference for `corpus._synth_utterance`.

`synth_utterance` is the scalar loop that scheduled a synthetic voice's
glottal pulses before the schedule read its draws as one block: each pulse
draws its shimmer, then its jitter, with one `rng.uniform` call each.
`tests/test_corpus.py` holds the block schedule to it sample for sample and
to the generator state it leaves.  It reuses the module's `_render_pulses`
and class parameters, so it pins the draw order and the pulse schedule only.
"""

import numpy as np

from lctid.corpus import _CLASS_PARAMS, CANONICAL_RATE_HZ, _render_pulses


def synth_utterance(rng: np.random.Generator, dialect: str,
                    dur_s: float) -> np.ndarray:
    (fm_lo, fm_hi), fm_depth, (am_lo, am_hi), am_depth, jit, shim, silences = \
        _CLASS_PARAMS[dialect]
    n = int(round(dur_s * CANONICAL_RATE_HZ))
    f0_base = rng.uniform(230.0, 300.0)
    fm_rate = rng.uniform(fm_lo, fm_hi)
    am_rate = rng.uniform(am_lo, am_hi)
    phi_f = rng.uniform(0.0, 2 * np.pi)
    phi_a = rng.uniform(0.0, 2 * np.pi)
    t = rng.uniform(0.0, 1.0 / f0_base)
    times, amps = [], []
    while t < dur_s:
        f_inst = f0_base * (1.0 + fm_depth * np.sin(2 * np.pi * fm_rate * t + phi_f))
        amp = 0.35 * (1.0 + am_depth * np.sin(2 * np.pi * am_rate * t + phi_a))
        amp *= 1.0 + shim * rng.uniform(-1.0, 1.0)
        times.append(t)
        amps.append(amp)
        t += (1.0 / f_inst) * (1.0 + jit * rng.uniform(-1.0, 1.0))
    x = _render_pulses(n, np.array(times), np.array(amps))
    if silences:
        for _ in range(max(1, int(round(dur_s * 1.2)))):
            gap = int(rng.uniform(0.05, 0.10) * CANONICAL_RATE_HZ)
            start = int(rng.uniform(0.1, 0.85) * n)
            x[start:start + gap] = 0.0
    x += 0.002 * rng.standard_normal(n)
    peak = np.max(np.abs(x))
    if peak > 0:
        x *= 0.8 / peak
    return x
