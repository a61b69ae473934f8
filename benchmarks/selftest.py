#!/usr/bin/env python3
"""Self-tests of the benchmark harness (not part of the program's test suite).

    python3 benchmarks/selftest.py

The file name keeps pytest from collecting it with the program's tests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from lctid import corpus, features, pitch  # noqa: E402
from lctbench import gen, workloads  # noqa: E402
from lctbench.tracing import Span, Tracer, install_program_spans  # noqa: E402

SCRATCH = ROOT / ".bench_out" / "selftest"
TINY = gen.Recipe(durations_s=(0.5, 0.6), synth_per_duration=1, low_f0_voices=2)


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


class GeneratorTest(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_same_seed_gives_identical_bytes(self):
        a = _files(gen.generate(TINY, 5, SCRATCH / "a").parent)
        b = _files(gen.generate(TINY, 5, SCRATCH / "b").parent)
        self.assertEqual(len(a), 5)  # 4 WAVs and the manifest
        durations = sorted(r.duration_s for r in corpus.load_manifest(
            SCRATCH / "a" / "manifest.tsv").records)
        self.assertEqual(durations, [0.5, 0.5, 0.6, 0.6])
        self.assertEqual(a, b)

    def test_other_seed_gives_other_audio(self):
        a = _files(gen.generate(TINY, 5, SCRATCH / "a").parent)
        c = _files(gen.generate(TINY, 6, SCRATCH / "c").parent)
        self.assertEqual(a.keys() - {k for k in a if k.startswith("low/")},
                         c.keys() - {k for k in c if k.startswith("low/")})
        self.assertNotEqual(a["synth0/lt_0000.wav"], c["synth0/lt_0000.wav"])

    def test_low_f0_voices_cover_the_range(self):
        recipe = gen.Recipe(durations_s=(0.5,), synth_per_duration=0, low_f0_voices=4)
        manifest = corpus.load_manifest(gen.generate(recipe, 1, SCRATCH / "low"))
        f0s = sorted(int(r.id.split("_")[-1][:-2]) for r in manifest.records)
        self.assertTrue(90 <= f0s[0] < 118 and 172 <= f0s[-1] < 200, f0s)


class ChecksTest(unittest.TestCase):
    def test_nan_matrix_counts_as_failure(self):
        ids = features.resolve_featureset("handcrafted")
        values = np.zeros((len(ids), 50))
        values[3, 7] = np.nan
        outcomes = workloads.Outcomes()
        outcomes.record(workloads.check_matrix(
            features.FeatureMatrix(values=values, channel_ids=ids), ids, 0.5), "nan")
        self.assertEqual((outcomes.attempted, outcomes.failed), (1, 1))

    def test_nan_from_the_program_fails_the_extraction_loop(self):
        manifest = corpus.load_manifest(gen.generate(TINY, 2, SCRATCH / "nan"))
        original = features.extract_matrix

        def poisoned(*args, **kwargs):
            m = original(*args, **kwargs)
            values = m.values.copy()
            values[0, 0] = np.nan
            return features.FeatureMatrix(values=values, channel_ids=m.channel_ids)

        features.extract_matrix = poisoned
        try:
            outcomes = workloads.Outcomes()
            times, _, _ = workloads.extraction_loop(
                manifest.records, "all", outcomes, np.random.default_rng(0), passes=1)
        finally:
            features.extract_matrix = original
            shutil.rmtree(SCRATCH, ignore_errors=True)
        self.assertEqual(outcomes.failed, len(manifest))
        self.assertEqual(times, [])

    def test_matrix_bounds(self):
        ids = ("F0",)
        ok = features.FeatureMatrix(values=np.ones((1, 51)), channel_ids=ids)
        self.assertIsNone(workloads.check_matrix(ok, ids, 0.5))
        self.assertIsNotNone(workloads.check_matrix(ok, ids, 0.4))
        self.assertIsNotNone(workloads.check_matrix(ok, ("ZCR",), 0.5))
        empty = features.FeatureMatrix(values=np.ones((1, 0)), channel_ids=ids)
        self.assertIsNotNone(workloads.check_matrix(empty, ids, 0.5))

    def test_history_check(self):
        self.assertIsNone(workloads.check_history({"train_loss": [0.7, 0.5]}, 2))
        self.assertIsNotNone(workloads.check_history({"train_loss": [0.7]}, 2))
        self.assertIsNotNone(workloads.check_history({"train_loss": [0.7, float("inf")]}, 2))


class TracingTest(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        t = Tracer()
        t.spans = [Span(0, "a", 0.0, 10.0, -1, None),
                   Span(1, "b", 1.0, 3.0, 0, None),
                   Span(2, "c", 2.0, 4.0, 0, None),   # overlaps b
                   Span(3, "d", 5.0, 6.0, 0, None),
                   Span(4, "e", 5.5, 5.75, 3, None)]
        selfs = t.self_times()
        self.assertAlmostEqual(selfs[0], 10.0 - 3.0 - 1.0)
        self.assertAlmostEqual(selfs[3], 0.75)
        self.assertAlmostEqual(selfs[4], 0.25)
        self_s, calls, _ = t.totals()
        self.assertEqual(calls["a"], 1)
        self.assertAlmostEqual(self_s["b"], 2.0)

    def test_wrapped_calls_nest_and_sum_to_the_outer_duration(self):
        t = Tracer()
        inner = t.wrap(lambda: sum(range(1000)), "inner")
        outer = t.wrap(lambda: [inner() for _ in range(3)], "outer")
        t.tag = "utt1"
        outer()
        by_name = {s.name: s for s in t.spans}
        self.assertEqual([s.parent for s in t.spans if s.name == "inner"],
                         [by_name["outer"].sid] * 3)
        self.assertTrue(all(s.tag == "utt1" for s in t.spans))
        self_s, calls, _ = t.totals()
        duration = by_name["outer"].end - by_name["outer"].start
        self.assertAlmostEqual(self_s["outer"] + self_s["inner"], duration, places=9)
        self.assertEqual(calls["inner"], 3)

    def test_failed_call_is_recorded_and_reraised(self):
        t = Tracer()
        failures = []
        boom = t.wrap(lambda: 1 / 0, "boom",
                      on_error=lambda tr, name, args, exc: failures.append(name))
        with self.assertRaises(ZeroDivisionError):
            boom()
        self.assertEqual([s.name for s in t.spans], ["boom"])
        self.assertEqual(failures, ["boom"])

    def test_wrappers_that_never_fire_report_zero(self):
        original = pitch.track_periods
        t = Tracer()
        install_program_spans(t)
        self.assertIsNot(pitch.track_periods, original)
        t.uninstall()
        self.assertIs(pitch.track_periods, original)
        families = {fam: 0.0 for fam in workloads.FAMILIES}
        overhead = {"throughput": 0.0, "utt_ms_p50": 0.0, "utt_ms_p90": 0.0}
        m = workloads.layer_metrics(t, families, (0.0, 0.0), overhead)
        self.assertEqual(set(m), set(workloads.PER_LAYER))
        self.assertTrue(all(v == 0.0 for v in m.values()), m)


class MetricNamesTest(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_spec_lists_the_harness_metrics(self):
        for key, table in (("end_to_end", workloads.END_TO_END),
                           ("per_layer", workloads.PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"]) for m in self.spec[key]}
            self.assertEqual(listed, table, key)
        self.assertEqual({w["name"]: w["why"] for w in self.spec["workloads"]},
                         {w.name: w.why for w in workloads.WORKLOADS.values()})

    def test_printed_metrics_match_the_spec(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "extract_sweep",
                 "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            units = {m["name"]: m["unit"] for m in self.spec[key]}
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)


if __name__ == "__main__":
    unittest.main()
