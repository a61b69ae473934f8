"""`tests/ab.py` sums up canned pairs of benchmark records: medians,
quartiles, pair ratios and win counts, with no benchmark run."""

import pytest

import ab

METRICS = ab.benchmark()["end_to_end"]


def record(values: dict) -> dict:
    """The last line `benchmarks/run.py` prints, with these metric values."""
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()}}


def pair(base: float, change: float) -> dict:
    return {"base": record({m["name"]: base for m in METRICS}),
            "change": record({m["name"]: change for m in METRICS})}


def test_metric_names_are_benchmark_jsons():
    names = [m["name"] for m in METRICS]
    assert "throughput" in names and len(set(names)) == len(names)
    out = ab.aggregate([pair(1.0, 2.0)], METRICS)
    assert list(out["metrics"]) == names
    for drop in names:
        short = pair(1.0, 2.0)
        del short["change"]["metrics"][drop]
        with pytest.raises(ValueError, match="BENCHMARK.json"):
            ab.aggregate([short], METRICS)
    extra = pair(1.0, 2.0)
    extra["base"]["metrics"]["error_rate"] = {"value": 0.0, "unit": "ratio"}
    with pytest.raises(ValueError, match="base record"):
        ab.aggregate([extra], METRICS)


def test_medians_quartiles_ratios_and_wins():
    # base 10, 20, 30, 40, 50; change 12, 18, 33, 40, 45
    pairs = [pair(b, c) for b, c in ((10, 12), (20, 18), (30, 33), (40, 40), (50, 45))]
    pairs[2]["change"]["failed"] = 1
    out = ab.aggregate(pairs, METRICS)
    thr, p50 = out["metrics"]["throughput"], out["metrics"]["utt_ms_p50"]
    assert thr["base"] == {"values": [10, 20, 30, 40, 50], "median": 30,
                           "q1": 15.0, "q3": 45.0}
    assert thr["change"]["values"] == [12, 18, 33, 40, 45]
    assert thr["change"]["median"] == 33
    assert (thr["change"]["q1"], thr["change"]["q3"]) == (15.0, 42.5)
    # ratios 1.2, 0.9, 1.1, 1.0, 0.9
    assert thr["median_pair_ratio"] == pytest.approx(1.0)
    # higher is better: 12 > 10 and 33 > 30; a tie is no win
    assert thr["change_wins"] == 2
    # lower is better: 18 < 20 and 45 < 50
    assert p50["change_wins"] == 2
    assert (thr["better"], p50["better"]) == ("higher", "lower")
    assert out["operations"] == {"base": {"attempted": 50, "failed": 0},
                                 "change": {"attempted": 50, "failed": 1}}


def test_one_pair_has_flat_quartiles():
    out = ab.aggregate([pair(4.0, 2.0)], METRICS)
    s = out["metrics"]["setup_s"]
    assert s["base"] == {"values": [4.0], "median": 4.0, "q1": 4.0, "q3": 4.0}
    assert s["median_pair_ratio"] == 0.5
    assert s["change_wins"] == 1
    assert out["metrics"]["throughput"]["change_wins"] == 0


def probed(p: dict, base: tuple[float, float], change: tuple[float, float]) -> dict:
    """`p` with host probe times (python_s, gemm_s) on each side."""
    for side, (py, gemm) in (("base", base), ("change", change)):
        p[side]["probe"] = {"python_s": py, "gemm_s": gemm}
    return p


def test_probe_times_are_recorded_per_side():
    # pair 1: change side 2x value on a host 2x slower; pair 2: same value, same host
    pairs = [probed(pair(1.0, 2.0), (0.01, 0.01), (0.03, 0.01)),
             probed(pair(3.0, 3.0), (0.02, 0.02), (0.02, 0.02))]
    out = ab.aggregate(pairs, METRICS)
    by_unit = {m["unit"]: out["metrics"][m["name"]] for m in METRICS}
    # the raw pair ratio: the probes record the host, they correct nothing
    assert by_unit["s"]["median_pair_ratio"] == pytest.approx(1.5)
    assert out["probe"]["base"]["python_s"]["values"] == [0.01, 0.02]
    gemm = out["probe"]["change"]["gemm_s"]
    assert (gemm["values"], gemm["median"]) == ([0.01, 0.02], pytest.approx(0.015))
    assert out["probe"]["median_pair_ratio"] == pytest.approx(1.5)


def test_unprobed_pairs_get_no_normalised_ratio():
    half = probed(pair(1.0, 2.0), (0.01, 0.01), (0.01, 0.01))
    for pairs in ([pair(1.0, 2.0)], [half, pair(1.0, 2.0)]):
        out = ab.aggregate(pairs, METRICS)
        assert "probe" not in out
        assert not any("probe_normalised_pair_ratio" in m
                       for m in out["metrics"].values())


def test_host_record_names_the_cpu():
    model = ab.cpu_model()
    assert model is None or (isinstance(model, str) and model)
    times = ab.probe_host()
    assert sorted(times) == sorted(ab.PROBE_KEYS)
    assert all(t > 0 for t in times.values())
