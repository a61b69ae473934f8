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
