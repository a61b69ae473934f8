"""`tests/fingerprint.py` gives the same file for the same program, and its
diff names what moved.

No digest is pinned here: BLAS rounds differently on other CPUs.
"""

import copy
import dataclasses
import json

import pytest

import fingerprint
from lctid import corpus

TINY = fingerprint.gen.Recipe(durations_s=(1.2, 1.4), synth_per_duration=2,
                              low_f0_voices=4)


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    loads = [dataclasses.replace(fingerprint.workloads.WORKLOADS[name], recipe=TINY,
                                 epochs=1)
             for name in ("extract_sweep", "train_sgd_ca03", "train_batch_ca01")]
    synth = corpus.SynthSpec(num_utterances=4, dur_min_s=0.5, dur_max_s=0.7)
    return [fingerprint.collect(tmp_path_factory.mktemp("fingerprint"), loads,
                                synth, seeds=(0, 7))
            for _ in range(2)]


def test_two_runs_in_one_process_agree(two_runs):
    a, b = two_runs
    assert a == b
    assert fingerprint.diff(a, b) == []
    # one recipe, extracted once per seed; both training settings ran
    assert sorted(a["extraction"]) == ["extract_sweep/seed0", "extract_sweep/seed7"]
    assert sorted(a["training"]) == ["train_batch_ca01", "train_sgd_ca03"]
    assert len(a["wavs"]["synth_corpus/seed7"]) == 4


def test_a_file_diffed_with_itself_is_empty(two_runs, tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(two_runs[0]))
    assert fingerprint.main(["--diff", str(path), str(path)]) == 0
    assert capsys.readouterr().out == ""


def test_the_diff_names_what_moved(two_runs):
    a = two_runs[0]
    b = copy.deepcopy(a)
    utt = next(iter(b["extraction"]["extract_sweep/seed7"].values()))
    utt["channels"]["HNR"] = {"sha256": "0" * 16,
                              "summary": [v + 0.5 for v in utt["channels"]["HNR"]["summary"]]}
    run = b["training"]["train_sgd_ca03"]
    run["layers"]["dense1"]["sha256"] = "0" * 16
    run["losses"]["train_loss"][0] *= 2
    run["report"]["total"] += 1
    del b["wavs"]["synth_corpus/seed0"]
    lines = fingerprint.diff(a, b)
    assert lines[0] == "wavs synth_corpus/seed0: only in A"
    assert lines[1].startswith(
        "extraction extract_sweep/seed7 HNR: 1 of 8 utterances moved, max abs 0.5,")
    assert [line.split(":")[0] for line in lines[2:]] == [
        f"training train_sgd_ca03 {what}"
        for what in ("dense1", "train_loss", "report")]
    assert len(lines) == 5
