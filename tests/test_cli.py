import argparse
import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

import numpy as np

from lctid import cli, cnn, corpus, experiments, features

SYNTH = ["synth", "--out", "corp", "--count", "12", "--dur-min", "0.5",
         "--dur-max", "0.8", "--seed", "3"]


def test_train_then_eval_on_the_model_file_alone(tmp_path, monkeypatch):
    """Relative paths throughout, as a user in the corpus's parent runs it."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(SYNTH) == 0
    # after one epoch the model calls every utterance LT, whatever the input;
    # after four it separates the held-out pair, so a wrong normalisation
    # at eval would change the report
    assert cli.main(["train", "--manifest", "corp/manifest.tsv", "--arch", "CA02",
                     "--epochs", "4", "--seed", "0", "--out", "run"]) == 0
    assert sorted(p.name for p in Path("run").iterdir()) == ["model.lct",
                                                             "results.json"]
    trained = json.loads(Path("run/results.json").read_text())
    assert trained["folds"][0]["accuracy"] == 1.0

    manifest = corpus.load_manifest("corp/manifest.tsv")
    _, test_idx = experiments.stratified_holdout(
        [r.dialect for r in manifest.records], 0.2, seed=0)
    held_out = corpus.CorpusManifest(
        records=tuple(manifest.records[i] for i in test_idx))
    corpus.save_manifest(held_out, "held_out.tsv")

    assert cli.main(["eval", "--model", "run/model.lct",
                     "--manifest", "held_out.tsv", "--out", "eval.json"]) == 0
    report = json.loads(Path("eval.json").read_text())
    assert report["total"] == len(test_idx)
    assert report["per_class"] == trained["folds"][0]["per_class"]


def test_eval_takes_no_feature_or_norm_flags(capsys):
    with pytest.raises(SystemExit):
        cli.main(["eval", "--help"])
    usage = capsys.readouterr().out
    assert "--model" in usage
    assert "--features" not in usage and "--norm" not in usage


def test_flag_file_sets_required_flags_and_a_later_flag_wins(tmp_path,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(SYNTH) == 0
    Path("tr.args").write_text("--manifest=corp/manifest.tsv\n--out=run\n"
                               "--arch=CA02\n--epochs=3\n")
    assert cli.main(["train", "@tr.args", "--epochs", "1"]) == 0
    record = json.loads(Path("run/results.json").read_text())
    assert record["manifest"] == "corp/manifest.tsv"
    assert record["config"]["arch_id"] == "CA02"
    assert record["config"]["train"]["epochs"] == 1
    assert len(record["history"]["train_loss"]) == 1


def test_flag_files_keep_spaces_and_may_hold_verbose(tmp_path):
    # --verbose is lctid's own flag, so its file goes before the subcommand
    (tmp_path / "log.args").write_text("--verbose\n")
    (tmp_path / "tr.args").write_text("--manifest=my corp/manifest.tsv\n"
                                      "--out=run\n")
    args = cli.build_parser().parse_args(
        [f"@{tmp_path / 'log.args'}", "train", f"@{tmp_path / 'tr.args'}"])
    assert args.verbose
    assert (args.manifest, args.out) == ("my corp/manifest.tsv", "run")


@pytest.mark.parametrize("line, message", [
    ("--learning-rate=0.1", "unrecognized arguments: --learning-rate=0.1"),
    ("--arch=CA99", "argument --arch: invalid choice: 'CA99'"),
    ("--balanced=-1h", "hours must be finite and >= 0, got '-1h'"),
    ("--balanced=8x", "argument --balanced: cannot parse hours from '8x'"),
    # no flag may be shortened: these are not --epochs and --val-fraction
    ("--epoch=5", "unrecognized arguments: --epoch=5"),
    ("--val=0.1", "unrecognized arguments: --val=0.1"),
], ids=["unknown-flag", "bad-arch", "bad-balanced", "unparsable-balanced",
        "prefix-of-epochs", "prefix-of-val-fraction"])
def test_bad_flag_in_a_file_is_a_usage_error(tmp_path, capsys, line, message):
    # as if typed: exit 2 before the manifest is read
    (tmp_path / "tr.args").write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--manifest", str(tmp_path / "missing.tsv"),
                  "--out", str(tmp_path / "run"), f"@{tmp_path / 'tr.args'}"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--manifest", str(tmp_path / "missing.tsv"),
                  "--out", str(tmp_path / "run"), "--config", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config x" in capsys.readouterr().err


def test_extract_and_plot_reject_other_sample_rates(tmp_path, capsys, caplog):
    # the same 16 kHz check as train and eval; there is no resampler
    wav = tmp_path / "slow.wav"
    corpus.write_wav(wav, corpus.Waveform(np.zeros(8000), 8000))
    corpus.save_manifest(corpus.CorpusManifest(records=(
        corpus.UtteranceRecord("slow", str(wav), "LT"),)), tmp_path / "m.tsv")
    assert cli.main(["extract", "--manifest", str(tmp_path / "m.tsv"),
                     "--out", str(tmp_path / "csv")]) == 1
    assert "sample rate 8000 Hz" in caplog.text
    assert not (tmp_path / "csv" / "slow.csv").exists()
    assert cli.main(["plot", "--wav-a", str(wav), "--wav-b", str(wav),
                     "--feature", "F0", "--out", str(tmp_path / "p.svg")]) == 1
    assert "sample rate 8000 Hz" in capsys.readouterr().err
    assert not (tmp_path / "p.svg").exists()


def test_plot_draws_one_point_per_frame_of_each_wav(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--out", "corp", "--count", "2", "--dur-min", "0.5",
                     "--dur-max", "0.9", "--seed", "1"]) == 0
    wavs = [r.audio_path for r in corpus.load_manifest("corp/manifest.tsv").records]
    frames = [features.extract_matrix(corpus.read_wav(w), ["F0"]).num_frames
              for w in wavs]
    assert frames[0] != frames[1]
    assert cli.main(["plot", "--wav-a", wavs[0], "--wav-b", wavs[1],
                     "--feature", "f0", "--out", "f0.svg"]) == 0

    svg = ElementTree.parse("f0.svg").getroot()
    lines = svg.findall("{http://www.w3.org/2000/svg}polyline")
    assert [len(line.get("points").split()) for line in lines] == frames
    rows = Path("f0.csv").read_text().splitlines()
    assert rows[0] == "utterance,frame,time_s,value"
    assert [sum(r.startswith(f"{tag},") for r in rows[1:])
            for tag in "AB"] == frames
    assert len(rows) == 1 + sum(frames)

    capsys.readouterr()
    assert cli.main(["plot", "--wav-a", wavs[0], "--wav-b", wavs[1],
                     "--feature", "pitch", "--out", "p.svg"]) == 1
    err = capsys.readouterr().err
    assert "unknown feature id 'pitch'; valid ids: " + ", ".join(features.ALL_IDS) in err
    assert not Path("p.svg").exists()


def test_patience_stops_training_early(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(SYNTH) == 0
    assert cli.main(["train", "--manifest", "corp/manifest.tsv", "--arch", "CA02",
                     "--epochs", "40", "--val-fraction", "0.5", "--patience", "1",
                     "--out", "run"]) == 0
    record = json.loads(Path("run/results.json").read_text())
    assert record["config"]["train"]["early_stop_patience"] == 1
    history = record["history"]
    assert len(history["val_loss"]) == len(history["train_loss"]) < 40


@pytest.mark.parametrize("file_line", [None, "--jobs=2"])
def test_jobs_is_a_usage_error(tmp_path, capsys, file_line):
    argv = ["extract", "--manifest", str(tmp_path / "m.tsv"),
            "--out", str(tmp_path / "csv")]
    if file_line is None:
        argv += ["--jobs", "2"]
    else:
        (tmp_path / "ex.args").write_text(file_line + "\n")
        argv.append(f"@{tmp_path / 'ex.args'}")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("edit", ["version 2", "relabelled arch"])
def test_eval_rejects_a_bad_model_file(tmp_path, capsys, edit):
    model = cnn.build("CA02", 40, 3, seed=0)
    path = tmp_path / "model.lct"
    cnn.save(model, features.NormStats(mean=np.zeros(3), std=np.ones(3),
                                       channel_ids=features.ALL_IDS[:3]), path)
    blob = path.read_bytes()
    if edit == "version 2":
        blob = blob[:4] + struct.pack("<H", 2) + blob[6:]
    else:
        blob = blob.replace(b"CA02", b"CA03", 1)
    path.write_bytes(blob)
    assert cli.main(["eval", "--model", str(path),
                     "--manifest", str(tmp_path / "m.tsv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert ("retrain" if edit == "version 2" else "CA03 on (40, 3)") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["nan", "NaNh", "inf", "-inf", "-1h"])
def test_balanced_hours_must_be_finite_and_not_negative(text, capsys):
    with pytest.raises(argparse.ArgumentTypeError, match="finite and >= 0"):
        cli.parse_hours(text)
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--manifest", "m.tsv", "--out", "run",
                  f"--balanced={text}"])
    assert exc.value.code == 2
    assert f"hours must be finite and >= 0, got {text!r}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--test-fraction", "0", "holdout fraction must be in (0, 1), got 0.0"),
    ("--test-fraction", "-3", "holdout fraction must be in (0, 1), got -3.0"),
    ("--val-fraction", "nan", "val_fraction must be in [0, 1), got nan"),
])
def test_bad_split_fraction_exits_1(tmp_path, monkeypatch, capsys, flag, value,
                                    message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(SYNTH) == 0
    assert cli.main(["train", "--manifest", "corp/manifest.tsv", "--out", "run",
                     flag, value]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not Path("run").exists()


@pytest.mark.parametrize("command", [
    ["train"], ["ablate", "--method", "ife"], ["ablate", "--method", "rfe"]])
def test_training_commands_share_input_and_output_flags(command, capsys):
    parser = cli.build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(command[:1] + ["--help"])
    usage = capsys.readouterr().out
    for flag in ("--manifest", "--balanced", "--out", "--seed", "--features"):
        assert f"  {flag} " in usage
    args = parser.parse_args(command + ["--manifest", "m.tsv", "--balanced", "2h",
                                        "--out", "run", "--seed", "5",
                                        "--features", "handcrafted,mfcc"])
    assert (args.manifest, args.balanced, args.out, args.seed, args.features) == (
        "m.tsv", 2.0, "run", 5, "handcrafted,mfcc")


def test_combine_is_gone(tmp_path, capsys):
    # train --features handcrafted,mfcc trains on the union of two sets
    with pytest.raises(SystemExit) as exc:
        cli.main(["combine", "--manifest", str(tmp_path / "missing.tsv"),
                  "--base", "F0", "--extra", "ZCR", "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "invalid choice: 'combine'" in capsys.readouterr().err


def test_synth_takes_no_rate(tmp_path, capsys):
    # every reader rejects any rate but 16 kHz, so synth writes only that
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth", "--out", str(tmp_path / "c"), "--rate", "8000"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rate" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_ablate_results_count_the_evaluations(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(SYNTH) == 0
    assert cli.main(["ablate", "--method", "ife", "--manifest", "corp/manifest.tsv",
                     "--features", "F0,ZCR", "--arch", "CA02", "--epochs", "1",
                     "--seed", "0", "--out", "run"]) == 0
    record = json.loads(Path("run/results_ife.json").read_text())
    assert record["evaluations"] == len(record["ranking"]) == 2


@pytest.mark.parametrize("command, flags, message", [
    (["train"], ["--test-fraction", "0"],
     "holdout fraction must be in (0, 1), got 0.0"),
    (["ablate", "--method", "ife"], ["--test-fraction", "1"],
     "holdout fraction must be in (0, 1), got 1.0"),
    (["ablate", "--method", "rfe"], ["--folds", "1"], "folds must be >= 2, got 1"),
    (["train"], ["--optimizer", "sgd", "--batch-size", "32"],
     "sgd steps on one sample; batch_size must be 1, got 32"),
    (["train"], ["--conv-dropout", "1"],
     "conv_dropout: dropout rate must be in [0, 1), got 1.0"),
    (["ablate", "--method", "ife"], ["--dense-dropout", "-0.5"],
     "dense_dropout: dropout rate must be in [0, 1), got -0.5"),
    (["train"], ["--patience", "3"],
     "patience 3 needs a validation split; set --val-fraction > 0"),
], ids=["train-test-fraction", "ife-test-fraction", "rfe-folds", "sgd-batch",
        "conv-dropout", "dense-dropout", "patience-without-val"])
def test_run_settings_fail_before_the_manifest_is_read(tmp_path, capsys, command,
                                                       flags, message):
    assert cli.main(command + ["--manifest", str(tmp_path / "missing.tsv"),
                               "--out", str(tmp_path / "run")] + flags) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "manifest not found" not in err


@pytest.mark.parametrize("command, flags, message", [
    (["train"], ["--folds", "3"], "unrecognized arguments: --folds 3"),
    (["ablate", "--method", "ife"], ["--folds", "3"],
     "ablate --method ife does not read --folds"),
    (["ablate", "--method", "rfe"], ["--test-fraction", "0.3"],
     "ablate --method rfe does not read --test-fraction"),
], ids=["train-folds", "ife-folds", "rfe-test-fraction"])
def test_split_flags_the_command_does_not_read_are_usage_errors(
        tmp_path, capsys, command, flags, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--manifest", str(tmp_path / "missing.tsv"),
                            "--out", str(tmp_path / "run")] + flags)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "manifest not found" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("arch, optimizer, batch_size", [
    ("CA03", "sgd", 1), ("CA01", "minibatch_gd", 32)])
def test_batch_size_defaults_per_optimizer(arch, optimizer, batch_size):
    args = cli.build_parser().parse_args(
        ["train", "--manifest", "m.tsv", "--out", "run", "--arch", arch])
    train = cli._experiment_config(args).train
    assert (train.optimizer, train.batch_size) == (optimizer, batch_size)


@pytest.mark.parametrize("command", [["train"], ["ablate", "--method", "rfe"]])
def test_help_states_the_defaults_the_config_resolves(command, monkeypatch, capsys):
    # changed defaults: the help must follow them, not restate the old ones
    monkeypatch.setattr(cnn, "default_optimizer",
                        lambda arch: "sgd" if arch == "CA01" else "minibatch_gd")
    monkeypatch.setattr(cnn, "default_learning_rate",
                        lambda optimizer: 0.25 if optimizer == "sgd" else 0.125)
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(command[:1] + ["--help"])
    usage = " ".join(capsys.readouterr().out.split())

    def resolved(**kwargs):
        return experiments.ExperimentConfig(**kwargs).train

    batch = {o: resolved(train={"optimizer": o}).batch_size for o in ("minibatch_gd", "sgd")}
    patience = [resolved(val_fraction=0.2).early_stop_patience,
                resolved().early_stop_patience]
    assert "default: sgd for CA01, minibatch_gd for CA02, minibatch_gd for CA03" in usage
    assert "default: 0.125 for minibatch_gd, 0.25 for sgd" in usage
    assert (f"default: {batch['minibatch_gd']} for minibatch_gd, "
            f"{batch['sgd']} for sgd") in usage
    assert (f"default: {patience[0]} with --val-fraction > 0, "
            f"{patience[1]} without") in usage


@pytest.mark.parametrize("flags, patience", [
    ([], 0), (["--patience", "0"], 0), (["--val-fraction", "0.2"], 5),
    (["--val-fraction", "0.2", "--patience", "2"], 2)])
def test_patience_defaults_per_validation_split(flags, patience):
    args = cli.build_parser().parse_args(
        ["train", "--manifest", "m.tsv", "--out", "run"] + flags)
    assert cli._experiment_config(args).train.early_stop_patience == patience


REQUIRED = ["--manifest", "m.tsv", "--out", "run"]
RUN_COMMANDS = [["train"], ["ablate", "--method", "ife"], ["ablate", "--method", "rfe"]]


@pytest.mark.parametrize("val", [[], ["--val-fraction", "0.2"]], ids=["no-val", "val"])
@pytest.mark.parametrize("arch", [None, "CA01", "CA02", "CA03"])
def test_unset_run_flags_take_the_config_defaults(arch, val):
    # one source: the CLI passes the flags given, the config resolves the rest
    flags = val + (["--arch", arch] if arch else [])
    args = cli.build_parser().parse_args(["train"] + REQUIRED + flags)
    settings = {"val_fraction": 0.2} if val else {}
    if arch:
        settings["arch_id"] = arch
    assert cli._experiment_config(args) == experiments.ExperimentConfig(**settings)


def test_the_split_seed_follows_the_seed():
    args = cli.build_parser().parse_args(["train"] + REQUIRED + ["--seed", "5"])
    config = cli._experiment_config(args)
    assert config == experiments.ExperimentConfig(train={"seed": 5})
    assert (config.train.seed, config.split_seed) == (5, 5)


@pytest.mark.parametrize("command", RUN_COMMANDS, ids=["train", "ife", "rfe"])
def test_no_flag_default_repeats_a_run_setting(command):
    args = cli.build_parser().parse_args(command + REQUIRED)
    settings = {f.name for cls in (cnn.TrainConfig, experiments.ExperimentConfig)
                for f in dataclasses.fields(cls)}
    assert not settings & set(vars(args))


def test_balanced_zero_hours_names_the_hours(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(SYNTH) == 0
    assert cli.main(["train", "--manifest", "corp/manifest.tsv", "--out", "run",
                     "--balanced", "0h"]) == 1
    assert ("error: balanced subset needs > 0 h per class, got 0 h"
            in capsys.readouterr().err)
    assert not Path("run").exists()


def test_one_class_manifest_exits_1_naming_the_missing_class(tmp_path, monkeypatch,
                                                             capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(SYNTH) == 0
    manifest = corpus.load_manifest("corp/manifest.tsv")
    lt_only = tuple(r for r in manifest.records if r.dialect == "LT")
    assert len(lt_only) == 6
    corpus.save_manifest(corpus.CorpusManifest(records=lt_only), "lt.tsv")
    assert cli.main(["train", "--manifest", "lt.tsv", "--out", "run"]) == 1
    assert ("error: no CT utterances: a split needs both classes ('LT', 'CT')"
            in capsys.readouterr().err)
    assert not Path("run").exists()


def test_ablate_rfe_writes_one_row_per_feature(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(SYNTH) == 0
    assert cli.main(["ablate", "--method", "rfe", "--manifest", "corp/manifest.tsv",
                     "--features", "F0,ZCR", "--arch", "CA02", "--epochs", "1",
                     "--folds", "2", "--out", "run"]) == 0
    rows = Path("run/ranking_rfe.csv").read_text().splitlines()[1:]
    record = json.loads(Path("run/results_rfe.json").read_text())
    assert record["command"] == "ablate:rfe"
    assert record["evaluations"] == len(record["ranking"]) == len(rows) == 2


@pytest.mark.parametrize("command, flags, results, read, unread", [
    (["train"], [], "results.json", "test_fraction", "folds"),
    (["ablate", "--method", "ife"], [], "results_ife.json", "test_fraction", "folds"),
    (["ablate", "--method", "rfe"], ["--folds", "2"], "results_rfe.json", "folds",
     "test_fraction"),
], ids=["train", "ife", "rfe"])
def test_results_record_only_the_settings_the_run_read(tmp_path, monkeypatch, command,
                                                       flags, results, read, unread):
    monkeypatch.chdir(tmp_path)
    assert cli.main(SYNTH) == 0
    assert cli.main(command + ["--manifest", "corp/manifest.tsv", "--features", "F0,ZCR",
                               "--arch", "CA02", "--epochs", "1", "--out", "run"]
                    + flags) == 0
    record = json.loads((Path("run") / results).read_text())
    assert set(record["config"]) == {"train", "arch_id", "split_seed",
                                     "val_fraction", read}
    assert unread not in record["config"]
    # an ablation's accuracies are in its ranking; it has no fold reports
    held_out = command == ["train"]
    assert ("folds" in record, "mean_accuracy" in record) == (held_out, held_out)


def test_results_record_the_blas_thread_count_that_ran(tmp_path):
    # in a fresh process, as a user runs it: OpenBLAS reads the variable
    # when numpy loads it
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}

    def lctid(*args):
        subprocess.run([sys.executable, "-m", "lctid.cli", *args], cwd=tmp_path,
                       env=env, check=True, capture_output=True)

    lctid(*SYNTH)
    run = ["--manifest", "corp/manifest.tsv", "--features", "F0,ZCR", "--arch", "CA02",
           "--epochs", "1", "--out", "run"]
    lctid("train", *run)
    lctid("ablate", "--method", "ife", *run)
    reported = subprocess.run(
        [sys.executable, "-c", "from lctid import cnn; print(cnn.blas_info()['threads'])"],
        env=env, check=True, capture_output=True, text=True).stdout.strip()
    assert reported == "1"
    for results in ("results.json", "results_ife.json"):
        blas = json.loads((tmp_path / "run" / results).read_text())["blas"]
        assert blas == {"config": cnn.blas_info()["config"], "threads": 1,
                        "numpy": np.__version__}
