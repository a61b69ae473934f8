"""Command-line surface: synth, extract, plot, train, eval, ablate.

Every run is deterministic given identical flags; results files embed the
resolved configuration.  ``--features`` takes a comma list whose items are
set names (handcrafted, mfcc, all) or channel ids, so ``train --features
handcrafted,mfcc`` trains on the union of two sets.  A run flag left
unset takes ``experiments.ExperimentConfig``'s default: the optimizer
follows ``--arch``, the patience ``--val-fraction`` and ``--split-seed``
``--seed``.  ``@FILE`` stands for the arguments in FILE, one per line
(``--manifest=corp/manifest.tsv``); argparse expands them in place and
checks them as if typed, so in ``lctid train @run.args --epochs 5`` the
later ``--epochs`` wins.  No flag may be shortened.  ``--verbose`` is a flag of ``lctid`` itself: a
file that holds it goes before the subcommand.  ``train`` writes
``model.lct``, which is all that ``eval`` needs, and ``results.json``.
A results file records the BLAS that ran under ``blas``: its build, its
thread count and numpy's version, since BLAS rounds differently at other
thread counts.
``train`` and ``ablate --method ife`` score a held-out split and take
``--test-fraction``; ``ablate --method rfe`` cross-validates and takes
``--folds``.  A split flag that the command does not read is a usage
error, and its results file leaves that setting out.

``synth`` writes 16 kHz PCM16 WAVs.  Every command that extracts features
decodes its WAVs with ``corpus.read_wav``, which fails on any rate but the
canonical 16 kHz; there is no resampler.  ``extract`` logs such a failure
per utterance and goes on.  ``train`` and ``ablate`` share one prologue
(config, manifest, ``--balanced``, channels, dataset), and ``ablate`` makes
one ``experiments.ablate`` call for either method.  ``--optimizer`` offers
``cnn.OPTIMIZERS``.  ``extract`` and ``plot`` extract one utterance at a
time in the calling thread; ``train``, ``ablate`` and ``eval`` extract
through ``experiments.prepare_dataset``, one process per core.

Exit codes: 0 ok, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import cnn, dsp, experiments, features
from .corpus import (CorpusError, SynthSpec, derive_balanced_subset,
                     load_audio, load_manifest, read_wav, synth_corpus)
from .features import extract_matrix, resolve_featureset

logger = logging.getLogger("lctid")

_Y_LABELS = {
    "F0": "Hz", "ENERGY": "energy", "VPROB": "probability",
    "JITTER": "ratio", "DJITTER": "ratio", "SHIMMER": "ratio",
    "HNR": "log-HNR", "SFLUX": "flux", "SHARP": "bark", "ZCR": "crossings/s",
}


# ---------------------------------------------------------------------------
# Helpers

def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(text.encode("utf-8"))
    os.replace(tmp, path)


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def parse_hours(text: str) -> float:
    """'8h', '8', '0.5h' -> hours as float."""
    t = text.strip().lower()
    if t.endswith("h"):
        t = t[:-1]
    try:
        value = float(t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse hours from {text!r}")
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"hours must be finite and >= 0, "
                                         f"got {text!r}")
    return value


def _experiment_config(args) -> experiments.ExperimentConfig:
    """The config of the run flags given; `ExperimentConfig` sets the rest."""
    given = vars(args)

    def fields_of(cls) -> dict:
        return {f.name: given[f.name] for f in dataclasses.fields(cls)
                if f.name in given}

    return experiments.ExperimentConfig(train=fields_of(cnn.TrainConfig),
                                        **fields_of(experiments.ExperimentConfig))


def _unread_split(args) -> str:
    """The split setting the command does not read: rfe cross-validates over
    folds, train and ife score a held-out test fraction."""
    return "test_fraction" if getattr(args, "method", None) == "rfe" else "folds"


def _prepare_run(args) -> tuple[experiments.ExperimentConfig, tuple[str, ...],
                                 experiments.Dataset]:
    """The config, channels and dataset of a `train` or `ablate` run: the
    manifest, cut to `--balanced` hours per class if given, extracted."""
    config = _experiment_config(args)
    manifest = load_manifest(args.manifest)
    if args.balanced is not None:
        manifest = derive_balanced_subset(manifest, args.balanced,
                                          config.train.seed)
    channels = resolve_featureset(args.features)
    return config, channels, experiments.prepare_dataset(manifest, channels)


def _default_help(field: str, cases: dict[str, dict]) -> str:
    """'default: VALUE CASE, ...', each VALUE the training `field` that
    ExperimentConfig(**kwargs) resolves for that case, so --help cannot
    drift from the config that picks the default."""
    return "default: " + ", ".join(
        f"{getattr(experiments.ExperimentConfig(**kwargs).train, field)} {case}"
        for case, kwargs in cases.items())


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    # p suppresses the defaults: a run flag not given is left out of args
    per_arch = {f"for {a}": {"arch_id": a} for a in sorted(cnn.ARCHITECTURES)}
    per_optimizer = {f"for {o}": {"train": {"optimizer": o}} for o in cnn.OPTIMIZERS}
    p.add_argument("--manifest", required=True)
    p.add_argument("--balanced", type=parse_hours, default=None,
                   help="derive a balanced subset first, e.g. 8h")
    p.add_argument("--out", required=True)
    p.add_argument("--features", default="handcrafted")
    p.add_argument("--seed", type=int)
    p.add_argument("--arch", dest="arch_id", choices=sorted(cnn.ARCHITECTURES))
    p.add_argument("--optimizer", choices=cnn.OPTIMIZERS,
                   help=_default_help("optimizer", per_arch))
    p.add_argument("--batch-size", type=int,
                   help=_default_help("batch_size", per_optimizer))
    p.add_argument("--lr", dest="learning_rate", type=float, metavar="LR",
                   help=_default_help("learning_rate", per_optimizer))
    p.add_argument("--epochs", type=int)
    p.add_argument("--conv-dropout", type=float)
    p.add_argument("--dense-dropout", type=float)
    p.add_argument("--patience", dest="early_stop_patience", type=int, metavar="N",
                   help="early-stop patience on validation loss (0 = off); "
                        + _default_help("early_stop_patience", {
                            "with --val-fraction > 0": {"val_fraction": 0.5},
                            "without": {}}))
    p.add_argument("--val-fraction", type=float)
    p.add_argument("--split-seed", type=int, help="default: --seed")


# ---------------------------------------------------------------------------
# SVG contour plotting (two aligned panels, no plotting dependency)

def render_contour_svg(panels, ylabel: str, title: str) -> str:
    width, panel_h, pad = 860, 180, 50
    height = pad + len(panels) * (panel_h + 30)
    all_vals = np.concatenate([np.asarray(v, dtype=float) for _, _, v in panels])
    lo, hi = float(all_vals.min()), float(all_vals.max())
    if hi - lo < 1e-12:
        hi = lo + 1.0
    span = hi - lo
    lo -= 0.05 * span
    hi += 0.05 * span
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" font-family="monospace" font-size="12">',
             f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" '
             f'font-size="14">{title}</text>']
    for pi, (name, times, vals) in enumerate(panels):
        top = pad + pi * (panel_h + 30)
        x0, x1 = 70, width - 20
        t_max = max(float(times[-1]), 1e-9) if len(times) else 1.0
        xs = x0 + (np.asarray(times, dtype=float) / t_max) * (x1 - x0)
        ys = top + panel_h - (np.asarray(vals, dtype=float) - lo) / (hi - lo) * panel_h
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        parts += [
            f'<rect x="{x0}" y="{top}" width="{x1 - x0}" height="{panel_h}" '
            'fill="none" stroke="#999"/>',
            f'<polyline points="{pts}" fill="none" stroke="#1f4e8c" stroke-width="1.2"/>',
            f'<text x="{x0 - 8}" y="{top + 12}" text-anchor="end">{hi:.4g}</text>',
            f'<text x="{x0 - 8}" y="{top + panel_h}" text-anchor="end">{lo:.4g}</text>',
            f'<text x="{x0}" y="{top + panel_h + 16}">0</text>',
            f'<text x="{x1}" y="{top + panel_h + 16}" text-anchor="end">{t_max:.2f} s</text>',
            f'<text x="{(x0 + x1) / 2:.0f}" y="{top - 6}" text-anchor="middle">{name}</text>',
            f'<text x="16" y="{top + panel_h / 2:.0f}" '
            f'transform="rotate(-90 16 {top + panel_h / 2:.0f})" '
            f'text-anchor="middle">{ylabel}</text>',
        ]
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_synth(args) -> int:
    spec = SynthSpec(num_utterances=args.count, dur_min_s=args.dur_min,
                     dur_max_s=args.dur_max, out_dir=args.out)
    manifest = synth_corpus(spec, args.seed)
    print(f"wrote {len(manifest)} utterances and manifest.tsv under {args.out}")
    return 0


def cmd_extract(args) -> int:
    # Durations are not needed here; skip them so a bad WAV surfaces as a
    # logged per-utterance failure instead of aborting the whole run.
    manifest = load_manifest(args.manifest, read_durations=False)
    channels = resolve_featureset(args.features)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    index_lines = ["id,dialect,csv,frames"]
    failures = 0

    for record in manifest.records:
        try:
            result = extract_matrix(load_audio(record), channels,
                                    source_id=record.id)
        except Exception as exc:  # reported per utterance; the run goes on
            logger.error("extract failed for %s: %s", record.id, exc)
            failures += 1
            continue
        csv_path = out / f"{record.id}.csv"
        lines = [",".join(result.channel_ids)]
        lines += [",".join(repr(float(v)) for v in frame)
                  for frame in result.values.T]
        _atomic_write_text(csv_path, "\n".join(lines) + "\n")
        index_lines.append(
            f"{record.id},{record.dialect},{csv_path.name},{result.num_frames}")
    _atomic_write_text(out / "index.csv", "\n".join(index_lines) + "\n")
    print(f"extracted {len(manifest) - failures}/{len(manifest)} utterances to {out}")
    return 1 if failures else 0


def cmd_plot(args) -> int:
    feature_id = args.feature.strip().upper()
    if feature_id not in features.ALL_IDS:
        raise ValueError(f"unknown feature id {args.feature!r}; valid ids: "
                         + ", ".join(features.ALL_IDS))
    panels = []
    csv_lines = ["utterance,frame,time_s,value"]
    for tag, wav in (("A", args.wav_a), ("B", args.wav_b)):
        wave = read_wav(wav)
        mat = extract_matrix(wave, [feature_id], source_id=Path(wav).stem)
        vals = mat.values[0]
        times = np.arange(vals.size) * dsp.HOP_MS / 1000.0
        panels.append((f"{tag}: {Path(wav).name}", times, vals))
        for i, (t, v) in enumerate(zip(times, vals)):
            csv_lines.append(f"{tag},{i},{t!r},{float(v)!r}")
    ylabel = _Y_LABELS.get(feature_id, "coefficient")
    svg = render_contour_svg(panels, ylabel, f"{feature_id} contour")
    out = Path(args.out)
    _atomic_write_text(out, svg + "\n")
    _atomic_write_text(out.with_suffix(".csv"), "\n".join(csv_lines) + "\n")
    print(f"wrote {out} and {out.with_suffix('.csv')}")
    return 0


def cmd_train(args) -> int:
    config, channels, dataset = _prepare_run(args)
    train_idx, test_idx = experiments.stratified_holdout(
        dataset.labels, config.test_fraction, config.split_seed)
    report, model, aux = experiments.train_and_evaluate(
        dataset, channels, config, train_idx, test_idx)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.lct"
    cnn.save(model, aux["norm"], model_path)
    record = experiments.run_record(config, channels, _unread_split(args), {
        "command": "train",
        "folds": [report.to_dict()],
        "mean_accuracy": report.accuracy,
        "manifest": str(args.manifest),
        "balanced_hours": args.balanced,
        "segment_duration_s": aux["segment_duration_s"],
        "num_train_segments": aux["num_train_segments"],
        "history": aux["history"],
        "blas": cnn.blas_info(),
    })
    _write_json(out / "results.json", record)
    print(f"model -> {model_path}")
    _print_report(report)
    return 0


def cmd_eval(args) -> int:
    model, norm = cnn.load(args.model)
    manifest = load_manifest(args.manifest)
    report = experiments.evaluate(model, norm, manifest)
    _print_report(report)
    if args.out:
        _write_json(Path(args.out), report.to_dict())
    return 0


def cmd_ablate(args) -> int:
    config, channels, dataset = _prepare_run(args)
    table = experiments.ablate(args.method, channels, dataset, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table.write_csv(out / f"ranking_{args.method}.csv")
    gmin, gmax, gmean = table.gap_stats()
    record = experiments.run_record(config, channels, _unread_split(args), {
        "command": f"ablate:{args.method}",
        "manifest": str(args.manifest),
        "ranking": [{"feature": r.feature_id, "accuracy": r.accuracy,
                     "rank": r.rank} for r in table.rows],
        "rank_gap_stats": {"min": gmin, "max": gmax, "mean": gmean},
        "evaluations": len(table.rows),
        "blas": cnn.blas_info(),
    })
    _write_json(out / f"results_{args.method}.json", record)
    for row in sorted(table.rows, key=lambda r: r.rank):
        print(f"rank {row.rank:2d}  acc {row.accuracy:.4f}  {row.feature_id}")
    return 0


def _print_report(report: experiments.EvalReport) -> None:
    for d, m in report.per_class.items():
        print(f"{d}: precision {m.precision:.4f}  recall {m.recall:.4f}  "
              f"f1 {m.f1:.4f}")
    print(f"overall accuracy {report.accuracy:.4f} over {report.total} utterances")


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: a shortened or misspelt flag, typed or in a
    # flag file, is a usage error instead of another flag
    parser = argparse.ArgumentParser(
        prog="lctid", fromfile_prefix_chars="@", allow_abbrev=False,
        description="Literary vs colloquial speech dialect identification pipeline")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("synth", help="generate the synthetic two-class corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--dur-min", type=float, default=1.0)
    p.add_argument("--dur-max", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="dump per-utterance feature CSVs")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", default="handcrafted")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("plot", help="two-panel feature contour SVG + CSV")
    p.add_argument("--wav-a", required=True)
    p.add_argument("--wav-b", required=True)
    p.add_argument("--feature", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("train", help="train a model and score a held-out split",
                       argument_default=argparse.SUPPRESS)
    _add_train_flags(p)
    p.add_argument("--test-fraction", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a saved model on a manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="feature ablation (RFE or IFE)",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--method", required=True, choices=["rfe", "ife"])
    _add_train_flags(p)
    p.add_argument("--test-fraction", type=float,
                   help="ife only: held-out fraction (default 0.2)")
    p.add_argument("--folds", type=int,
                   help="rfe only: cross-validation folds (default 4)")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    unread = _unread_split(args)
    if getattr(args, unread, None) is not None:  # only ablate has both flags
        parser.error(f"ablate --method {args.method} does not read "
                     f"--{unread.replace('_', '-')}")
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (CorpusError, cnn.ModelFileError, cnn.TrainingDivergedError,
            ValueError, KeyError, OSError) as exc:
        logger.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
