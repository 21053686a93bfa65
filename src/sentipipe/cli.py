"""Command-line pipeline: simulate -> label -> train -> predict -> evaluate.

Each stage reads and writes plain files so intermediate artifacts can be
inspected and re-run in isolation. Every command finishes by printing one
JSON object on its last stdout line, which ends with ``elapsed_s``, the
command's wall time; given identical inputs and seeds, re-running a command
rewrites byte-identical outputs.

Exit codes: 2 bad flags or config, 3 I/O failure, 4 malformed or inconsistent
input data, 5 data that is structurally valid but degenerate for the stage
(e.g. a single-class training set). Each error class carries its code (see
errors.py); an OSError exits 3.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import json
import math
import re
import sys
import time
from pathlib import Path
from typing import Sequence, TypeVar

from .aggregate import (
    DEFAULT_STEP_S,
    export_curve_svg,
    n_bins_for,
    read_curves_csv,
    write_curves_csv,
)
from .core import AggregateCurve, read_json
from .errors import ConfigError, SentiPipeError, ValidationError
from .ingest import (
    DEFAULT_MIN_COVERAGE,
    load_dataset,
    parse_ad_annotations,
    write_dataset,
)
from .metrics import evaluate_kpis, write_kpi_report, write_kpi_table_csv
from .mlp import TrainConfig, adam_steps, load_model, save_model, train
from .pipeline import predict_curves, run_baselines
from .synth import SynthConfig, generate, generate_null
from .weak_label import (
    LabelingConfig,
    extract_examples,
    label_summary,
    read_examples_jsonl,
    write_examples_jsonl,
)

ANNOTATIONS_NAME = "annotations.json"
STREAMS_NAME = "au_streams.csv"

C = TypeVar("C")


def _config(cls: type[C], path: str | None, **flags: object) -> C:
    """cls with the values in the JSON config file at path, if one is given,
    then every flag that is not None. The config class checks every value."""
    config = cls()
    if path is not None:
        payload = read_json(path, ConfigError)
        if not isinstance(payload, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        unknown = set(payload) - {field.name for field in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        try:
            config = cls(**payload)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})


def _prepare_parent(path: str | Path) -> Path:
    p = Path(path)
    if p.parent != Path(""):
        p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _interpolated_bin_frac(curves: Sequence[AggregateCurve]) -> float | None:
    """Share of the curves' bins filled by interpolation; None without bins."""
    bins = sum(curve.n_bins for curve in curves)
    return sum(int((curve.counts == 0).sum()) for curve in curves) / bins if bins else None


def _svg_filenames(curves: Sequence[AggregateCurve]) -> list[str]:
    """One SVG file name per curve; ValidationError when two ad ids map to one."""
    ad_id_of: dict[str, str] = {}
    for curve in curves:
        name = re.sub(r"[^A-Za-z0-9._-]", "_", curve.ad_id) + ".svg"
        if ad_id_of.setdefault(name, curve.ad_id) != curve.ad_id:
            raise ValidationError(f"ad ids {ad_id_of[name]!r} and {curve.ad_id!r} "
                                  f"both map to the SVG file {name}")
    return list(ad_id_of)


def cmd_simulate(args: argparse.Namespace) -> dict:
    config = _config(SynthConfig, args.config, rng_seed=args.seed)
    data = generate_null(config) if args.null else generate(config)
    out = Path(args.out)
    for split, dataset in (("train", data.train), ("test", data.test)):
        split_dir = out / split
        split_dir.mkdir(parents=True, exist_ok=True)
        write_dataset(dataset, split_dir / ANNOTATIONS_NAME, split_dir / STREAMS_NAME)
    return {
        "command": "simulate",
        "out": str(out),
        "seed": config.rng_seed,
        "null": bool(args.null),
        "train_ads": len(data.train.ads),
        "test_ads": len(data.test.ads),
        "train_videos": len(data.train.videos),
        "test_videos": len(data.test.videos),
    }


def cmd_label(args: argparse.Namespace) -> dict:
    config = _config(LabelingConfig, args.config, activation_threshold=args.threshold,
                     min_active_positive=args.min_active,
                     include_nonsentimental_ads=args.include_nonsentimental or None)
    dataset, dropped = load_dataset(args.annotations, args.streams, args.min_coverage)
    examples = extract_examples(dataset.videos, dataset.ads, config)
    write_examples_jsonl(examples, _prepare_parent(args.out))
    summary = label_summary(examples)
    ratio = summary.ratio
    return {
        "command": "label",
        "out": str(args.out),
        "examples": len(examples),
        "positives": summary.positives,
        "negatives": summary.negatives,
        "neg_per_pos": ratio if ratio is not None and math.isfinite(ratio) else None,
        "dropped_videos": sorted(dropped),
    }


def cmd_train(args: argparse.Namespace) -> dict:
    config = _config(TrainConfig, args.config, rng_seed=args.seed, epochs=args.epochs,
                     batch_size=args.batch_size, learning_rate=args.learning_rate,
                     oversample_positives=False if args.no_oversample else None)
    start = time.perf_counter()
    examples = read_examples_jsonl(args.examples)
    read_done = time.perf_counter()
    params, losses = train(examples, config)
    train_done = time.perf_counter()
    save_model(params, _prepare_parent(args.model_out))
    if args.loss_out is not None:
        with open(_prepare_parent(args.loss_out), "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["epoch", "mean_loss"])
            for epoch, loss in enumerate(losses, start=1):
                writer.writerow([epoch, repr(loss)])
    stages = {"read": read_done - start, "train": train_done - read_done,
              "write": time.perf_counter() - train_done}
    summary = label_summary(examples)
    return {
        "command": "train",
        "model": str(args.model_out),
        "examples": len(examples),
        "positives": summary.positives,
        "negatives": summary.negatives,
        "epochs": config.epochs,
        "adam_steps": adam_steps(summary.positives, summary.negatives, config),
        "seed": config.rng_seed,
        "final_loss": losses[-1],
        "stages": stages,
    }


def cmd_predict(args: argparse.Namespace) -> dict:
    dataset, dropped = load_dataset(args.annotations, args.streams, args.min_coverage)
    params = load_model(args.model)
    curves = predict_curves(params, dataset, args.step_s)
    write_curves_csv(curves, _prepare_parent(args.out))
    covered = {c.ad_id for c in curves}
    return {
        "command": "predict",
        "out": str(args.out),
        "ads": len(curves),
        "ads_without_videos": sorted(set(dataset.ads) - covered),
        "videos_scored": len(dataset.videos),
        "dropped_videos": sorted(dropped),
        "interpolated_bin_frac": _interpolated_bin_frac(curves),
    }


def cmd_evaluate(args: argparse.Namespace) -> dict:
    dataset, dropped = load_dataset(args.annotations, args.streams, args.min_coverage)
    params = load_model(args.model)
    curves = predict_curves(params, dataset, args.step_s)
    report = evaluate_kpis(curves, dataset.ads, args.guard_s)
    metadata = {
        "step_s": args.step_s,
        "guard_s": args.guard_s,
        "min_coverage": args.min_coverage,
        "negative_intervals": "full complement of the labeled moments",
        "aggregation": "per-participant bin means averaged with equal weight",
        "dropped_videos": sorted(dropped),
    }
    write_kpi_report(report, _prepare_parent(args.report_out), metadata)
    if args.table_out is not None:
        chance, per_au = run_baselines(dataset, args.step_s, args.guard_s, args.min_coverage)
        write_kpi_table_csv(chance, per_au, report, _prepare_parent(args.table_out))
    return {
        "command": "evaluate",
        "report": str(args.report_out),
        "roc_ad": report.roc_ad,
        "roc_sent": report.roc_sent,
        "avg": report.avg,
        "ads": len(curves),
        "interpolated_bin_frac": _interpolated_bin_frac(curves),
    }


def cmd_export_curves(args: argparse.Namespace) -> dict:
    curves = read_curves_csv(args.curves)
    ads = parse_ad_annotations(args.annotations)
    svg_names = _svg_filenames(curves)
    for curve in curves:  # before any output, as the name check above
        if curve.ad_id not in ads:
            raise ValidationError(f"curve references unknown ad {curve.ad_id!r}")
    for curve in curves:  # a file cut short reads back with a short last curve
        ad = ads[curve.ad_id]
        if curve.n_bins != (n_bins := n_bins_for(ad.duration_s, curve.step_s)):
            raise ValidationError(f"curve for ad {ad.ad_id!r} has {curve.n_bins} bins, but "
                                  f"{ad.duration_s:g} s at step {curve.step_s:g} s takes {n_bins}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for curve, name in zip(curves, svg_names):
        export_curve_svg(curve, out_dir / name, moments=ads[curve.ad_id].moments)
    return {
        "command": "export-curves",
        "out_dir": str(out_dir),
        "svgs": len(curves),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentipipe",
        description="Sentimentality detection over facial action unit streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic train/test corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON file overriding generator defaults")
    p.add_argument("--null", action="store_true",
                   help="remove the planted signal (signal_strength 0)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("label", help="derive weak frame labels from annotations")
    p.add_argument("--annotations", required=True)
    p.add_argument("--streams", required=True)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--threshold", type=float, default=None,
                   help="AU activation threshold (default 0.5)")
    p.add_argument("--min-active", type=int, default=None,
                   help="active AUs required for a positive (default 2)")
    p.add_argument("--include-nonsentimental", action="store_true",
                   help="also mine negatives from non-sentimental ads")
    p.add_argument("--min-coverage", type=float, default=DEFAULT_MIN_COVERAGE)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train the classifier on weak labels")
    p.add_argument("--examples", required=True, help="JSONL from the label stage")
    p.add_argument("--model-out", required=True)
    p.add_argument("--loss-out", default=None, help="optional per-epoch loss CSV")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--no-oversample", action="store_true")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score videos and export per-ad curves")
    p.add_argument("--annotations", required=True)
    p.add_argument("--streams", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output curves CSV")
    p.add_argument("--step-s", type=float, default=DEFAULT_STEP_S)
    p.add_argument("--min-coverage", type=float, default=DEFAULT_MIN_COVERAGE)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="compute KPIs and the baseline table")
    p.add_argument("--annotations", required=True)
    p.add_argument("--streams", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--report-out", required=True, help="KPI report JSON")
    p.add_argument("--table-out", default=None,
                   help="optional CSV: chance, per-AU baselines, model")
    p.add_argument("--step-s", type=float, default=DEFAULT_STEP_S)
    p.add_argument("--guard-s", type=float, default=0.0)
    p.add_argument("--min-coverage", type=float, default=DEFAULT_MIN_COVERAGE)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-curves", help="render existing curves to SVG")
    p.add_argument("--curves", required=True, help="curves CSV from predict")
    p.add_argument("--annotations", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_export_curves)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        summary = args.func(args)
    except (SentiPipeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, OSError) else exc.exit_code
    summary["elapsed_s"] = time.perf_counter() - start
    print(json.dumps(summary))
    return 0


def entry() -> None:
    # the import-time heap lives until exit, so keep every collection, those at exit too, off it
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
