"""Command-line pipeline: simulate -> label -> train -> predict -> evaluate.

Each stage reads and writes plain files so intermediate artifacts can be
inspected and re-run in isolation. Every command finishes by printing one
JSON object on its last stdout line, which ends with ``elapsed_s``, the
command's wall time; given identical inputs and seeds, re-running a command
rewrites byte-identical outputs.

Exit codes: 2 bad flags or config, 3 I/O failure, 4 malformed or inconsistent
input data, 5 data that is structurally valid but degenerate for the stage
(e.g. a single-class training set).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import time
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .aggregate import (
    DEFAULT_STEP_S,
    export_curve_svg,
    read_curves_csv,
    write_curves_csv,
)
from .core import AggregateCurve, canonical_au_index, read_text, strict
from .errors import (
    ConfigError,
    DegenerateComplement,
    DegenerateTrainingSet,
    EmptyInterval,
    EmptyScoreList,
    InsufficientAds,
    NoMoments,
    NoPredictions,
    SchemaError,
    UnknownAdId,
    UnknownAuName,
    ValidationError,
)
from .ingest import (
    DEFAULT_MIN_COVERAGE,
    load_dataset,
    parse_ad_annotations,
    write_dataset,
)
from .metrics import (
    chance_baseline,
    evaluate_kpis,
    single_au_baselines,
    write_kpi_report,
    write_kpi_table_csv,
)
from .mlp import TrainConfig, adam_steps, load_model, save_model, train
from .pipeline import grouped_by_ad, predict_curves
from .synth import SynthConfig, generate, generate_null
from .weak_label import (
    LabelingConfig,
    extract_examples,
    label_summary,
    read_examples_jsonl,
    write_examples_jsonl,
)

# the exit code of each class of failure, tried in this order
_EXIT_CODES = (
    ((ConfigError,), 2),
    ((OSError,), 3),
    ((SchemaError, ValidationError, UnknownAuName, UnknownAdId), 4),
    ((DegenerateTrainingSet, NoPredictions, InsufficientAds, NoMoments,
      DegenerateComplement, EmptyScoreList, EmptyInterval), 5),
)

ANNOTATIONS_NAME = "annotations.json"
STREAMS_NAME = "au_streams.csv"


def _read_config_json(path: str) -> dict:
    try:
        payload = json.loads(read_text(path, ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return payload


_INT, _FLOAT, _BOOL = strict(int), strict(float), strict(bool)


def _coerce_au_index(value: object) -> int:
    if not isinstance(value, str):
        return _INT(value)
    try:
        return canonical_au_index(value)
    except UnknownAuName as exc:
        raise ConfigError(str(exc)) from exc


def _coerce_signal_aus(value: object) -> frozenset[int]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError("signal_aus must be a list of AU names or indices")
    return frozenset(_coerce_au_index(v) for v in value)


def _coerce_moment_range(value: object) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError("moments_per_ad must be a [lo, hi] pair")
    return _INT(value[0]), _INT(value[1])


_SYNTH_COERCERS: dict[str, Callable[[object], object]] = {
    "n_train_sent_ads": _INT,
    "n_test_sent_ads": _INT,
    "n_test_nonsent_ads": _INT,
    "participants_per_ad": _INT,
    "ad_duration_s": _FLOAT,
    "fps": _FLOAT,
    "moments_per_ad": _coerce_moment_range,
    "signal_aus": _coerce_signal_aus,
    "signal_strength": _FLOAT,
    "responder_fraction": _FLOAT,
    "noise_level": _FLOAT,
    "face_dropout_prob": _FLOAT,
    "distracted_fraction": _FLOAT,
    "rng_seed": _INT,
}

_TRAIN_COERCERS: dict[str, Callable[[object], object]] = {
    "epochs": _INT,
    "learning_rate": _FLOAT,
    "batch_size": _INT,
    "adam_beta1": _FLOAT,
    "adam_beta2": _FLOAT,
    "adam_epsilon": _FLOAT,
    "oversample_positives": _BOOL,
    "rng_seed": _INT,
}

_LABEL_COERCERS: dict[str, Callable[[object], object]] = {
    "activation_threshold": _FLOAT,
    "min_active_positive": _INT,
    "include_nonsentimental_ads": _BOOL,
}


def _config_overrides(
    path: str | None, coercers: Mapping[str, Callable[[object], object]], **flags: object
) -> dict:
    """The values in the config file at path, if one is given, then every
    flag that is not None."""
    payload = {} if path is None else _read_config_json(path)
    unknown = set(payload) - set(coercers)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    out = {}
    for key, value in payload.items():
        try:
            out[key] = coercers[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad value for {key}: {exc}") from exc
    out.update((key, value) for key, value in flags.items() if value is not None)
    return out


def _prepare_parent(path: str | Path) -> Path:
    p = Path(path)
    if p.parent != Path(""):
        p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _interpolated_bin_frac(curves: Sequence[AggregateCurve]) -> float | None:
    """Share of the curves' bins filled by interpolation; None without bins."""
    bins = sum(curve.n_bins for curve in curves)
    return sum(int((curve.counts == 0).sum()) for curve in curves) / bins if bins else None


def _svg_filename(ad_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", ad_id) + ".svg"


def cmd_simulate(args: argparse.Namespace) -> dict:
    config = SynthConfig(**_config_overrides(args.config, _SYNTH_COERCERS, rng_seed=args.seed))
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
    config = LabelingConfig(**_config_overrides(
        args.config, _LABEL_COERCERS, activation_threshold=args.threshold,
        min_active_positive=args.min_active,
        include_nonsentimental_ads=args.include_nonsentimental or None))
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
    config = TrainConfig(**_config_overrides(
        args.config, _TRAIN_COERCERS, rng_seed=args.seed, epochs=args.epochs,
        batch_size=args.batch_size, learning_rate=args.learning_rate,
        oversample_positives=False if args.no_oversample else None))
    examples = read_examples_jsonl(args.examples)
    params, losses = train(examples, config)
    save_model(params, _prepare_parent(args.model_out))
    if args.loss_out is not None:
        with open(_prepare_parent(args.loss_out), "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["epoch", "mean_loss"])
            for epoch, loss in enumerate(losses, start=1):
                writer.writerow([epoch, repr(loss)])
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
    }


def cmd_predict(args: argparse.Namespace) -> dict:
    dataset, dropped = load_dataset(args.annotations, args.streams, args.min_coverage)
    params = load_model(args.model)
    curves = predict_curves(params, dataset, args.step_s)
    write_curves_csv(curves, _prepare_parent(args.out))
    if args.svg_dir is not None:
        svg_dir = Path(args.svg_dir)
        svg_dir.mkdir(parents=True, exist_ok=True)
        for curve in curves:
            export_curve_svg(curve, svg_dir / _svg_filename(curve.ad_id),
                             moments=dataset.ads[curve.ad_id].moments)
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
        by_ad = grouped_by_ad(dataset.videos, dataset.ads)
        chance = chance_baseline(by_ad, dataset.ads, args.step_s, args.guard_s)
        per_au = single_au_baselines(by_ad, dataset.ads, args.step_s, args.guard_s)
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
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for curve in curves:
        ad = ads.get(curve.ad_id)
        if ad is None:
            raise UnknownAdId(f"curve references unknown ad {curve.ad_id!r}")
        export_curve_svg(curve, out_dir / _svg_filename(curve.ad_id),
                         moments=ad.moments)
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
    p.add_argument("--svg-dir", default=None, help="also render one SVG per ad")
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
    except tuple(kind for kinds, _ in _EXIT_CODES for kind in kinds) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    summary["elapsed_s"] = time.perf_counter() - start
    print(json.dumps(summary))
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
