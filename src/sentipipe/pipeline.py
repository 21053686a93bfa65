"""In-memory end-to-end runs: generate, label, train, aggregate, evaluate.

The CLI goes through files at every stage boundary; this module wires the
same stages directly so experiments and tests can run many seeds without
touching disk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .aggregate import (DEFAULT_STEP_S, AggregateCurve, aggregate_ad, aggregate_columns,
                        face_frames)
from .core import AdSpec, VideoRecord
from .errors import ValidationError
from .ingest import DEFAULT_MIN_COVERAGE, Dataset, filter_by_coverage
from .metrics import (
    KpiReport,
    chance_baseline,
    evaluate_kpis,
    single_au_baselines,
)
from .mlp import MlpParams, TrainConfig, train
from .synth import SynthConfig, SynthData, generate, generate_null
from .weak_label import LabelingConfig, LabelSummary, extract_examples, label_summary


@dataclass(frozen=True, slots=True)
class ChainResult:
    """Everything one end-to-end run produces.

    ``timings`` holds the ``perf_counter`` seconds of each stage (coverage
    filter, label, train, predict, KPIs) and takes no part in comparisons."""

    params: MlpParams
    losses: tuple[float, ...]
    summary: LabelSummary
    curves: tuple[AggregateCurve, ...]
    report: KpiReport
    dropped_train: tuple[str, ...]
    dropped_test: tuple[str, ...]
    timings: dict[str, float] = field(compare=False)


def grouped_by_ad(
    videos: Sequence[VideoRecord], ads: Mapping[str, AdSpec]
) -> dict[str, list[VideoRecord]]:
    """Group videos under their ads, keeping the ads' insertion order and
    skipping ads that have no videos left."""
    by_ad: dict[str, list[VideoRecord]] = {}
    for v in videos:
        by_ad.setdefault(v.ad_id, []).append(v)
    return {ad_id: by_ad[ad_id] for ad_id in ads if ad_id in by_ad}


def predict_curves(
    params: MlpParams,
    dataset: Dataset,
    step_s: float = DEFAULT_STEP_S,
) -> tuple[AggregateCurve, ...]:
    """One curve per ad that has at least one video."""
    by_ad = grouped_by_ad(dataset.videos, dataset.ads)
    return tuple(
        aggregate_ad(params, ad_id, vids, dataset.ads[ad_id].duration_s, step_s)
        for ad_id, vids in by_ad.items())


def run_chain(
    config: SynthConfig = SynthConfig(),
    labeling: LabelingConfig = LabelingConfig(),
    train_config: TrainConfig | None = None,
    step_s: float = DEFAULT_STEP_S,
    guard_s: float = 0.0,
    min_coverage: float = DEFAULT_MIN_COVERAGE,
    null: bool = False,
) -> ChainResult:
    """Run the full synthetic pipeline for one seed.

    Unless given explicitly, the training seed follows the generator seed so
    one number pins down the whole run.
    """
    data = generate_null(config) if null else generate(config)
    if train_config is None:
        train_config = TrainConfig(rng_seed=config.rng_seed)
    return run_stages(data, labeling, train_config, step_s, guard_s, min_coverage)


def run_stages(
    data: SynthData,
    labeling: LabelingConfig = LabelingConfig(),
    train_config: TrainConfig = TrainConfig(),
    step_s: float = DEFAULT_STEP_S,
    guard_s: float = 0.0,
    min_coverage: float = DEFAULT_MIN_COVERAGE,
) -> ChainResult:
    """Label/train on the train split, aggregate/evaluate on the test split."""
    clock = [time.perf_counter()]

    def lap() -> float:
        clock.append(time.perf_counter())
        return clock[-1] - clock[-2]

    kept_train, dropped_train = filter_by_coverage(data.train.videos, min_coverage)
    kept_test, dropped_test = filter_by_coverage(data.test.videos, min_coverage)
    test = Dataset(ads=data.test.ads, videos=tuple(kept_test))
    timings = {"coverage": lap()}
    examples = extract_examples(kept_train, data.train.ads, labeling)
    timings["label"] = lap()
    params, losses = train(examples, train_config)
    timings["train"] = lap()
    curves = predict_curves(params, test, step_s)
    timings["predict"] = lap()
    report = evaluate_kpis(curves, test.ads, guard_s)
    timings["kpis"] = lap()
    return ChainResult(
        params=params,
        losses=tuple(losses),
        summary=label_summary(examples),
        curves=curves,
        report=report,
        dropped_train=tuple(dropped_train),
        dropped_test=tuple(dropped_test),
        timings=timings,
    )


def run_baselines(
    test: Dataset,
    step_s: float = DEFAULT_STEP_S,
    guard_s: float = 0.0,
    min_coverage: float = DEFAULT_MIN_COVERAGE,
) -> tuple[KpiReport, list[KpiReport]]:
    """(chance report, per-AU reports in canonical order) on one test split.

    Each ad's face frames are binned once, by one ``aggregate_columns`` call
    for all twenty AU columns; those curves feed both the chance column and
    the twenty single-AU columns."""
    kept, _ = filter_by_coverage(test.videos, min_coverage)
    by_ad = grouped_by_ad(kept, test.ads)
    if not by_ad:
        raise ValidationError("no videos left after the coverage filter")
    per_ad = [aggregate_columns(ad_id, [face_frames(v) for v in videos],
                                test.ads[ad_id].duration_s, step_s)
              for ad_id, videos in by_ad.items()]
    chance = chance_baseline(per_ad, test.ads, guard_s)
    per_au = single_au_baselines(per_ad, test.ads, guard_s)
    return chance, per_au
