"""Ad-level evaluation: ROC-AUC and the two KPIs built on top of it.

ROC-Ad asks whether whole-curve maxima separate sentimental from
non-sentimental ads. ROC-Sent stays inside the sentimental ads and asks
whether the curve peaks inside the labeled moments rather than elsewhere:
each ad contributes one positive (max over its moments) and one negative
(max over the complement of its moments).
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .aggregate import max_over_interval
from .core import CANONICAL_AU_NAMES, N_AUS, AdSpec, AggregateCurve, Interval
from .errors import ConfigError, DegenerateData, ValidationError


def roc_auc(pos_scores: Sequence[float], neg_scores: Sequence[float]) -> float:
    """Mann-Whitney ROC-AUC with half credit for ties.

    Equals (wins + 0.5 * ties) / (n_pos * n_neg) over all pos/neg pairs.
    Computed from rank sums in doubled-rank integer arithmetic, so the result
    is exact: identical to the brute-force pair count, not merely close.
    """
    pos = [float(s) for s in pos_scores]
    neg = [float(s) for s in neg_scores]
    if not pos or not neg:
        raise DegenerateData(
            f"need scores on both sides, got {len(pos)} positive and "
            f"{len(neg)} negative")
    for s in pos + neg:
        if not math.isfinite(s):
            raise ValidationError(f"scores must be finite, got {s}")
    pos_at = Counter(pos)
    neg_at = Counter(neg)
    # doubled midrank of a tie group spanning 1-based ranks a..b is a + b,
    # an integer, so u2 below is exact integer arithmetic throughout
    u2 = 0
    seen = 0
    for value in sorted(pos_at.keys() | neg_at.keys()):
        p = pos_at.get(value, 0)
        group = p + neg_at.get(value, 0)
        u2 += p * (2 * seen + group + 1)
        seen += group
    u2 -= len(pos) * (len(pos) + 1)
    return u2 / (2 * len(pos) * len(neg))


def complement_intervals(
    moments: Sequence[Interval], duration_s: float, guard_s: float = 0.0
) -> tuple[Interval, ...]:
    """Gaps of [0, duration) not covered by the moments.

    guard_s additionally shrinks each gap edge that touches a moment, keeping
    frames right next to a moment out of the negative side. Gaps that shrink
    to nothing are dropped.
    """
    if guard_s < 0 or not math.isfinite(guard_s):
        raise ConfigError(f"guard_s must be finite and >= 0, got {guard_s}")
    ordered = sorted(moments, key=lambda m: m.start_s)
    gaps: list[Interval] = []
    cursor = 0.0
    guarded_left = False  # whether the gap's left edge abuts a moment
    for m in ordered:
        start = cursor + guard_s if guarded_left else cursor
        end = m.start_s - guard_s
        if start < end:
            gaps.append(Interval(start_s=start, end_s=end))
        cursor = m.end_s
        guarded_left = True
    start = cursor + guard_s if guarded_left else cursor
    if start < duration_s:
        gaps.append(Interval(start_s=start, end_s=duration_s))
    return tuple(gaps)


@dataclass(frozen=True, slots=True)
class AdScore:
    """Per-ad detail behind the KPIs. moment/complement maxima are None for
    non-sentimental ads (they only enter ROC-Ad)."""

    label: str
    curve_max: float
    moment_max: float | None = None
    complement_max: float | None = None


@dataclass(frozen=True, slots=True)
class KpiReport:
    roc_ad: float
    roc_sent: float
    avg: float
    per_ad_scores: Mapping[str, AdScore]

    def __post_init__(self) -> None:
        for name in ("roc_ad", "roc_sent"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} {v} outside [0, 1]")
        if self.avg != (self.roc_ad + self.roc_sent) / 2:
            raise ValidationError(
                f"avg {self.avg} is not the exact mean of roc_ad and roc_sent")
        object.__setattr__(self, "per_ad_scores", dict(self.per_ad_scores))


def evaluate_kpis(
    curves: Sequence[AggregateCurve],
    ads: Mapping[str, AdSpec],
    guard_s: float = 0.0,
) -> KpiReport:
    """Compute both KPIs over one set of per-ad curves.

    ROC-Ad is the ROC-AUC of whole-curve maxima, sentimental vs
    non-sentimental ads. ROC-Sent is the ROC-AUC of within-ad maxima over
    the sentimental ads: each contributes one positive (its labeled moments)
    and one negative (their complement, shrunk by guard_s). Each ad's maxima
    are taken once and feed both the ROCs and the details.
    """
    peaks = []
    for curve in curves:
        ad = ads.get(curve.ad_id)
        if ad is None:
            raise ValidationError(f"curve references unknown ad {curve.ad_id!r}")
        peaks.append((ad, float(curve.scores.max())))
    pos = [peak for ad, peak in peaks if ad.is_sentimental]
    neg = [peak for ad, peak in peaks if not ad.is_sentimental]
    if not pos or not neg:
        raise DegenerateData(
            f"need both ad classes, got {len(pos)} sentimental and "
            f"{len(neg)} non-sentimental")
    roc_ad = roc_auc(pos, neg)
    details: dict[str, AdScore] = {}
    within: list[tuple[float, float]] = []
    for curve, (ad, peak) in zip(curves, peaks):
        if not ad.is_sentimental:
            details[curve.ad_id] = AdScore(label=ad.label.value, curve_max=peak)
            continue
        p = max(max_over_interval(curve, m) for m in ad.moments)
        gaps = complement_intervals(ad.moments, ad.duration_s, guard_s)
        if not gaps:
            raise DegenerateData(
                f"ad {curve.ad_id!r}: moments (plus guard {guard_s}s) cover the "
                f"whole ad, leaving no negative intervals")
        n = max(max_over_interval(curve, g) for g in gaps)
        within.append((p, n))
        details[curve.ad_id] = AdScore(
            label=ad.label.value, curve_max=peak, moment_max=p, complement_max=n)
    roc_sent = roc_auc(*zip(*within))
    return KpiReport(
        roc_ad=roc_ad,
        roc_sent=roc_sent,
        avg=(roc_ad + roc_sent) / 2,
        per_ad_scores=details,
    )


def single_au_baselines(
    per_ad: Sequence[Sequence[AggregateCurve]],
    ads: Mapping[str, AdSpec],
    guard_s: float = 0.0,
) -> list[KpiReport]:
    """KPIs obtained by using each raw AU activation as the score.

    ``per_ad`` holds, for each ad, its 20 AU curves in canonical order, as
    ``aggregate_columns`` gives them for the ad's face frames. Returns one
    report per AU in canonical order. These are the single-marker reference
    points the trained model has to beat.
    """
    return [evaluate_kpis([curves[k] for curves in per_ad], ads, guard_s)
            for k in range(N_AUS)]


def chance_baseline(
    per_ad: Sequence[Sequence[AggregateCurve]],
    ads: Mapping[str, AdSpec],
    guard_s: float = 0.0,
) -> KpiReport:
    """KPIs with every frame scored a constant 0.5: all-ties, so both land
    at 0.5 exactly. Kept as an explicit column to anchor the table.

    ``per_ad`` is what ``single_au_baselines`` takes. Binning constant 0.5
    scores gives 0.5 in every bin: a populated bin's mean of 0.5 per
    participant is exactly 0.5, and interpolating between 0.5 knots stays
    0.5. So each ad's curve takes the ``step_s`` and ``counts`` of its first
    AU curve: those counts depend on the frame timestamps alone, so they are
    the counts that binning the 0.5 scores gives."""
    curves = [AggregateCurve(c.ad_id, c.step_s, np.full(c.n_bins, 0.5), c.counts)
              for c, *_ in per_ad]
    return evaluate_kpis(curves, ads, guard_s)


def write_kpi_report(
    report: KpiReport, path: str | Path, metadata: Mapping[str, object] | None = None
) -> None:
    payload: dict[str, object] = {
        "roc_ad": report.roc_ad,
        "roc_sent": report.roc_sent,
        "avg": report.avg,
        # AdScore's fields in declaration order: label, then the three maxima
        "per_ad": [{"ad_id": ad_id, **asdict(d)}
                   for ad_id, d in sorted(report.per_ad_scores.items())],
    }
    if metadata is not None:
        payload["metadata"] = dict(metadata)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_kpi_table_csv(
    chance: KpiReport,
    per_au: Sequence[KpiReport],
    model: KpiReport,
    path: str | Path,
) -> None:
    """Rows ROC-Ad / ROC-Sent / Avg; columns chance, the 20 AUs, model."""
    if len(per_au) != len(CANONICAL_AU_NAMES):
        raise ValidationError(
            f"expected {len(CANONICAL_AU_NAMES)} per-AU reports, got {len(per_au)}")
    columns = [("chance", chance), *zip(CANONICAL_AU_NAMES, per_au), ("model", model)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric"] + [name for name, _ in columns])
        for row_name, attr in (("ROC-Ad", "roc_ad"), ("ROC-Sent", "roc_sent"),
                               ("Avg", "avg")):
            writer.writerow(
                [row_name] + [repr(getattr(r, attr)) for _, r in columns])

