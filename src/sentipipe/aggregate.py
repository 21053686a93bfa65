"""Turning per-frame scores into per-ad curves.

A curve has one bin per ``step_s`` seconds of ad time, bin b covering
[b * step_s, (b + 1) * step_s). Each participant contributes the mean of
their frame scores inside a bin; the bin value is the mean over contributing
participants, so participants with different frame rates carry equal weight.
Bins nobody's frames landed in are filled by linear interpolation between
populated neighbours (edge gaps copy the nearest populated bin) and have a
participant count of 0.
"""

from __future__ import annotations

import csv
import math
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (_DECIMAL, _INTEGER, N_AUS, AggregateCurve, Interval, VideoRecord,
                   csv_rows, number_cells)
from .errors import ConfigError, DegenerateData, SchemaError, ValidationError
from .mlp import MlpParams, _forward_batch

DEFAULT_STEP_S = 0.5

CURVE_CSV_COLUMNS = ("ad_id", "step_s", "timestamp_s", "mean_score", "participant_count")
_check_curve_numbers = number_cells((("step_s", _DECIMAL), ("timestamp_s", _DECIMAL),
                                     ("mean_score", _DECIMAL), ("participant_count", _INTEGER)))


def n_bins_for(duration_s: float, step_s: float = DEFAULT_STEP_S) -> int:
    """Number of bins covering [0, duration). At least 1 even for tiny ads."""
    if not math.isfinite(duration_s) or duration_s <= 0:
        raise ValidationError(f"duration_s must be finite and > 0, got {duration_s}")
    if not math.isfinite(step_s) or step_s <= 0:
        raise ConfigError(f"step_s must be finite and > 0, got {step_s}")
    # the 1e-9 slack keeps exact multiples (10.0 / 0.5) from gaining a bin when the quotient
    # lands a hair above an integer; numpy shapes no array of over intp.max bytes
    bins = duration_s / step_s - 1e-9
    if not bins < np.iinfo(np.intp).max // (8 * N_AUS):
        raise ConfigError(f"duration_s {duration_s} over step_s {step_s} is more bins "
                          f"than a {N_AUS}-column float64 array can hold")
    return max(1, math.ceil(bins))


def face_frames(video: VideoRecord) -> tuple[np.ndarray, np.ndarray]:
    """(timestamps (n,), AU scores (n, 20)) over the face-detected frames,
    as float64 arrays in frame order."""
    f = video.frames.view(np.ndarray)  # plain field lookups: recarray attributes cost more
    face = f["face_detected"]
    return f["timestamp_s"][face], f["aus"][face]


def score_video(params: MlpParams, video: VideoRecord) -> tuple[np.ndarray, np.ndarray]:
    """Model scores for every face-detected frame of one video.

    Returns (timestamps, scores) as float64 arrays in frame order; both are
    empty when the video has no face frames.
    """
    ts, aus = face_frames(video)
    p, _ = _forward_batch(params, aus)
    return ts, p


def _two_sum_cascade(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, err) for a (p, c) array, p >= 1: s the float sum of each column,
    added row after row, and err (p - 1, c) the rounding error of each of
    those additions (Knuth's TwoSum), so that each column's exact sum is s
    plus the exact sum of err's column, barring overflow."""
    err = np.empty((len(x) - 1, x.shape[1]))
    s = x[0]
    # a numpy call per row: on a row of all (bin, column) cells, a loop runs
    # faster than np.cumsum or a pairwise tree over the whole array
    for b, row_err in zip(x[1:], err):
        t = s + b
        b_part = t - s
        np.add(s - (t - b_part), b - b_part, out=row_err)
        s = t
    return s, err


def _exact_sum(x: np.ndarray) -> np.ndarray:
    """Column sums of a (p, c) float64 array of finite values, p >= 1: the
    exact sum rounded once, so independent of the row order, and bit-equal
    to ``math.fsum`` of the column wherever fsum gives a finite sum. Raises
    ValidationError where a sum, or fsum's partial sums, overflow float64."""
    if len(x) == 1:
        return x[0] + 0.0  # fsum gives +0.0 for -0.0
    # a column whose partial sums overflow ends in the fsum fallback below
    with np.errstate(over="ignore", invalid="ignore"):
        s, err = _two_sum_cascade(x)
        e, err2 = _two_sum_cascade(err)
        # where err2 is all 0, e is err's exact sum and the column's exact sum
        # is s + e; one IEEE addition rounds that as fsum does, ties to even.
        # TwoSum never gives an error of -0.0, so e is no -0.0 and a zero sum
        # comes out as fsum's +0.0
        total = s + e
    for j in np.flatnonzero((err2 != 0).any(axis=0) | ~np.isfinite(total)):
        try:
            total[j] = math.fsum(x[:, j])
        except OverflowError:
            total[j] = math.inf
    if not np.isfinite(total).all():
        raise ValidationError("a bin's sum over participants overflows float64")
    return total


def aggregate_columns(
    ad_id: str,
    per_participant: Sequence[tuple[np.ndarray, np.ndarray]],
    duration_s: float,
    step_s: float = DEFAULT_STEP_S,
) -> tuple[AggregateCurve, ...]:
    """Build one curve per score column of one ad in a single binning pass.

    Each participant gives (timestamps (f,), scores (f, k)); the result holds
    k curves, column j's curve equal to ``aggregate_scores`` on column j
    alone. Frames outside the bin domain are ignored. All participants'
    frames are binned together by two ``np.bincount`` calls, which add each
    participant's frames of a bin in frame order. A bin's participant means
    are summed exactly and rounded once, bit-equal to ``math.fsum``, so the
    result is independent of participant order. The k curves share one
    ``counts`` array, which depends on the timestamps alone. Raises
    ValidationError for a NaN or infinite timestamp or score, and for a bin
    sum that overflows float64; DegenerateData when no frame falls inside
    the bins. Bins are interpolated only when some bin is empty. The (k, n)
    block of bin values and ``counts`` are checked once, as the
    AggregateCurve constructor checks a curve's, and each curve holds a
    read-only row view of the block.
    """
    n = n_bins_for(duration_s, step_s)
    stamps, columns = [], []
    for ts, scores in per_participant:
        ts, scores = np.asarray(ts, dtype=np.float64), np.asarray(scores, dtype=np.float64)
        if ts.ndim != 1:
            raise ValidationError("each participant's timestamps must be a 1-D array")
        if scores.ndim != 2 or len(scores) != len(ts) or (
                columns and scores.shape[1] != columns[0].shape[1]):
            raise ValidationError("timestamps and scores must have equal length, "
                                  "and every participant the same score columns")
        stamps.append(ts)
        columns.append(scores)
    scores = np.concatenate(columns) if columns else np.empty((0, 1))
    if not np.isfinite(scores).all():
        raise ValidationError(f"ad {ad_id!r}: frame scores must be finite")
    ts = np.concatenate(stamps) if stamps else np.empty(0)
    if not np.isfinite(ts).all():
        raise ValidationError(f"ad {ad_id!r}: frame timestamps must be finite")
    # each participant p gets n + 1 cells: its n bins, then one for its frames
    # outside [0, n * step_s). A bin index is compared in float before the
    # int64 cast, so a finite timestamp far outside the domain, or one whose
    # quotient overflows to inf, is dropped
    with np.errstate(over="ignore"):
        b = np.floor(ts / step_s)
    b = np.where((b >= 0) & (b < n), b, n).astype(np.int64)
    p, k = len(columns), scores.shape[1]
    cells = np.repeat(np.arange(0, p * (n + 1), n + 1), [len(t) for t in stamps]) + b
    frames = np.bincount(cells, minlength=p * (n + 1)).reshape(p, n + 1)[:, :n]
    counts = np.count_nonzero(frames, axis=0)
    if not counts.any():
        raise DegenerateData(f"ad {ad_id!r}: no scored frames fall inside [0, {n * step_s})")
    populated = np.flatnonzero(counts)
    # bincount adds each (participant, bin, column) cell's frames in frame
    # order, so each sum is the one a bincount over that participant alone gives
    sums = np.bincount((cells[:, None] * k + np.arange(k)).ravel(), weights=scores.ravel(),
                       minlength=p * (n + 1) * k).reshape(p, n + 1, k)[:, populated]
    if not np.isfinite(sums).all():
        raise ValidationError(f"ad {ad_id!r}: a participant's bin sum overflows float64")
    # 0.0 where a participant has no frames in the bin: it adds nothing to the sum
    means = sums / np.maximum(frames[:, populated], 1)[:, :, None]
    knots = _exact_sum(means.reshape(p, -1)).reshape(-1, k) / counts[populated, None]
    values = np.empty((k, n))
    if len(populated) < n:
        for j in range(k):
            values[j] = np.interp(np.arange(n), populated, knots[:, j])
    # np.interp may perturb knot values by an ulp; keep measured bins exact
    values[:, populated] = knots.T
    np.clip(values, 0.0, 1.0, out=values)
    counts = counts.astype(np.int64, copy=False)
    # the comparisons are False for NaN, so NaN values fail here too
    if not (((values >= 0.0) & (values <= 1.0)).all() and (counts >= 0).all()):
        raise ValidationError(f"curve for ad {ad_id!r}: scores must lie in [0, 1], counts >= 0")
    values.flags.writeable = counts.flags.writeable = False
    # n_bins_for has checked step_s, and the block has passed the check that
    # AggregateCurve runs on each curve
    return tuple(AggregateCurve._from_checked(ad_id, float(step_s), row, counts) for row in values)


def aggregate_scores(
    ad_id: str,
    per_participant: Sequence[tuple[np.ndarray, np.ndarray]],
    duration_s: float,
    step_s: float = DEFAULT_STEP_S,
) -> AggregateCurve:
    """Build the curve for one ad from per-participant (timestamps, scores):
    ``aggregate_columns`` with a single score column."""
    return aggregate_columns(
        ad_id, [(ts, np.reshape(scores, (-1, 1))) for ts, scores in per_participant],
        duration_s, step_s)[0]


def aggregate_ad(
    params: MlpParams,
    ad_id: str,
    videos: Sequence[VideoRecord],
    duration_s: float,
    step_s: float = DEFAULT_STEP_S,
) -> AggregateCurve:
    """Score every video of one ad and aggregate into its curve."""
    scored = [score_video(params, v) for v in videos]
    return aggregate_scores(ad_id, scored, duration_s, step_s)


def interval_bins(n_bins: int, step_s: float, interval: Interval) -> tuple[int, int]:
    """(first, last_excl): the bins of an n_bins curve at step_s whose start
    lies in [start, end).

    When the interval is too narrow to contain any bin start, it falls back
    to the single bin containing its start. Raises DegenerateData when the
    interval lies entirely outside the curve domain.
    """
    first = max(0, math.ceil(interval.start_s / step_s - 1e-9))
    last_excl = min(n_bins, math.ceil(interval.end_s / step_s - 1e-9))
    if first >= last_excl:
        k = math.floor(interval.start_s / step_s + 1e-9)
        if not 0 <= k < n_bins:
            raise DegenerateData(
                f"interval [{interval.start_s}, {interval.end_s}) lies outside "
                f"the curve domain [0, {n_bins * step_s})")
        first, last_excl = k, k + 1
    return first, last_excl


def max_over_interval(curve: AggregateCurve, interval: Interval) -> float:
    """Maximum bin value over the bins ``interval_bins`` gives for the
    interval."""
    first, last_excl = interval_bins(curve.n_bins, curve.step_s, interval)
    return float(curve.scores[first:last_excl].max())


def write_curves_csv(curves: Sequence[AggregateCurve], path: str | Path) -> None:
    """One row per bin, curves in the given order. repr() floats round-trip."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CURVE_CSV_COLUMNS)
        for curve in curves:
            # Python floats and ints: repr of a numpy scalar is not a number
            stamps = (np.arange(curve.n_bins) * curve.step_s).tolist()
            writer.writerows(zip(repeat(curve.ad_id), repeat(repr(curve.step_s)),
                                 map(repr, stamps), map(repr, curve.scores.tolist()),
                                 curve.counts.tolist()))


def read_curves_csv(path: str | Path) -> list[AggregateCurve]:
    """Parse a curves CSV back into AggregateCurve objects.

    Rows of one ad must be contiguous, carry one step_s, and come in bin
    order: bin b's timestamp_s is exactly b * step_s, the product the writer
    wrote. Each row is checked as it is read, so an error names its file:line.
    """
    bins: dict[str, tuple[float, list[tuple[float, int]]]] = {}  # ad_id -> step, (score, count)s
    last_ad: str | None = None
    for where, (ad_id, step_s, ts_s, score_s, count_s) in csv_rows(path, CURVE_CSV_COLUMNS):
        if not ad_id:
            raise SchemaError(f"{where}: empty ad_id")
        _check_curve_numbers(where, (step_s, ts_s, score_s, count_s))
        try:
            step, ts, score, count = float(step_s), float(ts_s), float(score_s), int(count_s)
        except ValueError as exc:  # int() refuses more than 4300 digits
            raise SchemaError(f"{where}: {exc}") from exc
        # also false for NaN; counts are stored as int64
        if not (0.0 < step < math.inf and 0.0 <= score <= 1.0 and 0 <= count < 2 ** 63):
            raise SchemaError(f"{where}: step_s must be finite and > 0, "
                              f"mean_score in [0, 1], participant_count in [0, 2**63)")
        if ad_id != last_ad:
            if ad_id in bins:
                raise SchemaError(f"{where}: rows for ad {ad_id!r} are not contiguous")
            last_ad, (ad_step, rows) = ad_id, bins.setdefault(ad_id, (step, []))
        if step != ad_step:
            raise SchemaError(f"{where}: ad {ad_id!r} changes step_s from {ad_step!r} to {step!r}")
        if ts != len(rows) * step:
            raise SchemaError(f"{where}: ad {ad_id!r}: bin {len(rows)} timestamp {ts!r} "
                              f"breaks the arithmetic progression with step {step!r}")
        rows.append((score, count))
    return [AggregateCurve(ad_id, step, *zip(*rows)) for ad_id, (step, rows) in bins.items()]


def export_curve_svg(
    curve: AggregateCurve,
    path: str | Path,
    moments: Sequence[Interval] = (),
) -> None:
    """Render one curve as a standalone SVG line chart.

    Moments are shaded behind the line. Purely cosmetic output; numbers are
    formatted to fixed precision so reruns are byte-identical.
    """
    width, height = 640, 240
    pad_l, pad_r, pad_t, pad_b = 42.0, 12.0, 12.0, 30.0
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b
    t_max = curve.domain_end_s

    def x_of(t: float) -> float:
        return pad_l + plot_w * min(max(t / t_max, 0.0), 1.0)

    def y_of(score: float) -> float:
        return pad_t + plot_h * (1.0 - score)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for m in moments:
        x0, x1 = x_of(m.start_s), x_of(m.end_s)
        parts.append(
            f'<rect x="{x0:.2f}" y="{pad_t:.2f}" width="{x1 - x0:.2f}" '
            f'height="{plot_h:.2f}" fill="#f3c6c6"/>')
    for frac in (0.0, 0.5, 1.0):
        y = y_of(frac)
        parts.append(
            f'<line x1="{pad_l:.2f}" y1="{y:.2f}" x2="{pad_l + plot_w:.2f}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(
            f'<text x="{pad_l - 6:.2f}" y="{y + 4:.2f}" font-size="11" '
            f'font-family="sans-serif" text-anchor="end">{frac:.1f}</text>')
    # the ad id as XML text; & goes first so the other entities stay intact
    caption = curve.ad_id.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    step = curve.step_s
    pts = " ".join(
        f"{x_of(b * step + step / 2):.2f},{y_of(score):.2f}"
        for b, score in enumerate(curve.scores.tolist()))
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#2b6cb0" stroke-width="2"/>')
    parts.append(
        f'<text x="{pad_l:.2f}" y="{height - 8:.2f}" font-size="11" '
        f'font-family="sans-serif">{caption} '
        f'(0 to {t_max:g} s, step {curve.step_s:g} s)</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
