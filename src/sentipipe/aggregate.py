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

from .core import AggregateCurve, Interval, VideoRecord, not_utf8
from .errors import ConfigError, EmptyInterval, NoPredictions, SchemaError, ValidationError
from .mlp import MlpParams, _forward_batch

DEFAULT_STEP_S = 0.5

CURVE_CSV_COLUMNS = ("ad_id", "timestamp_s", "mean_score", "participant_count")


def n_bins_for(duration_s: float, step_s: float = DEFAULT_STEP_S) -> int:
    """Number of bins covering [0, duration). At least 1 even for tiny ads."""
    if not math.isfinite(duration_s) or duration_s <= 0:
        raise ValidationError(f"duration_s must be finite and > 0, got {duration_s}")
    if not math.isfinite(step_s) or step_s <= 0:
        raise ConfigError(f"step_s must be finite and > 0, got {step_s}")
    # the 1e-9 slack keeps exact multiples (10.0 / 0.5) from gaining a bin
    # when the quotient lands a hair above an integer
    return max(1, math.ceil(duration_s / step_s - 1e-9))


def face_frames(video: VideoRecord) -> tuple[np.ndarray, np.ndarray]:
    """(timestamps (n,), AU scores (n, 20)) over the face-detected frames,
    as float64 arrays in frame order."""
    f = video.frames
    return f.timestamp_s[f.face_detected], f.aus[f.face_detected]


def score_video(params: MlpParams, video: VideoRecord) -> tuple[np.ndarray, np.ndarray]:
    """Model scores for every face-detected frame of one video.

    Returns (timestamps, scores) as float64 arrays in frame order; both are
    empty when the video has no face frames.
    """
    ts, aus = face_frames(video)
    p, _ = _forward_batch(params, aus)
    return ts, p


def _frame_bins(ts: np.ndarray, n: int, step_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Each frame's bin index, and which frames fall inside the n bins."""
    b = np.floor(ts / step_s).astype(np.int64)
    return b, (b >= 0) & (b < n)


def _populated_bins(ad_id: str, counts: np.ndarray, step_s: float) -> np.ndarray:
    """Indices of the bins some participant has frames in; NoPredictions if none."""
    populated = np.flatnonzero(counts)
    if populated.size == 0:
        raise NoPredictions(
            f"ad {ad_id!r}: no scored frames fall inside [0, {len(counts) * step_s})")
    return populated


def participant_counts(
    ad_id: str,
    per_participant: Sequence[np.ndarray],
    duration_s: float,
    step_s: float = DEFAULT_STEP_S,
) -> np.ndarray:
    """Per bin of one ad's curve, the number of participants with a frame in
    it: the ``counts`` that ``aggregate_columns`` gives for these frame
    timestamps, whatever the scores. Raises NoPredictions when all are 0."""
    n = n_bins_for(duration_s, step_s)
    counts = np.zeros(n, dtype=np.int64)
    for ts in per_participant:
        b, keep = _frame_bins(np.asarray(ts, dtype=np.float64), n, step_s)
        counts += np.bincount(b[keep], minlength=n) > 0
    _populated_bins(ad_id, counts, step_s)
    return counts


def aggregate_columns(
    ad_id: str,
    per_participant: Sequence[tuple[np.ndarray, np.ndarray]],
    duration_s: float,
    step_s: float = DEFAULT_STEP_S,
) -> tuple[AggregateCurve, ...]:
    """Build one curve per score column of one ad in a single binning pass.

    Each participant gives (timestamps (f,), scores (f, k)); the result holds
    k curves, column j's curve equal to ``aggregate_scores`` on column j
    alone. Frames outside the bin domain are ignored. The result is
    independent of participant order: the across-participant mean uses exact
    summation.
    """
    n = n_bins_for(duration_s, step_s)
    counts = np.zeros(n, dtype=np.int64)  # participants with frames in each bin
    means = []  # per participant: (n, k) bin means, 0.0 where it has no frames
    for ts, scores in per_participant:
        ts, scores = np.asarray(ts, dtype=np.float64), np.asarray(scores, dtype=np.float64)
        if ts.ndim != 1 or scores.ndim != 2 or len(scores) != len(ts) or (
                means and scores.shape[1] != means[0].shape[1]):
            raise ValidationError("timestamps and scores must have equal length, "
                                  "and every participant the same score columns")
        k = scores.shape[1]
        b, keep = _frame_bins(ts, n, step_s)
        b, scores = b[keep], scores[keep]
        frames = np.bincount(b, minlength=n)
        # bincount adds in frame order, so each (bin, column) sum is the one a
        # bincount over that column alone gives
        sums = np.bincount((b[:, None] * k + np.arange(k)).ravel(),
                           weights=scores.ravel(), minlength=n * k)
        means.append(sums.reshape(n, k) / np.maximum(frames, 1)[:, None])
        counts += frames > 0
    populated = _populated_bins(ad_id, counts, step_s)
    # fsum is exactly rounded, so a bin's mean does not depend on the order
    # participants were listed in, and an absent one's 0.0 changes nothing
    rows = np.stack(means)[:, populated].reshape(len(means), -1).T.tolist()
    knots = (np.fromiter(map(math.fsum, rows), float, len(rows)).reshape(-1, k)
             / counts[populated, None])
    values = np.empty((k, n))
    for j in range(k):
        values[j] = np.interp(np.arange(n), populated, knots[:, j])
    # np.interp may perturb knot values by an ulp; keep measured bins exact
    values[:, populated] = knots.T
    np.clip(values, 0.0, 1.0, out=values)
    values.flags.writeable = counts.flags.writeable = False
    return tuple(AggregateCurve(ad_id, step_s, row, counts) for row in values)


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


def max_over_interval(curve: AggregateCurve, interval: Interval) -> float:
    """Maximum bin value over the bins whose start lies in [start, end).

    When the interval is too narrow to contain any bin start, it falls back
    to the single bin containing its start. Raises EmptyInterval when the
    interval lies entirely outside the curve domain.
    """
    n = curve.n_bins
    step = curve.step_s
    first = max(0, math.ceil(interval.start_s / step - 1e-9))
    last_excl = min(n, math.ceil(interval.end_s / step - 1e-9))
    if first >= last_excl:
        k = math.floor(interval.start_s / step + 1e-9)
        if not 0 <= k < n:
            raise EmptyInterval(
                f"interval [{interval.start_s}, {interval.end_s}) lies outside "
                f"the curve domain [0, {curve.domain_end_s})")
        first, last_excl = k, k + 1
    return float(curve.scores[first:last_excl].max())


def write_curves_csv(curves: Sequence[AggregateCurve], path: str | Path) -> None:
    """One row per bin, curves in the given order. repr() floats round-trip."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CURVE_CSV_COLUMNS)
        for curve in curves:
            # Python floats and ints: repr of a numpy scalar is not a number
            stamps = (np.arange(curve.n_bins) * curve.step_s).tolist()
            writer.writerows(zip(repeat(curve.ad_id), map(repr, stamps),
                                 map(repr, curve.scores.tolist()), curve.counts.tolist()))


def read_curves_csv(path: str | Path) -> list[AggregateCurve]:
    """Parse a curves CSV back into AggregateCurve objects.

    Rows of one ad must be contiguous and in bin order, bin b at timestamp
    b * step_s. A single-bin curve does not pin down its own step, so the
    default step is assumed there.
    """
    rows: dict[str, list[tuple[float, float, int]]] = {}  # ad_id -> its bins
    last_ad: str | None = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file")
            if tuple(header) != CURVE_CSV_COLUMNS:
                raise SchemaError(f"{path}: expected header {','.join(CURVE_CSV_COLUMNS)}")
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if len(row) != 4:
                    raise SchemaError(f"{where}: expected 4 cells, got {len(row)}")
                ad_id, ts_s, score_s, count_s = row
                if not ad_id:
                    raise SchemaError(f"{where}: empty ad_id")
                if ad_id in rows and ad_id != last_ad:
                    raise SchemaError(f"{where}: rows for ad {ad_id!r} are not contiguous")
                try:
                    ts, score, count = float(ts_s), float(score_s), int(count_s)
                except ValueError as exc:
                    raise SchemaError(f"{where}: {exc}") from exc
                # also false for NaN; counts are stored as int64
                if not (0.0 <= ts < math.inf and 0.0 <= score <= 1.0 and 0 <= count < 2 ** 63):
                    raise SchemaError(f"{where}: timestamp_s must be finite and >= 0, "
                                      f"mean_score in [0, 1], participant_count in [0, 2**63)")
                rows.setdefault(ad_id, []).append((ts, score, count))
                last_ad = ad_id
        except csv.Error as exc:
            raise SchemaError(f"{path}:{reader.line_num}: {exc}") from exc
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    curves = []
    for ad_id, bins in rows.items():
        stamps, scores, counts = zip(*bins)
        step = stamps[1] - stamps[0] if len(stamps) > 1 else DEFAULT_STEP_S
        try:
            curve = AggregateCurve(ad_id=ad_id, step_s=step, scores=scores, counts=counts)
        except ValidationError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
        for b, ts in enumerate(stamps):
            if abs(ts - b * curve.step_s) > 1e-9:
                raise SchemaError(f"{path}: curve for ad {ad_id!r}: bin {b} timestamp {ts} "
                                  f"breaks the arithmetic progression with step {curve.step_s}")
        curves.append(curve)
    return curves


def export_curve_svg(
    curve: AggregateCurve,
    path: str | Path,
    moments: Sequence[Interval] = (),
    width: int = 640,
    height: int = 240,
) -> None:
    """Render one curve as a standalone SVG line chart.

    Moments are shaded behind the line. Purely cosmetic output; numbers are
    formatted to fixed precision so reruns are byte-identical.
    """
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
    step = curve.step_s
    pts = " ".join(
        f"{x_of(b * step + step / 2):.2f},{y_of(score):.2f}"
        for b, score in enumerate(curve.scores.tolist()))
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#2b6cb0" stroke-width="2"/>')
    parts.append(
        f'<text x="{pad_l:.2f}" y="{height - 8:.2f}" font-size="11" '
        f'font-family="sans-serif">{curve.ad_id} '
        f'(0 to {t_max:g} s, step {curve.step_s:g} s)</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
