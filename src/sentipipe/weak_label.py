"""Weak frame labeling from ad-level annotations.

Frame-level ground truth does not exist; the only supervision is which ads are
sentimental and where their sentimental moments lie. The rules here turn that
into per-frame training examples:

  * a face frame inside a labeled moment with at least ``min_active_positive``
    active AUs is a positive,
  * a face frame inside a moment with fewer active AUs is discarded as
    ambiguous,
  * every face frame outside the moments is a negative, with or without
    active AUs,
  * frames without a detected face are skipped.

Videos of non-sentimental ads contribute nothing unless
``include_nonsentimental_ads`` is set, in which case all their face frames
become negatives.
"""

from __future__ import annotations

import io
import json
import numbers
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import AdSpec, Examples, Interval, N_AUS, VideoRecord, read_text, require_int, strict
from .errors import ConfigError, SchemaError, UnknownAdId, ValidationError

DEFAULT_ACTIVATION_THRESHOLD = 0.5

_EXAMPLE_KEYS = {"video_id", "frame_index", "label", "aus"}
_STR, _INT, _FLOAT = strict(str), strict(int), strict(float)


@dataclass(frozen=True, slots=True)
class LabelingConfig:
    activation_threshold: float = DEFAULT_ACTIVATION_THRESHOLD
    min_active_positive: int = 2
    include_nonsentimental_ads: bool = False

    def __post_init__(self) -> None:
        t = self.activation_threshold  # the comparisons are False for NaN too
        if isinstance(t, bool) or not (isinstance(t, numbers.Real) and 0.0 < t < 1.0):
            raise ConfigError(f"activation_threshold must be a number in (0, 1), got {t!r}")
        require_int("min_active_positive", self.min_active_positive, 1)
        if not isinstance(self.include_nonsentimental_ads, bool):
            raise ConfigError(f"include_nonsentimental_ads must be a bool, "
                              f"got {self.include_nonsentimental_ads!r}")


@dataclass(frozen=True, slots=True)
class LabelSummary:
    positives: int
    negatives: int
    ratio: float | None  # negatives per positive; inf when positives == 0, None when empty


def frame_in_moments(
    timestamp_s: float | np.ndarray, moments: Sequence[Interval]
) -> bool | np.ndarray:
    """True where a timestamp falls inside any moment, for one timestamp or
    an array of them. Intervals are half-open, so a frame exactly at a
    moment's end_s is outside it."""
    inside = np.zeros(np.shape(timestamp_s), dtype=bool)
    for m in moments:
        inside |= (timestamp_s >= m.start_s) & (timestamp_s < m.end_s)
    return inside[()]


def extract_examples(
    videos: Iterable[VideoRecord],
    ads: Mapping[str, AdSpec],
    config: LabelingConfig = LabelingConfig(),
) -> Examples:
    """Apply the weak labeling rules to coverage-filtered videos.

    The videos are taken in video_id order and each one's rows in frame order,
    so the result does not depend on the order of the input videos. Two videos
    with one video_id raise ValidationError.
    """
    video_ids: list[str] = []
    # one empty part first, so that no video at all gives empty columns
    parts = [(np.empty(0, np.int64), np.empty(0, bool), np.empty((0, N_AUS)))]
    previous = None
    for video in sorted(videos, key=attrgetter("video_id")):
        if video.video_id == previous:
            raise ValidationError(f"duplicate video_id {video.video_id!r}")
        previous = video.video_id
        ad = ads.get(video.ad_id)
        if ad is None:
            raise UnknownAdId(
                f"video {video.video_id!r} references unknown ad {video.ad_id!r}")
        if not ad.is_sentimental and not config.include_nonsentimental_ads:
            continue
        frames = video.frames
        inside = frame_in_moments(frames.timestamp_s, ad.moments)
        active = (frames.aus >= config.activation_threshold).sum(axis=1)
        positive = inside & (active >= config.min_active_positive)
        # in-moment frames below the activity bar are too ambiguous to keep
        keep = frames.face_detected & (positive | ~inside)
        video_ids += [video.video_id] * int(keep.sum())
        parts.append((frames.frame_index[keep], positive[keep], frames.aus[keep]))
    return Examples(tuple(video_ids), *(np.concatenate(column) for column in zip(*parts)))


def label_summary(examples: Examples) -> LabelSummary:
    positives = int(examples.label.sum())
    negatives = len(examples) - positives
    ratio = negatives / positives if positives else float("inf") if negatives else None
    return LabelSummary(positives=positives, negatives=negatives, ratio=ratio)


def write_examples_jsonl(examples: Examples, path: str | Path) -> None:
    """Write examples as JSON lines, one object per example."""
    with open(path, "w", encoding="utf-8") as fh:
        for video_id, index, label, aus in zip(
                examples.video_id, examples.frame_index.tolist(),
                examples.label.tolist(), examples.aus.tolist()):
            fh.write(json.dumps(
                {"video_id": video_id, "frame_index": index, "label": label, "aus": aus}))
            fh.write("\n")


def read_examples_jsonl(path: str | Path) -> Examples:
    """Read examples written by write_examples_jsonl, each line checked as it
    is read, so that an error names its ``file:line``. Blank lines are skipped."""
    rows: list[tuple[str, int, int, list[float]]] = []
    for lineno, line in enumerate(io.StringIO(read_text(path)), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}:{lineno}: not valid JSON ({exc})") from exc
        if not isinstance(obj, dict) or set(obj) != _EXAMPLE_KEYS:
            raise SchemaError(
                f"{path}:{lineno}: expected exactly the keys {sorted(_EXAMPLE_KEYS)}")
        aus = obj["aus"]
        if not isinstance(aus, list) or len(aus) != N_AUS:
            raise SchemaError(f"{path}:{lineno}: aus must be a list of {N_AUS} numbers")
        try:
            video_id, index = _STR(obj["video_id"]), _INT(obj["frame_index"])
            label, row = _INT(obj["label"]), [_FLOAT(s) for s in aus]
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from exc
        # also false for NaN scores
        if not (video_id and 0 <= index < 2 ** 63 and label in (0, 1)
                and all(0.0 <= s <= 1.0 for s in row)):
            raise ValidationError(
                f"{path}:{lineno}: needs a non-empty video_id, a frame_index in "
                f"[0, 2**63), a label of 0 or 1 and AU scores in [0, 1]")
        rows.append((video_id, index, label, row))
    video_ids, indices, labels, scores = zip(*rows) if rows else ((),) * 4
    return Examples(video_ids, np.array(indices, np.int64), np.array(labels, np.int64),
                    np.array(scores, np.float64).reshape(-1, N_AUS))
