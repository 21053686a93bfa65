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

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import AdSpec, AuVector, Interval, LabeledExample, N_AUS, VideoRecord, strict
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
        if not 0.0 < self.activation_threshold < 1.0:
            raise ConfigError(
                f"activation_threshold must lie in (0, 1), got {self.activation_threshold}")
        if self.min_active_positive < 1:
            raise ConfigError(
                f"min_active_positive must be >= 1, got {self.min_active_positive}")


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
) -> list[LabeledExample]:
    """Apply the weak labeling rules to coverage-filtered videos.

    The result is sorted by (video_id, frame_index), so it does not depend on
    the order of the input videos.
    """
    out: list[LabeledExample] = []
    for video in videos:
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
        for index, label, aus in zip(frames.frame_index[keep].tolist(),
                                     positive[keep].tolist(),
                                     frames.aus[keep].tolist()):
            out.append(LabeledExample(AuVector(aus), int(label), (video.video_id, index)))
    out.sort(key=lambda ex: ex.source)
    return out


def label_summary(examples: Sequence[LabeledExample]) -> LabelSummary:
    positives = sum(1 for ex in examples if ex.label == 1)
    negatives = len(examples) - positives
    if positives:
        ratio: float | None = negatives / positives
    elif negatives:
        ratio = float("inf")
    else:
        ratio = None
    return LabelSummary(positives=positives, negatives=negatives, ratio=ratio)


def write_examples_jsonl(examples: Iterable[LabeledExample], path: str | Path) -> None:
    """Write examples as JSON lines, one object per example."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({
                "video_id": ex.source[0],
                "frame_index": ex.source[1],
                "label": ex.label,
                "aus": list(ex.aus.scores),
            }))
            fh.write("\n")


def read_examples_jsonl(path: str | Path) -> list[LabeledExample]:
    examples: list[LabeledExample] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
                label, scores = _INT(obj["label"]), [_FLOAT(s) for s in aus]
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from exc
            try:
                examples.append(LabeledExample(AuVector(scores), label, (video_id, index)))
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return examples
