"""Domain types for the sentimentality pipeline.

Everything downstream (ingestion, weak labeling, the classifier, aggregation,
KPIs) speaks in terms of these containers. They are frozen dataclasses that
validate their invariants at construction time, so an instance that exists is
an instance that is well formed.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, SchemaError, SentiPipeError, UnknownAuName, ValidationError

# Fixed AU ordering used for every score vector, file column set, and report
# column. The last three entries are compound expressions emitted by the same
# detector bank as the numbered action units.
CANONICAL_AU_NAMES: tuple[str, ...] = (
    "AU1", "AU2", "AU4", "AU5", "AU6", "AU7", "AU9", "AU10", "AU14", "AU15",
    "AU17", "AU18", "AU20", "AU24", "AU25", "AU26", "AU28",
    "EyeClosure", "Smile", "Smirk",
)
N_AUS = len(CANONICAL_AU_NAMES)

_INDEX_BY_LOWER_NAME = {name.lower(): i for i, name in enumerate(CANONICAL_AU_NAMES)}


def strict(kind: type) -> Callable[[object], object]:
    """Coercer that takes only JSON values of one kind: bool is never a
    number, integer fields take integers only, and float fields also take
    integers. A wrong kind raises TypeError, an unrepresentable value
    ValueError."""
    accepted = (int, float) if kind is float else kind

    def coerce(value: object) -> object:
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            raise TypeError(f"expected a JSON {kind.__name__}, got {value!r}")
        try:
            return kind(value)
        except OverflowError as exc:  # an integer too large for a float
            raise ValueError(f"{value!r} is out of range ({exc})") from None
    return coerce


def require_int(name: str, value: object, minimum: int) -> None:
    """Raise ConfigError unless value is an integer (never a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def not_utf8(path: str | Path, error: type[SentiPipeError] = SchemaError) -> SentiPipeError:
    """The error for a file that is not UTF-8 text, naming its first bad line."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return error(f"{path}:{lineno}: not UTF-8 text ({exc.reason})")
    return error(f"{path}: not UTF-8 text")


def read_text(path: str | Path, error: type[SentiPipeError] = SchemaError) -> str:
    """A whole UTF-8 text file; any other file raises error, see not_utf8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise not_utf8(path, error) from None


def canonical_au_index(name: str) -> int:
    """Map an AU name (case-insensitive) to its fixed position in 0..19."""
    try:
        return _INDEX_BY_LOWER_NAME[name.lower()]
    except (KeyError, AttributeError):
        raise UnknownAuName(f"unknown AU name: {name!r}") from None


# One row per analyzed video frame. ``aus`` holds the twenty scores in
# canonical order on face rows and exact zeros on rows without a face.
FRAME_DTYPE = np.dtype([
    ("frame_index", np.int64),
    ("timestamp_s", np.float64),
    ("face_detected", np.bool_),
    ("aus", np.float64, (N_AUS,)),
], align=True)


def _read_only(values, dtype) -> np.ndarray:
    """``values`` as an array of ``dtype`` that nothing can change: a writable
    array is copied first."""
    array = np.asarray(values, dtype=dtype)
    if array.flags.writeable:
        array = array.copy()
        array.flags.writeable = False
    return array


def _first_bad(where: str, bad: np.ndarray, what: str) -> None:
    """Raise for the first row flagged in ``bad``."""
    if bad.any():
        raise ValidationError(f"{where}: {what} (first at row {int(np.argmax(bad))})")


@dataclass(frozen=True, slots=True, eq=False)
class VideoRecord:
    """One participant's frame sequence recorded while watching one ad.

    ``frames`` is one read-only record array of FRAME_DTYPE: columns read as
    ``frames.timestamp_s`` and rows as ``frames[i].aus``. A writable input
    array is copied, so nothing can change a record after it was checked.
    """

    video_id: str
    ad_id: str
    frames: np.recarray

    def __post_init__(self) -> None:
        frames = self.frames
        if not isinstance(frames, np.ndarray) or frames.dtype != FRAME_DTYPE or frames.ndim != 1:
            raise ValidationError(
                f"video {self.video_id!r}: frames must be a 1-d array of FRAME_DTYPE")
        if frames.size == 0:
            raise ValidationError(f"video {self.video_id!r} has no frames")
        frames = _read_only(frames, FRAME_DTYPE).view(np.recarray)
        index, ts, face, aus = (frames[name] for name in FRAME_DTYPE.names)
        where = f"video {self.video_id!r}"
        _first_bad(where, np.diff(index, prepend=-1) <= 0,
                   "frame_index must be >= 0 and increase strictly")
        _first_bad(where, ~np.isfinite(ts) | (np.diff(ts, prepend=0.0) < 0.0),
                   "timestamp_s must be finite, >= 0 and non-decreasing")
        # the comparisons are False for NaN, so NaN scores fail here too
        _first_bad(where, face & ~((aus >= 0.0) & (aus <= 1.0)).all(axis=1),
                   "AU scores of a face frame must lie in [0, 1]")
        _first_bad(where, ~face & (aus != 0.0).any(axis=1),
                   "a frame without a detected face must carry all-zero AU scores")
        object.__setattr__(self, "frames", frames)

    @classmethod
    def from_columns(cls, video_id: str, ad_id: str, frame_index, timestamp_s,
                     face_detected, aus) -> VideoRecord:
        """Build a record from per-frame columns (aus shaped (n, 20))."""
        frames = np.empty(len(timestamp_s), dtype=FRAME_DTYPE)
        for name, column in zip(FRAME_DTYPE.names, (frame_index, timestamp_s, face_detected, aus)):
            frames[name] = column
        frames.flags.writeable = False  # nothing else holds it, so no copy is needed
        return cls(video_id, ad_id, frames)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VideoRecord):
            return NotImplemented
        return (self.video_id == other.video_id and self.ad_id == other.ad_id
                and np.array_equal(self.frames, other.frames))


@dataclass(frozen=True, slots=True)
class Interval:
    """Half-open time interval [start_s, end_s) in seconds."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        start, end = float(self.start_s), float(self.end_s)
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValidationError("interval bounds must be finite")
        if not 0.0 <= start < end:
            raise ValidationError(
                f"interval needs 0 <= start < end, got [{start}, {end})")
        object.__setattr__(self, "start_s", start)
        object.__setattr__(self, "end_s", end)

    @property
    def length_s(self) -> float:
        return self.end_s - self.start_s


class AdLabel(str, Enum):
    SENTIMENTAL = "sentimental"
    NON_SENTIMENTAL = "non_sentimental"


@dataclass(frozen=True, slots=True)
class AdSpec:
    """Ad-level ground truth: class label, duration, and sentimental moments."""

    ad_id: str
    label: AdLabel
    duration_s: float
    moments: tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        duration = float(self.duration_s)
        if not math.isfinite(duration) or duration <= 0:
            raise ValidationError(
                f"ad {self.ad_id!r}: duration_s must be finite and > 0, got {duration}")
        moments = tuple(self.moments)
        if self.label is AdLabel.NON_SENTIMENTAL and moments:
            raise ValidationError(
                f"ad {self.ad_id!r}: non-sentimental ads cannot carry moments")
        if self.label is AdLabel.SENTIMENTAL and not moments:
            raise ValidationError(
                f"ad {self.ad_id!r}: sentimental ads need at least one moment")
        prev_end = 0.0
        for i, m in enumerate(moments):
            if i and m.start_s < prev_end:
                raise ValidationError(
                    f"ad {self.ad_id!r}: moments must be sorted and disjoint")
            if m.end_s > duration:
                raise ValidationError(
                    f"ad {self.ad_id!r}: moment [{m.start_s}, {m.end_s}) exceeds "
                    f"duration {duration}")
            prev_end = m.end_s
        object.__setattr__(self, "duration_s", duration)
        object.__setattr__(self, "moments", moments)

    @property
    def is_sentimental(self) -> bool:
        return self.label is AdLabel.SENTIMENTAL


# One row of an Examples holder, built only when the holder is iterated.
ExampleRow = namedtuple("ExampleRow", "video_id frame_index label aus")


@dataclass(frozen=True, slots=True, eq=False)
class Examples:
    """Weakly labeled training examples as read-only columns, one row per frame.

    ``video_id`` (non-empty strs) and ``frame_index`` (int64, >= 0) keep each
    label's provenance; ``label`` (int64) is 0 or 1 and ``aus`` (float64, (n,
    20)) holds scores in [0, 1]. The columns are checked once, with array
    operations; a writable input array is copied. ``len()`` counts the rows and
    iterating yields one ExampleRow per row.
    """

    video_id: tuple[str, ...]
    frame_index: np.ndarray
    label: np.ndarray
    aus: np.ndarray

    def __post_init__(self) -> None:
        video_id = tuple(self.video_id)
        n = len(video_id)
        index, label, aus = map(np.asarray, (self.frame_index, self.label, self.aus))
        if (index.shape != (n,) or label.shape != (n,) or aus.shape != (n, N_AUS)
                or index.dtype.kind != "i" or label.dtype.kind not in "biu"
                or aus.dtype.kind not in "fiu"
                or not all(isinstance(v, str) and v for v in video_id)):
            raise ValidationError(f"examples need a non-empty video_id, an integer frame_index "
                                  f"and label and {N_AUS} AU scores per row")
        _first_bad("examples", index < 0, "frame_index must be >= 0")
        _first_bad("examples", (label != 0) & (label != 1), "label must be 0 or 1")
        # the comparisons are False for NaN, so NaN scores fail here too
        _first_bad("examples", ~((aus >= 0.0) & (aus <= 1.0)).all(axis=1),
                   "AU scores must lie in [0, 1]")
        object.__setattr__(self, "video_id", video_id)
        for name, column, dtype in (("frame_index", index, np.int64), ("label", label, np.int64),
                                    ("aus", aus, np.float64)):
            object.__setattr__(self, name, _read_only(column, dtype))

    def __len__(self) -> int:
        return len(self.video_id)

    def __iter__(self) -> Iterator[ExampleRow]:
        return map(ExampleRow, self.video_id, self.frame_index.tolist(),
                   self.label.tolist(), self.aus)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Examples):
            return NotImplemented
        return self.video_id == other.video_id and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("frame_index", "label", "aus"))


@dataclass(frozen=True, slots=True, eq=False)
class AggregateCurve:
    """Per-ad sentimentality curve: one mean score per fixed-width time bin.

    Bin b covers [b * step_s, (b + 1) * step_s); together the bins cover
    [0, duration) of the ad. ``scores`` holds each bin's value in [0, 1] and
    ``counts`` the number of participants whose frames landed in the bin, 0
    for a bin filled by interpolation. Both are read-only arrays of one
    length; a writable input array is copied.
    """

    ad_id: str
    step_s: float
    scores: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        step = float(self.step_s)
        if not math.isfinite(step) or step <= 0:
            raise ValidationError(f"step_s must be finite and > 0, got {step}")
        scores, counts = np.asarray(self.scores), np.asarray(self.counts)
        if scores.ndim != 1 or not scores.size or counts.shape != scores.shape \
                or scores.dtype.kind not in "fiu" or counts.dtype.kind not in "iu":
            raise ValidationError(f"curve for ad {self.ad_id!r} needs at least one bin, "
                                  f"each with a numeric score and an integer count")
        scores, counts = _read_only(scores, np.float64), _read_only(counts, np.int64)
        # the comparisons are False for NaN, so NaN scores fail here too
        if not (((scores >= 0.0) & (scores <= 1.0)).all() and (counts >= 0).all()):
            raise ValidationError(
                f"curve for ad {self.ad_id!r}: scores must lie in [0, 1], counts >= 0")
        object.__setattr__(self, "step_s", step)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "counts", counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggregateCurve):
            return NotImplemented
        return (self.ad_id == other.ad_id and self.step_s == other.step_s
                and np.array_equal(self.scores, other.scores)
                and np.array_equal(self.counts, other.counts))

    @property
    def n_bins(self) -> int:
        return len(self.scores)

    @property
    def domain_end_s(self) -> float:
        return len(self.scores) * self.step_s

    def bin_scores(self) -> tuple[float, ...]:
        return tuple(self.scores.tolist())
