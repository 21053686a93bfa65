"""File ingestion: ad annotation JSON, AU stream CSV, and the coverage filter.

Parsers are strict on purpose. A malformed row aborts the whole parse instead
of being skipped, because silently dropped rows would bias every KPI computed
downstream. Writers emit the exact same formats the parsers accept, with full
float precision, so a parse -> write -> parse cycle is lossless.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    AdLabel,
    AdSpec,
    CANONICAL_AU_NAMES,
    Interval,
    N_AUS,
    VideoRecord,
    canonical_au_index,
    strict,
)
from .errors import ConfigError, SchemaError, ValidationError

DEFAULT_MIN_COVERAGE = 0.90

# CSV schema for AU streams. Metadata columns are fixed; AU columns may appear
# in any order in the header and are matched by name.
STREAM_META_COLUMNS = ("video_id", "ad_id", "frame_index", "timestamp_s", "face_detected")
STREAM_AU_COLUMNS = (
    "au_1", "au_2", "au_4", "au_5", "au_6", "au_7", "au_9", "au_10", "au_14",
    "au_15", "au_17", "au_18", "au_20", "au_24", "au_25", "au_26", "au_28",
    "au_eye_closure", "au_smile", "au_smirk",
)

_ANNOTATION_KEYS = {"ad_id", "label", "duration_s", "moments"}
_LABEL_BY_STRING = {label.value: label for label in AdLabel}
_FLOAT = strict(float)


@dataclass(frozen=True)
class Dataset:
    """A parsed corpus: the ad annotation map plus every participant video."""

    ads: dict[str, AdSpec]
    videos: tuple[VideoRecord, ...]

    def __post_init__(self) -> None:
        videos = tuple(self.videos)
        for ad_id, ad in self.ads.items():
            if ad.ad_id != ad_id:
                raise ValidationError(
                    f"ads map key {ad_id!r} does not match AdSpec.ad_id {ad.ad_id!r}")
        seen: set[str] = set()
        for video in videos:
            if video.video_id in seen:
                raise ValidationError(f"duplicate video_id {video.video_id!r}")
            seen.add(video.video_id)
            if video.ad_id not in self.ads:
                raise ValidationError(
                    f"video {video.video_id!r} references unknown ad {video.ad_id!r}")
        object.__setattr__(self, "videos", videos)


def _au_column_to_index(column: str) -> int | None:
    """Resolve an ``au_*`` header cell to a canonical AU position, else None."""
    if not column.startswith("au_"):
        return None
    suffix = column[3:]
    name = ("AU" + suffix) if suffix.isdigit() else suffix.replace("_", "")
    return canonical_au_index(name)


def parse_ad_annotations(path: str | Path) -> dict[str, AdSpec]:
    """Read the ad annotation JSON into an ordered ad_id -> AdSpec map."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, list):
        raise SchemaError(f"{path}: expected a JSON array of ad objects")
    ads: dict[str, AdSpec] = {}
    for i, item in enumerate(payload):
        if not isinstance(item, dict) or set(item) != _ANNOTATION_KEYS:
            raise SchemaError(
                f"{path}: entry {i} must be an object with exactly the keys "
                f"{sorted(_ANNOTATION_KEYS)}")
        ad_id, label, moments = item["ad_id"], item["label"], item["moments"]
        if not isinstance(ad_id, str) or not ad_id:
            raise SchemaError(f"{path}: entry {i} has a non-string or empty ad_id")
        if ad_id in ads:
            raise SchemaError(f"{path}: duplicate ad_id {ad_id!r}")
        if not isinstance(label, str) or label not in _LABEL_BY_STRING:
            raise ValidationError(
                f"{path}: ad {ad_id!r} label must be one of "
                f"{sorted(_LABEL_BY_STRING)}, got {label!r}")
        try:
            if not isinstance(moments, list) or any(
                    not isinstance(pair, list) or len(pair) != 2 for pair in moments):
                raise TypeError("moments must be [start, end] number pairs")
            intervals = sorted((Interval(_FLOAT(a), _FLOAT(b)) for a, b in moments),
                               key=lambda m: (m.start_s, m.end_s))
            ads[ad_id] = AdSpec(ad_id, _LABEL_BY_STRING[label],
                                _FLOAT(item["duration_s"]), tuple(intervals))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: ad {ad_id!r}: {exc}") from exc
        except ValidationError as exc:
            raise ValidationError(f"{path}: ad {ad_id!r}: {exc}") from exc
    return ads


def write_ad_annotations(ads: dict[str, AdSpec], path: str | Path) -> None:
    """Serialize an ad map to the annotation JSON format, preserving order."""
    payload = [
        {
            "ad_id": ad.ad_id,
            "label": ad.label.value,
            "duration_s": ad.duration_s,
            "moments": [[m.start_s, m.end_s] for m in ad.moments],
        }
        for ad in ads.values()
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _resolve_stream_header(header: Sequence[str], path) -> tuple[dict[str, int], list[int]]:
    seen: set[str] = set()
    for column in header:
        if column in seen:
            raise SchemaError(f"{path}: duplicate column {column!r}")
        seen.add(column)
    meta_pos: dict[str, int] = {}
    au_pos: list[int | None] = [None] * N_AUS
    for pos, column in enumerate(header):
        if column in STREAM_META_COLUMNS:
            meta_pos[column] = pos
            continue
        try:
            index = _au_column_to_index(column)
        except Exception:
            index = None
        if index is None:
            raise SchemaError(f"{path}: unrecognized column {column!r}")
        au_pos[index] = pos
    missing_meta = [c for c in STREAM_META_COLUMNS if c not in meta_pos]
    if missing_meta:
        raise SchemaError(f"{path}: missing columns {missing_meta}")
    missing_aus = [CANONICAL_AU_NAMES[i] for i, p in enumerate(au_pos) if p is None]
    if missing_aus:
        raise SchemaError(f"{path}: missing AU columns for {missing_aus}")
    return meta_pos, [p for p in au_pos if p is not None]


def parse_au_stream(path: str | Path) -> list[VideoRecord]:
    """Read an AU stream CSV into VideoRecords, in first-appearance order.

    Rows belonging to one video must appear in strictly increasing frame_index
    order with non-decreasing timestamps and must all name the same ad. Each
    row is checked as it is read, so an error names its ``file:line``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty AU stream file")
            meta_pos, au_pos = _resolve_stream_header(header, path)
            n_cols = len(header)
            no_face = [0.0] * N_AUS
            # video_id -> [ad_id, indices, timestamps, faces, flat AU scores]
            columns: dict[str, list] = {}
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if len(row) != n_cols:
                    raise SchemaError(f"{where}: expected {n_cols} cells, got {len(row)}")
                video_id, ad_id, index, ts, face = (row[meta_pos[c]] for c in STREAM_META_COLUMNS)
                if not video_id or not ad_id:
                    raise SchemaError(f"{where}: empty video_id or ad_id")
                if face not in ("0", "1"):
                    raise SchemaError(f"{where}: face_detected must be 0 or 1, got {face!r}")
                cells = [row[p] for p in au_pos]
                if face == "1" and "" in cells:
                    raise ValidationError(
                        f"{where}: missing AU value in column "
                        f"{header[au_pos[cells.index('')]]!r} on a face-detected row")
                if face == "0" and any(cells):
                    raise ValidationError(
                        f"{where}: AU cells must be empty when no face was detected")
                try:
                    index, ts = int(index), float(ts)
                    scores = [float(c) for c in cells] if face == "1" else no_face
                except ValueError as exc:
                    raise SchemaError(f"{where}: {exc}") from exc
                if not 0 <= index < 2 ** 63:  # stored as int64
                    raise ValidationError(f"{where}: frame_index {index} out of range")
                if not 0.0 <= ts < math.inf:  # also rejects NaN
                    raise ValidationError(f"{where}: timestamp_s must be finite and >= 0")
                if not all(0.0 <= s <= 1.0 for s in scores):  # also rejects NaN
                    raise ValidationError(f"{where}: AU scores must lie in [0, 1]")

                known_ad, indices, stamps, faces, aus = columns.setdefault(
                    video_id, [ad_id, [], [], [], []])
                if known_ad != ad_id:
                    raise ValidationError(
                        f"{where}: video {video_id!r} maps to both ads "
                        f"{known_ad!r} and {ad_id!r}")
                if indices and index <= indices[-1]:
                    raise ValidationError(
                        f"{where}: video {video_id!r} frame_index must increase "
                        f"strictly ({indices[-1]} then {index})")
                if stamps and ts < stamps[-1]:
                    raise ValidationError(
                        f"{where}: video {video_id!r} timestamps must be non-decreasing")
                indices.append(index)
                stamps.append(ts)
                faces.append(face == "1")
                aus.extend(scores)
        except csv.Error as exc:
            raise SchemaError(f"{path}:{reader.line_num}: {exc}") from exc

    return [
        VideoRecord.from_columns(video_id, ad_id, indices, stamps, faces,
                                 np.array(aus).reshape(-1, N_AUS))
        for video_id, (ad_id, indices, stamps, faces, aus) in columns.items()
    ]


def write_au_stream(videos: Iterable[VideoRecord], path: str | Path) -> None:
    """Serialize videos to the AU stream CSV format with full float precision.

    Numbers never need CSV quoting, so rows are built as strings; only the two
    ids go through csv.writer, once per video, which quotes them as it would
    in a whole row. Each video's lines are written in one call.
    """
    header = list(STREAM_META_COLUMNS) + list(STREAM_AU_COLUMNS)
    empty_aus = "," * (N_AUS - 1)
    ids = io.StringIO()
    ids_writer = csv.writer(ids, lineterminator="\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for video in videos:
            ids.seek(0)
            ids.truncate()
            ids_writer.writerow([video.video_id, video.ad_id])
            prefix = ids.getvalue()[:-1]
            f = video.frames
            fh.write("".join(
                f"{prefix},{index},{ts!r},1,{','.join(map(repr, aus))}\n" if face
                else f"{prefix},{index},{ts!r},0,{empty_aus}\n"
                for index, ts, face, aus in zip(
                    f.frame_index.tolist(), f.timestamp_s.tolist(),
                    f.face_detected.tolist(), f.aus.tolist())))


def face_coverage(video: VideoRecord) -> float:
    """Fraction of the video's frames in which a face was detected."""
    return int(np.count_nonzero(video.frames.face_detected)) / len(video.frames)


def filter_by_coverage(
    videos: Iterable[VideoRecord],
    min_coverage: float = DEFAULT_MIN_COVERAGE,
) -> tuple[list[VideoRecord], list[str]]:
    """Split videos into (kept, dropped_ids) by face coverage.

    A video is kept when its coverage is at or above ``min_coverage``; the
    boundary itself passes. Order is preserved on both sides.
    """
    if not 0.0 <= min_coverage <= 1.0:
        raise ConfigError(f"min_coverage must lie in [0, 1], got {min_coverage}")
    kept: list[VideoRecord] = []
    dropped: list[str] = []
    for video in videos:
        if face_coverage(video) >= min_coverage:
            kept.append(video)
        else:
            dropped.append(video.video_id)
    return kept, dropped


def load_dataset(
    annotations_path: str | Path,
    streams_path: str | Path,
    min_coverage: float = DEFAULT_MIN_COVERAGE,
) -> tuple[Dataset, list[str]]:
    """Parse an annotation file plus an AU stream file into one Dataset.

    Applies the coverage filter; returns (dataset, dropped_video_ids).
    """
    ads = parse_ad_annotations(annotations_path)
    videos = parse_au_stream(streams_path)
    kept, dropped = filter_by_coverage(videos, min_coverage)
    return Dataset(ads=ads, videos=tuple(kept)), dropped


def write_dataset(
    dataset: Dataset,
    annotations_path: str | Path,
    streams_path: str | Path,
) -> None:
    """Write one Dataset back out in the two on-disk formats."""
    write_ad_annotations(dataset.ads, annotations_path)
    write_au_stream(dataset.videos, streams_path)
