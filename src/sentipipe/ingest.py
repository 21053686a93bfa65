"""File ingestion: ad annotation JSON, AU stream CSV, and the coverage filter.

Parsers accept nothing malformed. A malformed row aborts the whole parse instead
of being skipped, because silently dropped rows would bias every KPI computed
downstream. Writers emit the exact same formats the parsers accept, with full
float precision, so a parse -> write -> parse cycle is lossless.

Once the CSV is closed, write_au_stream writes a sidecar next to it with the
frames written and a digest of the CSV's bytes taken as they were written, and
parse_au_stream returns those frames while the CSV's bytes are the ones written.
The CSV stays the only input that decides a result: any sidecar that fails a
check is ignored, and the CSV is then read row by row, each row checked by
core.csv_rows and number_cells, so that an error names its ``file:line``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
import zlib
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import (
    AdLabel,
    AdSpec,
    FRAME_DTYPE,
    Interval,
    N_AUS,
    VideoRecord,
    _DECIMAL,
    _INTEGER,
    csv_rows,
    number_cells,
    read_json,
    require_real,
)
from .errors import ConfigError, SchemaError, ValidationError

try:  # not hashlib: importing it loads OpenSSL, about 3.5 MB more per process
    from _blake2 import blake2b
except ImportError:  # a Python without it writes and reads no sidecars
    blake2b = None

DEFAULT_MIN_COVERAGE = 0.90

# CSV schema for AU streams: the header is exactly STREAM_COLUMNS, the AU
# columns in canonical AU order.
STREAM_META_COLUMNS = ("video_id", "ad_id", "frame_index", "timestamp_s", "face_detected")
STREAM_AU_COLUMNS = (
    "au_1", "au_2", "au_4", "au_5", "au_6", "au_7", "au_9", "au_10", "au_14",
    "au_15", "au_17", "au_18", "au_20", "au_24", "au_25", "au_26", "au_28",
    "au_eye_closure", "au_smile", "au_smirk",
)
STREAM_COLUMNS = STREAM_META_COLUMNS + STREAM_AU_COLUMNS

# The number cells of a stream row: frame_index and timestamp_s, then on a
# face row the AU scores.
_META_NUMBERS = (("frame_index", _INTEGER), ("timestamp_s", _DECIMAL))
_check_meta_numbers = number_cells(_META_NUMBERS)
_check_face_numbers = number_cells(_META_NUMBERS + tuple((c, _DECIMAL) for c in STREAM_AU_COLUMNS))
# A stream CSV is hashed in blocks of this many bytes, so that checking a
# sidecar never holds the CSV's text.
_BLOCK_BYTES = 1 << 20

# The sidecar of an AU stream CSV, named as the CSV plus SIDECAR_SUFFIX, is
# written after the CSV closes: a head (magic, version, the CRC-32 of the rest,
# the blake2b digest of the CSV's bytes as written, where the table starts and
# its length), each video's frames in FRAME_DTYPE layout with the padding
# zeroed, then the table: JSON of FRAME_DTYPE's descr and one [video_id, ad_id,
# frame count] per video, in the CSV's order. The CRC only guards the sidecar
# against damage, at a third of blake2b's cost.
SIDECAR_SUFFIX = ".frames"
_SIDECAR_MAGIC = b"SPFRAMES"
_SIDECAR_VERSION = 1
_SIDECAR_HEAD = struct.Struct("<8sII32sQQ")
_FRAME_DESCR = str(FRAME_DTYPE.descr)

_ANNOTATION_KEYS = {"ad_id", "label", "duration_s", "moments"}
_LABEL_BY_STRING = {label.value: label for label in AdLabel}


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


def parse_ad_annotations(path: str | Path) -> dict[str, AdSpec]:
    """Read the ad annotation JSON into an ordered ad_id -> AdSpec map."""
    payload = read_json(path)
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
                raise SchemaError("moments must be [start, end] number pairs")
            intervals = sorted((Interval(require_real("moment start", a, SchemaError),
                                         require_real("moment end", b, SchemaError))
                                for a, b in moments), key=lambda m: (m.start_s, m.end_s))
            duration = require_real("duration_s", item["duration_s"], SchemaError)
            ads[ad_id] = AdSpec(ad_id, _LABEL_BY_STRING[label], duration, tuple(intervals))
        except SchemaError as exc:
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


def parse_au_stream(path: str | Path) -> list[VideoRecord]:
    """Read an AU stream CSV into VideoRecords, in first-appearance order.

    The header must be exactly STREAM_COLUMNS, as csv_rows checks it. Rows
    belonging to one video must appear in strictly increasing frame_index
    order with non-decreasing timestamps and must all name the same ad. A
    frame_index cell must match ``-?[0-9]+`` and every other number cell
    ``-?([0-9]+(\\.[0-9]*)?|\\.[0-9]+)([eE][+-]?[0-9]+)?``, in ASCII.

    When the CSV has a sidecar (see SIDECAR_SUFFIX) whose digest is that of
    the CSV's current bytes and whose version, dtype, table and frames pass
    every check, the records are read-only views of the sidecar's frames, and
    the CSV is only hashed. Any other sidecar is ignored, so the result, or
    the error, is always the one the CSV gives.

    Otherwise the CSV is read row by row, and an error names its
    ``file:line``.
    """
    videos = _read_sidecar(path)
    return _parse_stream_rows(path) if videos is None else videos


def _parse_stream_rows(path: str | Path) -> list[VideoRecord]:
    """parse_au_stream with each row checked as it is read."""
    no_face = [0.0] * N_AUS
    # video_id -> [ad_id, indices, timestamps, faces, flat AU scores]
    columns: dict[str, list] = {}
    for where, row in csv_rows(path, STREAM_COLUMNS):
        video_id, ad_id, index, ts, face = row[:5]
        cells = row[5:]
        if not video_id or not ad_id:
            raise SchemaError(f"{where}: empty video_id or ad_id")
        if face not in ("0", "1"):
            raise SchemaError(f"{where}: face_detected must be 0 or 1, got {face!r}")
        if face == "1" and "" in cells:
            raise ValidationError(
                f"{where}: missing AU value in column "
                f"{STREAM_AU_COLUMNS[cells.index('')]!r} on a face-detected row")
        if face == "0" and any(cells):
            raise ValidationError(
                f"{where}: AU cells must be empty when no face was detected")
        if face == "1":
            _check_face_numbers(where, [index, ts, *cells])
        else:
            _check_meta_numbers(where, [index, ts])
        value = _frame_index_value(index)
        if value is None:
            raise ValidationError(f"{where}: frame_index {index} out of range")
        index, ts = value, float(ts)
        scores = [float(c) for c in cells] if face == "1" else no_face
        if not 0.0 <= ts < math.inf:
            raise ValidationError(f"{where}: timestamp_s must be finite and >= 0")
        if not all(0.0 <= s <= 1.0 for s in scores):
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

    return [
        VideoRecord.from_columns(video_id, ad_id, indices, stamps, faces,
                                 np.array(aus).reshape(-1, N_AUS))
        for video_id, (ad_id, indices, stamps, faces, aus) in columns.items()
    ]


def _frame_index_value(cell: str) -> int | None:
    """The value of an _INTEGER cell if it fits the int64 column and is not
    negative, else None. Leading zeros go first, as int() refuses a cell of
    more than 4300 digits."""
    digits = cell.lstrip("-").lstrip("0") or "0"
    if len(digits) > 19 or (cell.startswith("-") and digits != "0"):
        return None
    value = int(digits)
    return value if value < 2 ** 63 else None


def write_au_stream(videos: Iterable[VideoRecord], path: str | Path) -> None:
    """Serialize videos to the AU stream CSV format with full float precision,
    hashing its bytes as they are written, then replace its sidecar.

    Numbers never need CSV quoting, so rows are built as strings; only the two
    ids go through csv.writer, once per video, which quotes them as it would
    in a whole row. Each video's lines are written in one call. No sidecar is
    left without blake2b, when the ids do not read back or on an OSError.
    """
    videos = tuple(videos)
    sidecar = _sidecar_path(path)
    with suppress(OSError):
        sidecar.unlink(missing_ok=True)
    csv_digest = None if blake2b is None else blake2b(digest_size=32)
    empty_aus = "," * (N_AUS - 1)
    ids = io.StringIO()
    # with "\r\n" as its terminator csv.writer quotes an id holding either
    # character; with "\n" it leaves a "\r" bare, which reads as a line end
    ids_writer = csv.writer(ids, lineterminator="\r\n")
    with open(path, "wb") as fh:
        header = (",".join(STREAM_COLUMNS) + "\n").encode()
        fh.write(header)
        if csv_digest is not None:
            csv_digest.update(header)
        for video in videos:
            ids.seek(0)
            ids.truncate()
            ids_writer.writerow([video.video_id, video.ad_id])
            prefix = ids.getvalue()[:-2]
            f = video.frames
            lines = "".join(
                f"{prefix},{index},{ts!r},1,{','.join(map(repr, aus))}\n" if face
                else f"{prefix},{index},{ts!r},0,{empty_aus}\n"
                for index, ts, face, aus in zip(
                    f.frame_index.tolist(), f.timestamp_s.tolist(),
                    f.face_detected.tolist(), f.aus.tolist())).encode("utf-8")
            fh.write(lines)
            if csv_digest is not None:
                csv_digest.update(lines)
    table = [[video.video_id, video.ad_id, len(video.frames)] for video in videos]
    if csv_digest is None or not _ids_read_back(table):
        return
    try:
        _write_sidecar(sidecar, csv_digest.digest(), videos, table)
    except BaseException as exc:
        with suppress(OSError):
            sidecar.unlink(missing_ok=True)
        if not isinstance(exc, OSError):
            raise


def _sidecar_path(path: str | Path) -> Path:
    return Path(os.fspath(path) + SIDECAR_SUFFIX)


def _ids_read_back(table: object) -> bool:
    """Whether a sidecar table's entries are [video_id, ad_id, count] as the CSV
    parses back: non-empty str ids within the csv field limit, an int count > 0,
    no repeated video_id."""
    limit = csv.field_size_limit()
    return (isinstance(table, list) and all(
        isinstance(e, list) and len(e) == 3 and type(e[2]) is int and e[2] > 0
        and all(type(i) is str and 0 < len(i) <= limit for i in e[:2]) for e in table)
        and len({e[0] for e in table}) == len(table))


def _write_sidecar(path: Path, csv_digest: bytes, videos: tuple, table: list) -> None:
    """Write the sidecar of a CSV: a zeroed head, each video's frames, the table,
    then the head with csv_digest, the CSV's blake2b digest."""
    body_crc = 0
    with open(path, "wb") as fh:
        fh.write(bytes(_SIDECAR_HEAD.size))
        for video in videos:
            # the frames as the CSV parses back to them: padding zeroed, and
            # the empty AU cells of a row without a face read as +0.0
            frames = np.zeros(len(video.frames), dtype=FRAME_DTYPE)
            face = video.frames.face_detected
            for name in ("frame_index", "timestamp_s", "face_detected"):
                frames[name] = video.frames[name]
            frames["aus"][face] = video.frames.aus[face]
            body_crc = zlib.crc32(frames.data, body_crc)
            fh.write(frames.data)
        table_json = json.dumps({"dtype": _FRAME_DESCR, "videos": table},
                                separators=(",", ":")).encode()
        table_at = fh.tell()
        fh.write(table_json)
        fh.seek(0)
        fh.write(_SIDECAR_HEAD.pack(
            _SIDECAR_MAGIC, _SIDECAR_VERSION, zlib.crc32(table_json, body_crc),
            csv_digest, table_at, len(table_json)))


def _read_sidecar(path: str | Path) -> list[VideoRecord] | None:
    """parse_au_stream's records of the CSV at path, read from the CSV's
    sidecar; None, raising nothing, when there is no sidecar or it fails a
    check. Its magic, version and dtype must be this module's, its body must
    match its CRC, its table must pass _ids_read_back with frame counts that
    add up to its frames, the CSV's current bytes must match the CSV digest,
    and each video's frames must pass VideoRecord's checks."""
    if blake2b is None:
        return None
    try:
        data = _sidecar_path(path).read_bytes()
    except OSError:
        return None
    head = _SIDECAR_HEAD.size
    if len(data) < head:
        return None
    magic, version, body_crc, csv_digest, table_at, table_len = _SIDECAR_HEAD.unpack_from(data)
    if (magic != _SIDECAR_MAGIC or version != _SIDECAR_VERSION or table_at < head
            or table_at + table_len != len(data)
            or zlib.crc32(memoryview(data)[head:]) != body_crc):
        return None
    try:
        table = json.loads(data[table_at:])
    except (ValueError, RecursionError):
        return None
    if not isinstance(table, dict) or table.get("dtype") != _FRAME_DESCR:
        return None
    entries = table.get("videos")
    if not _ids_read_back(entries):
        return None
    n_frames = sum(e[2] for e in entries)
    if head + n_frames * FRAME_DTYPE.itemsize != table_at:
        return None
    try:
        if _file_digest(path) != csv_digest:
            return None
    except OSError:
        return None
    frames = np.frombuffer(data, dtype=FRAME_DTYPE, count=n_frames, offset=head)
    videos, start = [], 0
    try:
        for video_id, ad_id, n in entries:
            videos.append(VideoRecord(video_id, ad_id, frames[start:start + n]))
            start += n
    except ValidationError:
        return None
    return videos


def _file_digest(path: str | Path) -> bytes:
    """The blake2b digest of a file's bytes, read in blocks of _BLOCK_BYTES."""
    digest = blake2b(digest_size=32)
    block = bytearray(_BLOCK_BYTES)
    view = memoryview(block)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(block):
            digest.update(view[:n])
    return digest.digest()


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
    try:
        return Dataset(ads=ads, videos=tuple(kept)), dropped
    except ValidationError as exc:
        raise ValidationError(f"{streams_path}: {exc} (ads read from {annotations_path})") from exc


def write_dataset(
    dataset: Dataset,
    annotations_path: str | Path,
    streams_path: str | Path,
) -> None:
    """Write one Dataset back out in the two on-disk formats."""
    write_ad_annotations(dataset.ads, annotations_path)
    write_au_stream(dataset.videos, streams_path)
