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
import re
from dataclasses import dataclass
from pathlib import Path
from itertools import groupby, repeat
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .core import (
    AdLabel,
    AdSpec,
    CANONICAL_AU_NAMES,
    FRAME_DTYPE,
    Interval,
    N_AUS,
    VideoRecord,
    canonical_au_index,
    not_utf8,
    read_text,
    strict,
)
from .errors import ConfigError, SchemaError, UnknownAuName, ValidationError

DEFAULT_MIN_COVERAGE = 0.90

# CSV schema for AU streams. Metadata columns are fixed; AU columns may appear
# in any order in the header and are matched by name.
STREAM_META_COLUMNS = ("video_id", "ad_id", "frame_index", "timestamp_s", "face_detected")
STREAM_AU_COLUMNS = (
    "au_1", "au_2", "au_4", "au_5", "au_6", "au_7", "au_9", "au_10", "au_14",
    "au_15", "au_17", "au_18", "au_20", "au_24", "au_25", "au_26", "au_28",
    "au_eye_closure", "au_smile", "au_smirk",
)

# The stream's number cells: frame_index is an _INTEGER, every other number a
# _DECIMAL. int() and float() also take "1_0", " 5", "+0.5", non-ASCII digits,
# "nan" and "inf"; none of those is a number of the stream format.
_INTEGER = re.compile(r"-?[0-9]+")
_DECIMAL = re.compile(r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_DECIMALS = re.compile(rf"{_DECIMAL.pattern}(?:,{_DECIMAL.pattern})*")
# The bytes the number cells of a block may consist of, separators included.
_NUMBER_BYTES = b"0123456789.eE+-,\n"
# The array path parses a stream in blocks of about this many bytes, so that
# it never holds more of the file's text than one block.
_BLOCK_BYTES = 1 << 20

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
    try:
        payload = json.loads(read_text(path))
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
        except UnknownAuName:
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
    order with non-decreasing timestamps and must all name the same ad. A
    frame_index cell must match ``-?[0-9]+`` and every other number cell
    ``-?([0-9]+(\\.[0-9]*)?|\\.[0-9]+)([eE][+-]?[0-9]+)?``, in ASCII.

    A file with no quote, carriage return or NUL, no blank line and no line
    over the csv field limit is checked as arrays, one block of about 1 MB at
    a time. Any other file, and any file that fails a check there, is read
    again row by row from the top, so that an error names its ``file:line``.
    """
    videos = _parse_stream_blocks(path)
    return _parse_stream_rows(path) if videos is None else videos


def _parse_stream_rows(path: str | Path) -> list[VideoRecord]:
    """parse_au_stream with each row checked as it is read."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty AU stream file")
            meta_pos, au_pos = _resolve_stream_header(header, path)
            n_cols = len(header)
            decimal_pos = [meta_pos["timestamp_s"], *au_pos]
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
                if not _INTEGER.fullmatch(index):
                    raise SchemaError(
                        f"{where}: column 'frame_index' holds {index!r}, not an integer")
                decimals = [ts, *cells] if face == "1" else [ts]
                joined = ",".join(decimals)  # one match per row; a quoted cell may hold a comma
                if joined.count(",") >= len(decimals) or not _DECIMALS.fullmatch(joined):
                    k = next(k for k, cell in enumerate(decimals) if not _DECIMAL.fullmatch(cell))
                    raise SchemaError(f"{where}: column {header[decimal_pos[k]]!r} holds "
                                      f"{decimals[k]!r}, not a decimal number")
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
        except csv.Error as exc:
            raise SchemaError(f"{path}:{reader.line_num}: {exc}") from exc
        except UnicodeDecodeError:
            raise not_utf8(path) from None

    return [
        VideoRecord.from_columns(video_id, ad_id, indices, stamps, faces,
                                 np.array(aus).reshape(-1, N_AUS))
        for video_id, (ad_id, indices, stamps, faces, aus) in columns.items()
    ]


def _frame_index_value(cell: str) -> int | None:
    """The value of an _INTEGER cell if it fits the int64 column and is not
    negative, else None. Leading zeros go first: int() refuses a cell of more
    than 4300 digits, and np.loadtxt does not."""
    digits = cell.lstrip("-").lstrip("0") or "0"
    if len(digits) > 19 or (cell.startswith("-") and digits != "0"):
        return None
    value = int(digits)
    return value if value < 2 ** 63 else None


def _parse_stream_blocks(path: str | Path) -> list[VideoRecord] | None:
    """parse_au_stream with every row check run as array operations, one block
    of about _BLOCK_BYTES at a time. Returns None, raising nothing, for a file
    it does not take or one that fails a check.

    What it keeps between blocks is each block's frames and one (video_id,
    ad_id) pair per run of rows, so memory grows with the frames returned and
    not with the file's text.
    """
    with open(path, "rb") as fh:
        lines = _plain_lines(fh.readline().removesuffix(b"\n"))
        if lines is None:
            return None
        header = lines[0].split(",")
        try:
            meta_pos, au_pos = _resolve_stream_header(header, path)
        except SchemaError:
            return None
        id_pos = meta_pos["video_id"], meta_pos["ad_id"]
        row_dtypes = _numeric_row_dtypes(meta_pos, au_pos)
        runs: list[tuple[tuple[str, str], np.ndarray]] = []
        for block in _line_blocks(fh):
            lines = _plain_lines(block)
            parsed = None if lines is None else _parse_block(lines, id_pos, row_dtypes)
            if parsed is None:
                return None
            frames, ids = parsed
            start = 0
            for key, rows in groupby(ids):
                stop = start + len(list(rows))
                runs.append((key, frames[start:stop]))
                start = stop

    ads: dict[str, str] = {}
    pieces: dict[str, list[np.ndarray]] = {}
    for (video_id, ad_id), frames in runs:
        if not video_id or not ad_id or ads.setdefault(video_id, ad_id) != ad_id:
            return None
        pieces.setdefault(video_id, []).append(frames)
    try:  # VideoRecord checks frame_index, timestamps and AU ranges per video
        return [VideoRecord(video_id, ads[video_id],
                            parts[0] if len(parts) == 1 else np.concatenate(parts))
                for video_id, parts in pieces.items()]
    except ValidationError:
        return None


def _line_blocks(fh: BinaryIO) -> Iterator[bytes]:
    """The rest of a binary file in pieces of about _BLOCK_BYTES that each end
    at a line end, the final newline of each piece cut off."""
    pending = b""
    while chunk := fh.read(_BLOCK_BYTES):
        chunk = pending + chunk
        end = chunk.rfind(b"\n")
        pending = chunk[end + 1:]
        if end >= 0:
            yield chunk[:end]
    if pending:
        yield pending


def _plain_lines(data: bytes) -> list[str] | None:
    """The lines of UTF-8 text in which every CSV row is ``line.split(",")``:
    no quote, carriage return or NUL (which the csv module rejects before
    Python 3.11), no blank line, and no line longer than the csv module's
    field limit. None for any other text."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    if "" in lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    return lines


def _numeric_row_dtypes(meta_pos: dict[str, int],
                        au_pos: list[int]) -> tuple[np.dtype, np.dtype]:
    """np.loadtxt dtypes for the number cells of a row in column order, the
    two id cells cut out: one for a face row, with AU k in field "au{k}", and
    one that reads the AU cells as text. The face flag is read as text too,
    as only the exact cells 0 and 1 are flags."""
    meta = {"frame_index": np.int64, "timestamp_s": np.float64, "face_detected": "U2"}
    names = {meta_pos[name]: name for name in meta}
    names.update((p, f"au{k}") for k, p in enumerate(au_pos))
    ordered = [names[p] for p in sorted(names)]
    return tuple(np.dtype({"names": ordered, "formats": [meta.get(name, au) for name in ordered]})
                 for au in (np.float64, "U1"))


def _parse_block(lines: list[str], id_pos: tuple[int, int],
                 row_dtypes: tuple[np.dtype, np.dtype]
                 ) -> tuple[np.ndarray, list[tuple[str, str]]] | None:
    """One block's rows as a read-only FRAME_DTYPE array plus each row's
    (video_id, ad_id), or None when a row fails a check."""
    lo, hi = sorted(id_pos)
    try:
        cells = [line.split(",", hi + 1) for line in lines]
        ids = [(c[id_pos[0]], c[id_pos[1]]) for c in cells]
        if hi == 1:  # the ids lead each row, as write_au_stream puts them
            numbers = [c[2] for c in cells]
        else:
            numbers = [",".join(c[:lo] + c[lo + 1:hi] + c[hi + 1:]) for c in cells]
    except IndexError:  # a row with too few cells
        return None
    del cells
    if "" in numbers:  # a row of ids and one empty cell, which np.loadtxt skips
        return None
    # Every number cell is ASCII out of these bytes, with a "+" only right
    # after the exponent's e, and every frame_index cell is at most 18 of
    # them with no ".", "e" or "E", so it fits an int64 or is no integer.
    # (numpy 1.23 and some later releases read any other frame_index cell,
    # such as 3.0, 3e0 or 20 digits, into an int64 field via float, with only
    # a DeprecationWarning.) np.loadtxt then takes a cell exactly when it is
    # an _INTEGER or a _DECIMAL, and it checks the cell count of each row
    # because it is given no usecols.
    text = "\n".join(numbers)
    if not text.isascii():
        return None
    text = text.encode("ascii")
    if text.translate(None, _NUMBER_BYTES) or (
            b"+" in text and text.count(b"+") != text.count(b"e+") + text.count(b"E+")):
        return None
    del text
    index_col = row_dtypes[0].names.index("frame_index")
    try:
        index_cells = [n.split(",", index_col + 1)[index_col] for n in numbers]
    except IndexError:
        return None
    index_text = "".join(index_cells)
    if (max(map(len, index_cells)) > 18 or "." in index_text
            or "e" in index_text or "E" in index_text):
        return None
    del index_cells, index_text
    # A row with no face leaves 20 of its 23 number cells empty, so two empty
    # cells are next to each other; a face row with ",," fails either way.
    has_empty = np.fromiter(map(str.__contains__, numbers, repeat(",,")), bool, len(numbers))
    frames = np.zeros(len(numbers), dtype=FRAME_DTYPE)
    for face, dtype in zip((True, False), row_dtypes):
        rows = np.flatnonzero(has_empty != face)
        if not rows.size:
            continue
        try:
            got = np.loadtxt([numbers[i] for i in rows.tolist()], delimiter=",",
                             comments=None, dtype=dtype, ndmin=1)
        except ValueError:
            return None
        if len(got) != rows.size:
            return None
        aus = [got[f"au{k}"] for k in range(N_AUS)]
        if (got["face_detected"] != ("1" if face else "0")).any() or (
                not face and any((cells != "").any() for cells in aus)):
            return None
        frames["frame_index"][rows] = got["frame_index"]
        frames["timestamp_s"][rows] = got["timestamp_s"]
        frames["face_detected"][rows] = face
        if face:
            frames["aus"][rows] = np.stack(aus, axis=1)
    frames.flags.writeable = False
    return frames, ids


def write_au_stream(videos: Iterable[VideoRecord], path: str | Path) -> None:
    """Serialize videos to the AU stream CSV format with full float precision.

    Numbers never need CSV quoting, so rows are built as strings; only the two
    ids go through csv.writer, once per video, which quotes them as it would
    in a whole row. Each video's lines are written in one call.
    """
    header = list(STREAM_META_COLUMNS) + list(STREAM_AU_COLUMNS)
    empty_aus = "," * (N_AUS - 1)
    ids = io.StringIO()
    # with "\r\n" as its terminator csv.writer quotes an id holding either
    # character; with "\n" it leaves a "\r" bare, which reads as a line end
    ids_writer = csv.writer(ids, lineterminator="\r\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for video in videos:
            ids.seek(0)
            ids.truncate()
            ids_writer.writerow([video.video_id, video.ad_id])
            prefix = ids.getvalue()[:-2]
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
