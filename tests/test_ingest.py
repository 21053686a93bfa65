import csv
import io
import json
import re
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentipipe import ingest
from sentipipe.core import AdLabel, AdSpec, Interval, VideoRecord
from sentipipe.errors import ConfigError, SchemaError, SentiPipeError, ValidationError
from sentipipe.ingest import (
    DEFAULT_MIN_COVERAGE,
    SIDECAR_SUFFIX,
    STREAM_AU_COLUMNS,
    STREAM_META_COLUMNS,
    Dataset,
    face_coverage,
    filter_by_coverage,
    load_dataset,
    parse_ad_annotations,
    parse_au_stream,
    write_ad_annotations,
    write_au_stream,
    write_dataset,
)
from sentipipe.ingest import _parse_stream_rows
from sentipipe.pipeline import grouped_by_ad

from conftest import constant_video, make_video


@pytest.fixture
def two_ads():
    return {
        "a1": AdSpec(ad_id="a1", label=AdLabel.SENTIMENTAL, duration_s=30.0,
                     moments=(Interval(3.0, 9.0), Interval(12.5, 20.0))),
        "a2": AdSpec(ad_id="a2", label=AdLabel.NON_SENTIMENTAL, duration_s=15.5),
    }


class TestAnnotations:
    def test_round_trip(self, tmp_path, two_ads):
        path = tmp_path / "ads.json"
        write_ad_annotations(two_ads, path)
        parsed = parse_ad_annotations(path)
        assert parsed == two_ads
        assert list(parsed) == ["a1", "a2"]

    def test_round_trip_is_byte_stable(self, tmp_path, two_ads):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_ad_annotations(two_ads, p1)
        write_ad_annotations(parse_ad_annotations(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_not_json(self, tmp_path):
        path = tmp_path / "ads.json"
        path.write_text("nope[")
        with pytest.raises(SchemaError):
            parse_ad_annotations(path)

    def test_not_a_list(self, tmp_path):
        path = tmp_path / "ads.json"
        path.write_text("{}")
        with pytest.raises(SchemaError):
            parse_ad_annotations(path)

    def _write(self, tmp_path, entries):
        path = tmp_path / "ads.json"
        path.write_text(json.dumps(entries))
        return path

    def _entry(self, **overrides):
        entry = {"ad_id": "x", "label": "sentimental", "duration_s": 20.0,
                 "moments": [[2.0, 5.0]]}
        entry.update(overrides)
        return entry

    def test_missing_key(self, tmp_path):
        e = self._entry()
        del e["duration_s"]
        with pytest.raises(SchemaError):
            parse_ad_annotations(self._write(tmp_path, [e]))

    def test_extra_key(self, tmp_path):
        with pytest.raises(SchemaError):
            parse_ad_annotations(
                self._write(tmp_path, [self._entry(station="wxyz")]))

    def test_duplicate_ad_id(self, tmp_path):
        with pytest.raises(SchemaError):
            parse_ad_annotations(
                self._write(tmp_path, [self._entry(), self._entry()]))

    def test_bad_label(self, tmp_path):
        with pytest.raises(ValidationError):
            parse_ad_annotations(
                self._write(tmp_path, [self._entry(label="exciting")]))

    def test_overlapping_moments(self, tmp_path):
        bad = self._entry(moments=[[2.0, 8.0], [5.0, 11.0]])
        with pytest.raises(ValidationError):
            parse_ad_annotations(self._write(tmp_path, [bad]))

    def test_moments_sorted_by_parser(self, tmp_path):
        entry = self._entry(moments=[[12.0, 15.0], [2.0, 5.0]])
        ads = parse_ad_annotations(self._write(tmp_path, [entry]))
        assert ads["x"].moments == (Interval(2.0, 5.0), Interval(12.0, 15.0))

    def test_nonsentimental_with_moments(self, tmp_path):
        bad = self._entry(label="non_sentimental")
        with pytest.raises(ValidationError):
            parse_ad_annotations(self._write(tmp_path, [bad]))

    def test_bad_moment_shape(self, tmp_path):
        for moments in ([[1.0]], [[1.0, 2.0, 3.0]], [["a", 2.0]], [[True, 2.0]], "x"):
            with pytest.raises(SchemaError):
                parse_ad_annotations(
                    self._write(tmp_path, [self._entry(moments=moments)]))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_ad_annotations(tmp_path / "absent.json")

    @pytest.mark.parametrize("text", [
        '[{"ad_id": "x", "label": "non_sentimental", "duration_s": ' + "9" * 5000 + ', '
        '"moments": []}]',
        "[" * 100_000 + "]" * 100_000,
    ], ids=["integer-past-the-digit-limit", "nested-too-deep"])
    def test_json_that_python_cannot_load(self, tmp_path, text):
        path = tmp_path / "ads.json"
        path.write_text(text)
        with pytest.raises(SchemaError, match=re.escape(f"{path}: not valid JSON")):
            parse_ad_annotations(path)


def sample_videos():
    v1 = make_video("v1", "a1", [
        (0.0, True, [0.25] * 20),
        (0.5, False, None),
        (1.0, True, [0.0] * 19 + [1.0]),
    ])
    v2 = constant_video("v2", "a2", [0.5] * 20, n_frames=3, fps=2.0)
    return [v1, v2]


def stream_with_cell(tmp_path, line, column, cell):
    """sample_videos() written out, with one cell replaced."""
    path = tmp_path / "s.csv"
    write_au_stream(sample_videos(), path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[line - 1][rows[0].index(column)] = cell
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


class TestAuStream:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.csv"
        videos = sample_videos()
        write_au_stream(videos, path)
        assert parse_au_stream(path) == videos

    def test_round_trip_is_byte_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_au_stream(sample_videos(), p1)
        write_au_stream(parse_au_stream(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_match_csv_writer_rows(self, tmp_path):
        # ids that csv.writer must quote or leaves empty, and floats whose
        # repr is long or in exponent form
        scores = [1 / 3, 1e-05, 0.0, 1.0] + [0.1 + 0.2] * 16
        videos = [make_video(video_id, ad_id, [(0.0, True, scores),
                                               (1e-07, False, None),
                                               (0.1 + 0.2, True, scores)])
                  for video_id, ad_id in [("v,1", 'a"1'), ("v\n2", "a 2"), ("v3", "")]]
        path = tmp_path / "s.csv"
        write_au_stream(videos, path)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(STREAM_META_COLUMNS + STREAM_AU_COLUMNS)
        for v in videos:
            for row in v.frames:
                face = bool(row.face_detected)
                writer.writerow([v.video_id, v.ad_id, int(row.frame_index),
                                 repr(float(row.timestamp_s)), "1" if face else "0"]
                                + [repr(float(s)) if face else "" for s in row.aus])
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_carriage_return_in_ids_round_trips(self, tmp_path):
        videos = [make_video("v\r1", "a\r", [(0.0, True, [0.5] * 20)])]
        path = tmp_path / "s.csv"
        write_au_stream(videos, path)
        assert parse_au_stream(path) == videos

    def test_full_precision_floats_survive(self, tmp_path):
        scores = [0.1234567890123456789 % 1.0, 1 / 3, 2 / 3] + [0.0] * 17
        video = make_video("v", "a", [(0.1 + 0.2, True, scores)])
        path = tmp_path / "s.csv"
        write_au_stream([video], path)
        back = parse_au_stream(path)[0]
        assert back.frames[0].timestamp_s == 0.1 + 0.2
        assert [back.frames[0].aus[k] for k in range(20)] == [video.frames[0].aus[k] for k in range(20)]

    def test_interleaved_videos(self, tmp_path):
        path = tmp_path / "s.csv"
        write_au_stream(sample_videos(), path)
        lines = path.read_text().splitlines()
        # interleave: v1 row, v2 rows, remaining v1 rows
        reordered = [lines[0], lines[1], lines[4], lines[5], lines[6],
                     lines[2], lines[3]]
        path.write_text("\n".join(reordered) + "\n")
        videos = parse_au_stream(path)
        assert [v.video_id for v in videos] == ["v1", "v2"]
        assert videos == sample_videos()

    def test_au_columns_matched_by_name(self, tmp_path):
        # the header must be exactly STREAM_COLUMNS: two swapped AU columns
        # are refused, naming the first column out of place
        full = ["video_id", "ad_id", "frame_index", "timestamp_s", "face_detected"]
        aus = ["au_1", "au_2", "au_4", "au_5", "au_6", "au_7", "au_9", "au_10",
               "au_14", "au_15", "au_17", "au_18", "au_20", "au_24", "au_25",
               "au_26", "au_28", "au_eye_closure", "au_smile", "au_smirk"]
        aus[0], aus[18] = aus[18], aus[0]  # au_smile first, au_1 where smile was
        values = ["0.0"] * 20
        values[0] = "0.9"   # goes to au_smile
        values[18] = "0.4"  # goes to au_1
        path = tmp_path / "s.csv"
        path.write_text(",".join(full + aus) + "\n"
                        + ",".join(["v", "a", "0", "0.0", "1"] + values) + "\n")
        with pytest.raises(SchemaError, match=re.escape(
                ":1: header column 6 is 'au_smile', expected 'au_1'")):
            parse_au_stream(path)

    def _base(self, tmp_path, mutate):
        path = tmp_path / "s.csv"
        write_au_stream(sample_videos(), path)
        lines = path.read_text().splitlines()
        mutate(lines)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_wrong_cell_count(self, tmp_path):
        path = self._base(tmp_path, lambda ls: ls.__setitem__(1, ls[1] + ",0.5"))
        with pytest.raises(SchemaError, match=":2:"):
            parse_au_stream(path)

    def test_bad_face_flag(self, tmp_path):
        path = self._base(tmp_path, lambda ls: ls.__setitem__(
            1, ls[1].replace(",1,", ",2,", 1)))
        with pytest.raises(SchemaError, match="face_detected"):
            parse_au_stream(path)

    def test_missing_au_on_face_row(self, tmp_path):
        def chop(ls):
            cells = ls[1].split(",")
            cells[-1] = ""
            ls[1] = ",".join(cells)
        path = self._base(tmp_path, chop)
        with pytest.raises(ValidationError, match="missing AU value"):
            parse_au_stream(path)

    def test_au_value_on_faceless_row(self, tmp_path):
        def fill(ls):
            cells = ls[2].split(",")  # v1 frame 1 is faceless
            cells[-1] = "0.5"
            ls[2] = ",".join(cells)
        path = self._base(tmp_path, fill)
        with pytest.raises(ValidationError, match="must be empty"):
            parse_au_stream(path)

    def test_non_numeric_au(self, tmp_path):
        def poison(ls):
            cells = ls[1].split(",")
            cells[-1] = "high"
            ls[1] = ",".join(cells)
        path = self._base(tmp_path, poison)
        with pytest.raises(SchemaError):
            parse_au_stream(path)

    def test_au_out_of_range(self, tmp_path):
        def poison(ls):
            cells = ls[1].split(",")
            cells[-1] = "1.25"
            ls[1] = ",".join(cells)
        path = self._base(tmp_path, poison)
        with pytest.raises(ValidationError):
            parse_au_stream(path)

    def test_duplicate_column(self, tmp_path):
        path = self._base(tmp_path, lambda ls: ls.__setitem__(
            0, ls[0] + ",au_smile"))
        with pytest.raises(SchemaError, match=re.escape(
                ":1: header column 26 is 'au_smile', expected no more columns")):
            parse_au_stream(path)

    @pytest.mark.parametrize("column", ["au_SMILE", "au_e_y_e_closure", "au_eyeclosure"])
    def test_au_columns_need_their_exact_names(self, tmp_path, column):
        name = "au_smile" if "SMILE" in column else "au_eye_closure"
        path = self._base(tmp_path, lambda ls: ls.__setitem__(0, ls[0].replace(name, column)))
        k = STREAM_AU_COLUMNS.index(name) + len(STREAM_META_COLUMNS) + 1
        with pytest.raises(SchemaError, match=re.escape(
                f":1: header column {k} is '{column}', expected '{name}'")):
            parse_au_stream(path)

    def test_unknown_column(self, tmp_path):
        path = self._base(tmp_path, lambda ls: ls.__setitem__(
            0, ls[0].replace("au_smirk", "au_frown")))
        with pytest.raises(SchemaError, match="au_frown"):
            parse_au_stream(path)

    def test_missing_meta_column(self, tmp_path):
        def drop(ls):
            ls[0] = ls[0].replace("timestamp_s,", "")
            for i in range(1, len(ls)):
                cells = ls[i].split(",")
                del cells[3]
                ls[i] = ",".join(cells)
        path = self._base(tmp_path, drop)
        with pytest.raises(SchemaError, match=re.escape(
                ":1: header column 4 is 'face_detected', expected 'timestamp_s'")):
            parse_au_stream(path)

    def test_non_increasing_frame_index(self, tmp_path):
        def dup(ls):
            ls.append(ls[1])  # repeat v1 frame 0 at the end
        path = self._base(tmp_path, dup)
        with pytest.raises(ValidationError, match="increase strictly"):
            parse_au_stream(path)

    def test_video_switching_ads(self, tmp_path):
        def switch(ls):
            ls[3] = ls[3].replace("v1,a1", "v1,a9", 1)
        path = self._base(tmp_path, switch)
        with pytest.raises(ValidationError, match="both ads"):
            parse_au_stream(path)

    def test_decreasing_timestamps(self, tmp_path):
        # v1 frame 2 keeps its index but goes back before frame 1's 0.5 s
        path = self._base(tmp_path, lambda ls: ls.__setitem__(
            3, ls[3].replace("v1,a1,2,1.0,", "v1,a1,2,0.25,", 1)))
        with pytest.raises(ValidationError, match=re.escape(
                ":4: video 'v1' timestamps must be non-decreasing")):
            parse_au_stream(path)

    @pytest.mark.parametrize("ids", [",a2", "v2,"], ids=["empty video_id", "empty ad_id"])
    def test_empty_id(self, tmp_path, ids):
        path = self._base(tmp_path, lambda ls: ls.__setitem__(
            5, ls[5].replace("v2,a2", ids, 1)))
        with pytest.raises(SchemaError, match=":6: empty video_id or ad_id"):
            parse_au_stream(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            parse_au_stream(path)

    def test_oversized_cell(self, tmp_path):
        # the csv module refuses fields over its 128 KiB limit
        path = self._base(tmp_path, lambda ls: ls.__setitem__(
            2, "v" * 200_000 + ls[2][2:]))
        with pytest.raises(SchemaError, match=":3:"):
            parse_au_stream(path)

    @pytest.mark.parametrize("ids", [("#v 1", " a#1 "), (" v", "a # 2 ")])
    def test_hash_and_spaces_in_ids(self, tmp_path, ids):
        videos = [make_video(*ids, [(0.0, True, [0.5] * 20), (0.5, False, None)])]
        path = tmp_path / "s.csv"
        write_au_stream(videos, path)
        assert parse_au_stream(path) == videos

    def test_ids_after_the_numbers(self, tmp_path):
        # nothing writes this order, and the header check refuses it
        path = tmp_path / "s.csv"
        write_au_stream(sample_videos(), path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row[2:] + row[1::-1] for row in csv.reader(fh)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        with pytest.raises(SchemaError, match=re.escape(
                ":1: header column 1 is 'frame_index', expected 'video_id'")):
            parse_au_stream(path)

    @pytest.mark.parametrize("edit", ["quoted ids", "crlf"])
    def test_other_files_are_read_by_rows(self, tmp_path, edit):
        videos = sample_videos()
        if edit == "quoted ids":
            videos = [make_video('v,"1"', "a 1", [(0.0, True, [0.25] * 20)])]
        path = tmp_path / "s.csv"
        write_au_stream(videos, path)
        if edit == "crlf":
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert parse_au_stream(path) == videos

    @pytest.mark.parametrize("edit, error", [
        ("blank line", "expected 25 cells, got 0"),
        ("wrong cell count", "expected 25 cells, got 26"),
        ("cell over 128 KiB", "field larger than field limit"),
    ])
    def test_errors_are_named_by_rows(self, tmp_path, edit, error):
        path = tmp_path / "s.csv"
        write_au_stream(sample_videos(), path)
        lines = path.read_text().splitlines()
        if edit == "blank line":
            lines.insert(2, "")
        elif edit == "wrong cell count":
            lines[2] += ","
        else:
            lines[2] = "v" * 200_000 + lines[2][2:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=f":3: {error}"):
            parse_au_stream(path)

    @pytest.mark.parametrize("cell", ["1_0", " 5", "0.5 ", "+0.5", "\u0665", "nan", "inf"])
    @pytest.mark.parametrize("column", ["frame_index", "timestamp_s", "au_smirk"])
    def test_number_grammar_rejects(self, tmp_path, column, cell):
        path = stream_with_cell(tmp_path, 2, column, cell)
        with pytest.raises(SchemaError, match=re.escape(f":2: column '{column}' holds {cell!r}, not a")):
            parse_au_stream(path)

    @pytest.mark.parametrize("cell", ["3.0", "3.", "3e0", "3E0", "3.7", "3e+0"])
    def test_frame_index_takes_no_decimal(self, tmp_path, cell):
        # frame_index is an _INTEGER cell, so even a whole value is refused
        # with a decimal point or an exponent
        path = stream_with_cell(tmp_path, 2, "frame_index", cell)
        with pytest.raises(SchemaError, match=re.escape(
                f":2: column 'frame_index' holds {cell!r}, not an integer")):
            parse_au_stream(path)

    @pytest.mark.parametrize("rows_before", [0, 1, 3])
    def test_row_with_only_ids(self, tmp_path, rows_before):
        # "w,b," is a row of three cells, not a blank line
        path = tmp_path / "s.csv"
        write_au_stream(sample_videos(), path)
        lines = path.read_text().splitlines()
        lines.insert(1 + rows_before, "w,b,")
        path.write_text("\n".join(lines[:2 + rows_before]) + "\n")
        with pytest.raises(SchemaError, match=f":{2 + rows_before}: expected 25 cells, got 3"):
            parse_au_stream(path)

    @pytest.mark.parametrize("cell", ["0.", ".5", "5e-1", "5.E-1", "0.05e+1", "-0.0", "1e-400"])
    @pytest.mark.parametrize("column", ["timestamp_s", "au_smirk"])
    def test_number_grammar_accepts(self, tmp_path, column, cell):
        path = stream_with_cell(tmp_path, 2, column, cell)
        v1, v2 = sample_videos()
        stamps, aus = v1.frames.timestamp_s.copy(), v1.frames.aus.copy()
        if column == "timestamp_s":
            stamps[0] = float(cell)
        else:
            aus[0, -1] = float(cell)
        videos = parse_au_stream(path)
        assert videos == [VideoRecord.from_columns("v1", "a1", v1.frames.frame_index, stamps,
                                                   v1.frames.face_detected, aus), v2]
        frame = videos[0].frames[0]
        value = frame.timestamp_s if column == "timestamp_s" else frame.aus[-1]
        assert value == float(cell)

    @pytest.mark.parametrize("column, cell, error", [
        ("frame_index", "-1", "frame_index -1 out of range"),
        ("frame_index", "9" * 19, "frame_index 9{19} out of range"),
        ("timestamp_s", "-0.5", "timestamp_s must be finite"),
        ("timestamp_s", "1e400", "timestamp_s must be finite"),
        ("au_smirk", "-0.25", r"AU scores must lie in \[0, 1\]"),
    ])
    def test_out_of_range_numbers(self, tmp_path, column, cell, error):
        path = stream_with_cell(tmp_path, 2, column, cell)
        with pytest.raises(ValidationError, match=f":2: {error}"):
            parse_au_stream(path)

    def test_frame_index_with_many_leading_zeros(self, tmp_path):
        # int() refuses strings of over 4300 digits, so the leading zeros go
        # before the value is read
        path = stream_with_cell(tmp_path, 3, "frame_index", "0" * 5000 + "1")
        assert parse_au_stream(path) == sample_videos()

    @pytest.mark.parametrize("cell", ["9" * 18, "0" * 17 + "1"])
    def test_frame_index_of_18_characters(self, tmp_path, cell):
        path = tmp_path / "s.csv"
        write_au_stream([make_video("v", "a", [(0.0, True, [0.5] * 20)])], path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace(",0,", f",{cell},", 1)
        path.write_text("\n".join(lines) + "\n")
        videos = parse_au_stream(path)
        assert videos == [VideoRecord.from_columns("v", "a", [int(cell)], [0.0], [True],
                                                   np.full((1, 20), 0.5))]
        assert videos[0].frames[0].frame_index == int(cell)


class WithoutSidecars:
    """Sidecars off, as on a Python without _blake2: nothing writes or reads
    one, so the CSV parser reads every file, the unchanged ones too."""

    @pytest.fixture(autouse=True)
    def _no_sidecars(self, monkeypatch):
        monkeypatch.setattr(ingest, "blake2b", None)


class TestAuStreamWithoutSidecars(WithoutSidecars, TestAuStream):
    pass


def sidecar_of(path):
    return Path(str(path) + SIDECAR_SUFFIX)


def outcome(path):
    """parse_au_stream's records with their frame bytes, or the type and
    message of its SentiPipeError."""
    try:
        return [(v.video_id, v.ad_id, v.frames.tobytes()) for v in parse_au_stream(path)]
    except SentiPipeError as exc:
        return type(exc), str(exc)


def rewrite_sidecar(sidecar, frames=None, table=None):
    """The sidecar with its frame bytes edited in place by ``frames`` or its
    table replaced by ``table(old table)``, and its head made to match the
    new body, so that only the reader's other checks can refuse it."""
    data = sidecar.read_bytes()
    head = ingest._SIDECAR_HEAD
    fields = list(head.unpack_from(data))
    table_at = fields[4]
    body = bytearray(data[head.size:table_at])
    if frames is not None:
        frames(body)
    old_table = json.loads(data[table_at:])
    new_table = json.dumps(old_table if table is None else table(old_table)).encode()
    body += new_table
    fields[2] = zlib.crc32(body)
    fields[5] = len(new_table)
    sidecar.write_bytes(head.pack(*fields) + body)


def break_invariant(sidecar):
    # the first frame's first AU score set to 2.0
    offset = ingest.FRAME_DTYPE.fields["aus"][1]
    rewrite_sidecar(sidecar, frames=lambda body: body.__setitem__(
        slice(offset, offset + 8), np.float64(2.0).tobytes()))


def table_edit(edit):
    """A damage that applies ``edit`` to the table's list of [video_id,
    ad_id, frame count]."""
    def damage(sidecar):
        def change(table):
            videos = [list(video) for video in table["videos"]]
            edit(videos)
            return {**table, "videos": videos}
        rewrite_sidecar(sidecar, table=change)
    return damage


def wrong_version(sidecar):
    data = bytearray(sidecar.read_bytes())
    data[8:12] = (ingest._SIDECAR_VERSION + 1).to_bytes(4, "little")
    sidecar.write_bytes(bytes(data))


SIDECAR_DAMAGE = {
    "missing": lambda sidecar: sidecar.unlink(),
    "truncated in the head": lambda sidecar: sidecar.write_bytes(sidecar.read_bytes()[:40]),
    "truncated in the frames": lambda sidecar: sidecar.write_bytes(
        sidecar.read_bytes()[:sidecar.stat().st_size // 2]),
    "garbage": lambda sidecar: sidecar.write_bytes(
        np.random.default_rng(0).bytes(sidecar.stat().st_size)),
    "wrong version": wrong_version,
    "frames that break an invariant": break_invariant,
    "a table that is no object": lambda sidecar: rewrite_sidecar(
        sidecar, table=lambda table: table["videos"]),
    "another dtype": lambda sidecar: rewrite_sidecar(
        sidecar, table=lambda table: {**table, "dtype": "<f8"}),
    "a repeated video_id": table_edit(lambda videos: videos[1].__setitem__(0, videos[0][0])),
    "an empty ad_id": table_edit(lambda videos: videos[0].__setitem__(1, "")),
    "frame counts that do not add up": table_edit(
        lambda videos: videos[0].__setitem__(2, videos[0][2] + 1)),
    "a frame count of 0": table_edit(lambda videos: (videos[0].__setitem__(2, 0),
                                                     videos[1].__setitem__(2, videos[1][2] + 3))),
    "a frame changed": lambda sidecar: sidecar.write_bytes(
        sidecar.read_bytes().replace(np.float64(0.25).tobytes(), np.float64(0.125).tobytes(), 1)),
    "a directory": lambda sidecar: (sidecar.unlink(), sidecar.mkdir()),
}

# CSV edits that keep the file's size, so only its bytes tell it from the
# file written: a valid AU value changed, and one made out of range
CSV_EDITS = {
    "unchanged": lambda text: text,
    "one cell changed": lambda text: text.replace(",0.25,", ",0.75,", 1),
    "one cell out of range": lambda text: text.replace(",0.25,", ",1.25,", 1),
}


class TestStreamSidecar:
    def test_writer_writes_it_and_the_csv_is_not_parsed(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        write_au_stream(sample_videos(), path)
        assert sidecar_of(path).is_file()

        def no_parse(path):
            raise AssertionError("the CSV was parsed")
        monkeypatch.setattr(ingest, "_parse_stream_rows", no_parse)
        videos = parse_au_stream(path)
        assert videos == sample_videos()
        assert all(not v.frames.flags.writeable for v in videos)

    def test_sidecar_and_rows_give_equal_bytes(self, tmp_path):
        # -0.0 scores on a row without a face read back from the CSV as 0.0
        aus = np.zeros((3, 20))
        aus[0], aus[1] = 0.25, -0.0
        videos = [VideoRecord.from_columns("v", "a", [0, 1, 2], [-0.0, 0.5, 1.0],
                                           [True, False, True], aus),
                  *sample_videos()]
        path = tmp_path / "s.csv"
        write_au_stream(videos, path)
        by_sidecar = parse_au_stream(path)
        by_rows = _parse_stream_rows(path)
        assert by_sidecar == by_rows == videos
        for a, b in zip(by_sidecar, by_rows):
            assert a.frames.tobytes() == b.frames.tobytes()

    def test_bytes_are_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_au_stream(sample_videos(), p1)
        write_au_stream(parse_au_stream(p1), p2)
        assert sidecar_of(p1).read_bytes() == sidecar_of(p2).read_bytes()

    @pytest.mark.parametrize("edit", CSV_EDITS)
    @pytest.mark.parametrize("damage", SIDECAR_DAMAGE)
    def test_any_other_sidecar_gives_what_the_csv_gives(self, tmp_path, damage, edit):
        path = tmp_path / "s.csv"
        write_au_stream(sample_videos(), path)
        text = path.read_text()
        path.write_text(CSV_EDITS[edit](text))
        assert len(path.read_text()) == len(text)
        SIDECAR_DAMAGE[damage](sidecar_of(path))
        assert ingest._read_sidecar(path) is None
        got = outcome(path)
        if sidecar_of(path).is_dir():
            sidecar_of(path).rmdir()
        else:
            sidecar_of(path).unlink(missing_ok=True)
        assert got == outcome(path)
        if edit == "one cell out of range":
            assert got == (ValidationError, f"{path}:2: AU scores must lie in [0, 1]")

    def test_stale_after_a_same_size_edit(self, tmp_path):
        path = tmp_path / "s.csv"
        write_au_stream(sample_videos(), path)
        path.write_text(path.read_text().replace(",0.25,", ",0.75,", 1))
        assert sidecar_of(path).is_file()
        videos = parse_au_stream(path)
        assert videos[0].frames.aus[0].tolist() == [0.75] + [0.25] * 19
        assert videos == _parse_stream_rows(path)

    @pytest.mark.parametrize("ids", [
        [("v1", "a1"), ("", "a2")],
        [("v1", "a1"), ("v2", "")],
        [("v1", "a1"), ("v1", "a2")],
        [("v1", "a1"), ("v" * (csv.field_size_limit() + 1), "a2")],
    ], ids=["empty video_id", "empty ad_id", "repeated video_id", "id over the field limit"])
    def test_no_sidecar_for_ids_that_do_not_read_back(self, tmp_path, ids):
        path = tmp_path / "s.csv"
        write_au_stream(sample_videos(), path)
        assert sidecar_of(path).is_file()
        videos = [make_video(video_id, ad_id, [(0.0, True, [0.5] * 20)]) for video_id, ad_id in ids]
        write_au_stream(videos, path)
        assert not sidecar_of(path).exists()

    def test_failed_write_leaves_no_sidecar(self, tmp_path):
        path = tmp_path / "s.csv"
        write_au_stream(sample_videos(), path)
        # a lone surrogate is no UTF-8
        videos = [*sample_videos(), make_video("v\ud800", "a", [(0.0, True, [0.5] * 20)])]
        with pytest.raises(UnicodeEncodeError):
            write_au_stream(videos, path)
        assert not sidecar_of(path).exists()

    def test_sidecar_path_is_a_directory(self, tmp_path):
        path = tmp_path / "s.csv"
        sidecar_of(path).mkdir()
        write_au_stream(sample_videos(), path)
        assert sidecar_of(path).is_dir()
        assert _parse_stream_rows(path) == parse_au_stream(path) == sample_videos()

    @staticmethod
    def fail_sidecar_body(monkeypatch, error):
        """Make the third write to a sidecar, the second video's frames after
        the head and the first video's, raise ``error``."""
        class FailingWrites:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
                    raise error
                return self.fh.write(data)

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

        def sidecar_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            return FailingWrites(fh) if str(file).endswith(SIDECAR_SUFFIX) else fh
        monkeypatch.setattr(ingest, "open", sidecar_open, raising=False)

    def test_sidecar_write_error_leaves_the_csv_and_no_sidecar(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        write_au_stream(sample_videos(), path)
        self.fail_sidecar_body(monkeypatch, OSError("disk full"))
        write_au_stream(sample_videos(), path)
        assert not sidecar_of(path).exists()
        assert parse_au_stream(path) == sample_videos()

    def test_interrupted_sidecar_write_propagates(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        write_au_stream(sample_videos(), path)
        self.fail_sidecar_body(monkeypatch, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            write_au_stream(sample_videos(), path)
        assert ingest._read_sidecar(path) is None

    @pytest.mark.parametrize("keep", [True, False], ids=["sidecar", "no sidecar"])
    def test_readers_create_or_change_no_file(self, tmp_path, keep):
        path = tmp_path / "s.csv"
        write_au_stream(sample_videos(), path)
        if not keep:
            sidecar_of(path).unlink()
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        parse_au_stream(path)
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_missing_csv_with_a_sidecar(self, tmp_path):
        path = tmp_path / "s.csv"
        write_au_stream(sample_videos(), path)
        path.unlink()
        with pytest.raises(FileNotFoundError, match=re.escape(str(path))):
            parse_au_stream(path)

    def test_without_blake2_no_sidecar_is_written_or_read(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        write_au_stream(sample_videos(), path)
        sidecar = sidecar_of(path).read_bytes()
        path.write_text(path.read_text().replace(",0.25,", ",1.25,", 1))
        sidecar_of(path).write_bytes(sidecar)
        monkeypatch.setattr(ingest, "blake2b", None)
        with pytest.raises(ValidationError, match=":2: AU scores"):
            parse_au_stream(path)
        write_au_stream(sample_videos(), tmp_path / "t.csv")
        assert not sidecar_of(tmp_path / "t.csv").exists()


class TestCoverage:
    def test_face_coverage(self):
        spec = [(i * 0.5, i % 2 == 0, [0.1] * 20 if i % 2 == 0 else None)
                for i in range(10)]
        assert face_coverage(make_video("v", "a", spec)) == 0.5

    def test_boundary_inclusive(self):
        # 9 of 10 frames -> exactly 0.9: kept
        spec = [(i * 0.5, i != 0, [0.1] * 20 if i != 0 else None)
                for i in range(10)]
        video = make_video("v", "a", spec)
        kept, dropped = filter_by_coverage([video], 0.9)
        assert kept == [video] and dropped == []

    def test_below_boundary_dropped(self):
        # 899 of 1000 frames -> 0.899: dropped
        spec = [(i * 0.1, i >= 101, [0.1] * 20 if i >= 101 else None)
                for i in range(1000)]
        video = make_video("v", "a", spec)
        kept, dropped = filter_by_coverage([video], DEFAULT_MIN_COVERAGE)
        assert kept == [] and dropped == ["v"]

    def test_bad_min_coverage(self):
        with pytest.raises(ConfigError):
            filter_by_coverage([], 1.5)


class TestDataset:
    def test_unknown_ad_rejected(self, tmp_path, two_ads):
        video = constant_video("v", "mystery_ad", [0.2] * 20, n_frames=2)
        with pytest.raises(ValidationError, match="unknown ad"):
            Dataset(ads=two_ads, videos=(video,))
        ann, streams = tmp_path / "ads.json", tmp_path / "s.csv"
        write_ad_annotations(two_ads, ann)
        write_au_stream([video], streams)
        with pytest.raises(ValidationError, match=(
                f"^{re.escape(str(streams))}: video 'v' references unknown ad 'mystery_ad'"
                f".*{re.escape(str(ann))}")):
            load_dataset(ann, streams)

    def test_duplicate_video_id(self, two_ads):
        v1 = constant_video("v", "a1", [0.2] * 20, n_frames=2)
        v2 = constant_video("v", "a2", [0.3] * 20, n_frames=2)
        with pytest.raises(ValidationError, match="duplicate"):
            Dataset(ads=two_ads, videos=(v1, v2))

    def test_key_mismatch(self, two_ads):
        remapped = {"zz": two_ads["a1"]}
        with pytest.raises(ValidationError, match="does not match"):
            Dataset(ads=remapped, videos=())

    def test_videos_by_ad(self, two_ads):
        ads = {"a0": AdSpec(ad_id="a0", label=AdLabel.NON_SENTIMENTAL,
                            duration_s=5.0), **two_ads}
        v1 = constant_video("v1", "a2", [0.2] * 20, n_frames=2)
        v2 = constant_video("v2", "a1", [0.3] * 20, n_frames=2)
        v3 = constant_video("v3", "a2", [0.4] * 20, n_frames=2)
        ds = Dataset(ads=ads, videos=(v1, v2, v3))
        grouped = grouped_by_ad(ds.videos, ds.ads)
        # ads keep their insertion order, not the order videos arrive in;
        # a0 has no videos and is left out
        assert list(grouped) == ["a1", "a2"]
        assert [v.video_id for v in grouped["a1"]] == ["v2"]
        assert [v.video_id for v in grouped["a2"]] == ["v1", "v3"]

    def test_load_write_round_trip(self, tmp_path, two_ads):
        videos = (constant_video("v1", "a1", [0.2] * 20, n_frames=4),
                  constant_video("v2", "a2", [0.6] * 20, n_frames=4))
        ds = Dataset(ads=two_ads, videos=videos)
        ann, streams = tmp_path / "ads.json", tmp_path / "s.csv"
        write_dataset(ds, ann, streams)
        loaded, dropped = load_dataset(ann, streams)
        assert dropped == []
        assert loaded == ds

    def test_load_applies_coverage_filter(self, tmp_path, two_ads):
        bad_spec = [(i * 0.5, i >= 5, [0.1] * 20 if i >= 5 else None)
                    for i in range(10)]
        videos = (constant_video("v1", "a1", [0.2] * 20, n_frames=4),
                  make_video("v2", "a2", bad_spec))
        ann, streams = tmp_path / "ads.json", tmp_path / "s.csv"
        write_dataset(Dataset(ads=two_ads, videos=videos), ann, streams)
        loaded, dropped = load_dataset(ann, streams, 0.9)
        assert dropped == ["v2"]
        assert [v.video_id for v in loaded.videos] == ["v1"]


finite_score = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.booleans(), st.lists(finite_score, min_size=20, max_size=20)),
    min_size=1, max_size=8))
def test_stream_round_trip_property(tmp_path_factory, frame_specs):
    video = make_video("v", "a", [(i * 0.25, face, scores)
                                  for i, (face, scores) in enumerate(frame_specs)])
    path = tmp_path_factory.mktemp("rt") / "s.csv"
    write_au_stream([video], path)
    assert parse_au_stream(path) == [video]
