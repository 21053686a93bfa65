"""Fuzz the four parsers with one drawn value spliced into a valid file.

Each case starts from what the matching writer produced and replaces one JSON
value or one CSV cell. The parser must then either parse the file, and the
result must survive a write -> parse round trip unchanged, or raise a
SentiPipeError subclass. Any other exception fails the test.

The AU stream parser has two paths, an array path over blocks and a row
parser that names the failing file:line. Differential cases run both on every
drawn file.
"""

import copy
import csv
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from sentipipe.aggregate import read_curves_csv, write_curves_csv
from sentipipe.core import AdLabel, AdSpec, Examples, Interval
from sentipipe.errors import SentiPipeError
from sentipipe.ingest import (
    _DECIMAL,
    _parse_stream_blocks,
    _parse_stream_rows,
    parse_ad_annotations,
    parse_au_stream,
    write_ad_annotations,
    write_au_stream,
)
from sentipipe.weak_label import read_examples_jsonl, write_examples_jsonl

from conftest import au_vec, constant_video, curve_of, make_video

FUZZ = settings(max_examples=50, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# values near the valid ones (so some files still parse) plus arbitrary JSON
json_values = st.one_of(
    st.integers(-2, 40),
    st.floats(-1.0, 41.0),
    st.sampled_from(["v9", "", "sentimental", "non_sentimental", [1.0, 2.0]]),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
        max_leaves=6),
)

cell_texts = st.one_of(
    st.text(),
    st.sampled_from(["", "0", "1", "-1", "-0.0", "nan", "inf", "1e400", "0.5 ",
                     "9" * 30, "au_1", "video_id"]),
    st.floats().map(repr),
    st.integers().map(str),
)


# numbers in and out of the stream grammar, and near misses
number_texts = st.one_of(
    st.from_regex(_DECIMAL, fullmatch=True),
    st.from_regex(r"[-+ ]?[0-9._eE+\u0665]{0,6}[ \t]?", fullmatch=True),
    st.sampled_from(["1_0", " 5", "0.5 ", "+0.5", "\u0665", "nan", "inf", "-0", "1e-400",
                     "0" * 30 + "1", "9" * 19, "2", "01", "1.0"]),
)

# whole-line edits: some break the file, some only keep it from the array path
line_edits = st.sampled_from(["blank line", "crlf", "quote", "nul", "duplicate", "swap",
                              "drop final newline", "extra cell", "drop last cell",
                              "cut after ids"])


def json_paths(value, prefix=()):
    """Every key/index path into a JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from json_paths(item, prefix + (i,))


def replaced(value, path, new):
    if not path:
        return new
    out = copy.deepcopy(value)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = new
    return out


def parses_or_raises_typed(parse, write, path):
    try:
        parsed = parse(path)
    except SentiPipeError:
        return
    again = path.with_name("again" + path.suffix)
    write(parsed, again)
    assert parse(again) == parsed


def stream_outcome(parse, path):
    """A parse's records, or the type and message of its SentiPipeError."""
    try:
        return parse(path)
    except SentiPipeError as exc:
        return type(exc), str(exc)


def array_path_takes(path):
    """Whether the array path takes the file: no quote, carriage return or
    NUL, no blank line and no line over the csv field limit."""
    text = path.read_bytes().decode("utf-8")
    lines = text.removesuffix("\n").split("\n")
    return (not any(c in text for c in '"\r\0') and "" not in lines
            and max(map(len, lines)) <= csv.field_size_limit())


def assert_stream_paths_agree(path):
    """parse_au_stream gives what the row parser gives. The array path gives
    the same records, or declines a file that the row parser rejects or that
    it does not take."""
    by_rows = stream_outcome(_parse_stream_rows, path)
    assert stream_outcome(parse_au_stream, path) == by_rows
    by_blocks = _parse_stream_blocks(path)
    if by_blocks is None:
        assert isinstance(by_rows, tuple) or not array_path_takes(path)
    else:
        assert by_blocks == by_rows


ADS = {
    "a1": AdSpec(ad_id="a1", label=AdLabel.SENTIMENTAL, duration_s=30.0,
                 moments=(Interval(3.0, 9.0), Interval(12.5, 20.0))),
    "a2": AdSpec(ad_id="a2", label=AdLabel.NON_SENTIMENTAL, duration_s=15.5),
}

VIDEOS = [
    make_video("v1", "a1", [(0.0, True, [0.25] * 20), (0.5, False, None),
                            (1.0, True, [0.0] * 19 + [1.0])]),
    constant_video("v2", "a2", [0.5] * 20, n_frames=3, fps=2.0),
]

CURVES = [
    curve_of([0.25, 1 / 3, 0.5, 1.0], ad_id="a1", counts=[2, 0, 1, 3]),
    curve_of([0.7], ad_id="a2"),
    curve_of([0.0, 0.125], step=1.5, ad_id="a3", counts=[1, 1]),
]

EXAMPLES = Examples(("v1", "v1", "v2"), [0, 4, 0], [0, 1, 0],
                    [au_vec(i0=0.1), au_vec(i0=0.5, i4=0.9), au_vec(i7=1 / 3)])


@FUZZ
@given(data=st.data())
def test_annotation_parser(tmp_path, data):
    path = tmp_path / "ads.json"
    write_ad_annotations(ADS, path)
    payload = json.loads(path.read_text())
    where = data.draw(st.sampled_from(list(json_paths(payload))))
    path.write_text(json.dumps(replaced(payload, where, data.draw(json_values))))
    parses_or_raises_typed(parse_ad_annotations, write_ad_annotations, path)


@FUZZ
@given(data=st.data())
def test_stream_parser(tmp_path, data):
    path = tmp_path / "s.csv"
    write_au_stream(VIDEOS, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    r = data.draw(st.integers(0, len(rows) - 1))
    c = data.draw(st.integers(0, len(rows[r]) - 1))
    rows[r][c] = data.draw(cell_texts)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    parses_or_raises_typed(parse_au_stream, write_au_stream, path)


@FUZZ
@given(data=st.data())
def test_examples_parser(tmp_path, data):
    path = tmp_path / "ex.jsonl"
    write_examples_jsonl(EXAMPLES, path)
    lines = path.read_text().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    obj = json.loads(lines[i])
    where = data.draw(st.sampled_from(list(json_paths(obj))))
    lines[i] = json.dumps(replaced(obj, where, data.draw(json_values)))
    path.write_text("\n".join(lines) + "\n")
    parses_or_raises_typed(read_examples_jsonl, write_examples_jsonl, path)


@FUZZ
@given(data=st.data())
def test_curves_parser(tmp_path, data):
    path = tmp_path / "curves.csv"
    write_curves_csv(CURVES, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    r = data.draw(st.integers(0, len(rows) - 1))
    c = data.draw(st.integers(0, len(rows[r]) - 1))
    rows[r][c] = data.draw(cell_texts)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    parses_or_raises_typed(read_curves_csv, write_curves_csv, path)


def edited_lines(text, edit, i, j):
    lines = text.removesuffix("\n").split("\n")
    if edit == "blank line":
        lines.insert(i, "")
    elif edit == "crlf":
        return text.replace("\n", "\r\n")
    elif edit in ("quote", "nul"):
        lines[i] = lines[i].replace(",", ',"",' if edit == "quote" else ",\0", 1)
    elif edit == "duplicate":
        lines.insert(j, lines[i])
    elif edit == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "drop final newline":
        return text.removesuffix("\n")
    elif edit == "drop last cell":
        lines[i] = lines[i].rsplit(",", 1)[0]
    elif edit == "cut after ids":
        lines[i] = ",".join(lines[i].split(",")[:2]) + ","
    else:
        lines[i] += ","
    return "\n".join(lines) + "\n"


@FUZZ
@given(data=st.data())
def test_stream_paths_agree_on_cell_edits(tmp_path, data):
    path = tmp_path / "s.csv"
    write_au_stream(VIDEOS, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    r = data.draw(st.integers(0, len(rows) - 1))
    c = data.draw(st.integers(0, len(rows[r]) - 1))
    rows[r][c] = data.draw(st.one_of(cell_texts, number_texts))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert_stream_paths_agree(path)


@FUZZ
@given(data=st.data())
def test_stream_paths_agree_on_line_edits(tmp_path, data):
    path = tmp_path / "s.csv"
    write_au_stream(VIDEOS, path)
    n_lines = len(path.read_text().splitlines())
    edit = data.draw(line_edits)
    i, j = (data.draw(st.integers(1, n_lines - 1)) for _ in range(2))
    path.write_bytes(edited_lines(path.read_text(), edit, i, j).encode("utf-8"))
    assert_stream_paths_agree(path)


# any id text; ids the writer must quote send the file to the row parser
stream_ids = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=5)
frame_rows = st.lists(st.tuples(st.booleans(), st.lists(
    st.floats(0.0, 1.0), min_size=20, max_size=20)), min_size=1, max_size=4)


@FUZZ
@given(ids=st.lists(stream_ids, min_size=1, max_size=4, unique=True),
       ad_ids=st.lists(stream_ids, min_size=4, max_size=4), rows=frame_rows,
       stamps=st.lists(st.floats(0.0, 1e18), min_size=4, max_size=4))
def test_stream_paths_agree_on_written_streams(tmp_path, ids, ad_ids, rows, stamps):
    stamps = sorted(stamps[:len(rows)])
    videos = [make_video(video_id, ad_id, [(ts, face, scores) for ts, (face, scores)
                                            in zip(stamps, rows)])
              for video_id, ad_id in zip(ids, ad_ids)]
    path = tmp_path / "s.csv"
    write_au_stream(videos, path)
    assert_stream_paths_agree(path)
    assert parse_au_stream(path) == videos
