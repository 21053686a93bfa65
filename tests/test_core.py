import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sentipipe.core import (
    CANONICAL_AU_NAMES,
    FRAME_DTYPE,
    N_AUS,
    AdLabel,
    AdSpec,
    AggregateCurve,
    ExampleRow,
    Examples,
    Interval,
    VideoRecord,
    canonical_au_index,
)
from sentipipe.aggregate import CURVE_CSV_COLUMNS, read_curves_csv, write_curves_csv
from sentipipe.errors import ConfigError, SchemaError, ValidationError
from sentipipe.ingest import STREAM_COLUMNS, parse_au_stream, write_au_stream
from sentipipe.weak_label import LabelingConfig, extract_examples

from conftest import au_vec, curve_of, make_video


def test_canonical_order_is_frozen():
    assert CANONICAL_AU_NAMES == (
        "AU1", "AU2", "AU4", "AU5", "AU6", "AU7", "AU9", "AU10", "AU14",
        "AU15", "AU17", "AU18", "AU20", "AU24", "AU25", "AU26", "AU28",
        "EyeClosure", "Smile", "Smirk",
    )
    assert N_AUS == 20


def test_canonical_au_index():
    assert canonical_au_index("AU1") == 0
    assert canonical_au_index("au1") == 0
    assert canonical_au_index("Smile") == 18
    assert canonical_au_index("SMIRK") == 19
    assert canonical_au_index("eyeclosure") == 17
    with pytest.raises(ConfigError, match="unknown AU name: 'AU99'"):
        canonical_au_index("AU99")
    with pytest.raises(ConfigError, match="unknown AU name: ''"):
        canonical_au_index("")


MOMENT_AD = {"a": AdSpec(ad_id="a", label=AdLabel.SENTIMENTAL, duration_s=1.0,
                         moments=(Interval(0.0, 1.0),))}


def active_count(scores, threshold=0.5):
    """Active AUs of one face frame as weak labelling counts them: a frame
    inside a moment is a positive exactly when the count reaches
    ``min_active_positive``, so the count is the number of values 1..20 for
    which it is one."""
    video = make_video("v", "a", [(0.0, True, scores)])
    return sum(len(extract_examples([video], MOMENT_AD, LabelingConfig(
        activation_threshold=threshold, min_active_positive=k))) for k in range(1, N_AUS + 1))


class TestActiveAuCount:
    def test_threshold_is_inclusive(self):
        v = au_vec(i0=0.5, i1=0.49999, i2=0.7)
        assert active_count(v, threshold=0.5) == 2

    def test_bad_threshold(self):
        for t in (0.0, 1.0, -0.2, 1.2):
            with pytest.raises(ConfigError):
                active_count(au_vec(), threshold=t)

    @given(st.lists(st.floats(0.0, 1.0), min_size=20, max_size=20),
           st.floats(0.01, 0.99))
    def test_matches_bruteforce(self, scores, threshold):
        assert active_count(scores, threshold) == sum(s >= threshold for s in scores)


def record(index, ts, face, aus=None):
    """VideoRecord from columns; AU scores default to all zero."""
    aus = np.zeros((len(ts), N_AUS)) if aus is None else np.asarray(aus, dtype=float)
    return VideoRecord.from_columns("v", "a", index, ts, face, aus)


class TestVideoRecord:
    def test_face_requires_aus(self):
        # a face row has no "missing" marker: NaN scores are rejected
        aus = np.full((1, N_AUS), 0.5)
        aus[0, 3] = np.nan
        with pytest.raises(ValidationError, match="face frame"):
            record([0], [0.0], [True], aus)

    def test_faceless_forbids_aus(self):
        aus = np.zeros((2, N_AUS))
        aus[1, 0] = 0.25
        with pytest.raises(ValidationError, match="all-zero"):
            record([0, 1], [0.0, 0.5], [True, False], aus)

    def test_negative_index(self):
        with pytest.raises(ValidationError, match="frame_index"):
            record([-1], [0.0], [False])

    def test_au_out_of_range(self):
        for bad in (1.5, -0.1, np.inf):
            aus = np.full((1, N_AUS), 0.5)
            aus[0, 7] = bad
            with pytest.raises(ValidationError, match=r"\[0, 1\]"):
                record([0], [0.0], [True], aus)

    def test_bad_timestamps(self):
        for bad in (-0.5, np.nan, np.inf):
            with pytest.raises(ValidationError, match="finite"):
                record([0], [bad], [False])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            VideoRecord(video_id="v", ad_id="a", frames=np.empty(0, FRAME_DTYPE))

    def test_wrong_frame_type_rejected(self):
        for frames in ((), np.zeros(2)):
            with pytest.raises(ValidationError, match="FRAME_DTYPE"):
                VideoRecord(video_id="v", ad_id="a", frames=frames)

    def test_frame_index_strictly_increasing(self):
        with pytest.raises(ValidationError):
            record([0, 0], [0.0, 0.5], [False, False])

    def test_timestamps_non_decreasing(self):
        with pytest.raises(ValidationError):
            record([0, 1], [1.0, 0.5], [False, False])

    def test_equal_timestamps_allowed(self):
        v = record([0, 1], [1.0, 1.0], [False, False])
        assert len(v.frames) == 2

    def test_frames_read_as_columns_and_rows(self):
        aus = np.zeros((2, N_AUS))
        aus[0, 18] = 0.75
        v = record([3, 5], [0.0, 0.2], [True, False], aus)
        assert v.frames.frame_index.tolist() == [3, 5]
        assert v.frames[1].timestamp_s == 0.2
        assert v.frames[0].face_detected and not v.frames[1].face_detected
        assert v.frames[0].aus[18] == 0.75

    def test_frames_are_read_only_copies(self):
        frames = np.zeros(2, FRAME_DTYPE)
        frames["frame_index"] = [0, 1]
        v = VideoRecord(video_id="v", ad_id="a", frames=frames)
        frames["timestamp_s"] = [5.0, 1.0]  # the caller's array, not the record's
        assert v.frames.timestamp_s.tolist() == [0.0, 0.0]
        with pytest.raises(ValueError):
            v.frames.aus[0, 0] = 0.5

    def test_padding_bytes_are_zero(self):
        # 7 bytes after face_detected in each row; a copy by numpy leaves them
        # undefined, so equal records could differ in frames.tobytes()
        frames = np.zeros(3, FRAME_DTYPE)
        frames["frame_index"] = [0, 1, 2]
        frames.view(np.uint8).reshape(3, -1)[:, 17:24] = 0xAB
        built = VideoRecord.from_columns("v", "a", [0, 1, 2], [0.0] * 3, [False] * 3,
                                         np.zeros((3, N_AUS)))
        copied = VideoRecord("v", "a", frames)
        assert built == copied
        assert built.frames.tobytes() == copied.frames.tobytes()
        assert not np.frombuffer(built.frames.tobytes(), np.uint8).reshape(3, -1)[:, 17:24].any()

    def test_equality_by_value(self):
        a = record([0, 1], [0.0, 0.5], [True, False], [[0.5] * N_AUS, [0.0] * N_AUS])
        b = record([0, 1], [0.0, 0.5], [True, False], [[0.5] * N_AUS, [0.0] * N_AUS])
        assert a == b and a.frames is not b.frames
        assert a != record([0, 1], [0.0, 0.5], [True, False])
        assert a != VideoRecord.from_columns("w", "a", [0, 1], [0.0, 0.5], [True, False],
                                             a.frames.aus)


class TestInterval:
    def test_length(self):
        m = Interval(2.0, 5.5)
        assert m.end_s - m.start_s == 3.5

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            Interval(3.0, 3.0)
        with pytest.raises(ValidationError):
            Interval(5.0, 3.0)
        with pytest.raises(ValidationError):
            Interval(-1.0, 3.0)
        with pytest.raises(ValidationError):
            Interval(0.0, math.inf)


class TestAdSpec:
    def test_sentimental_needs_moments(self):
        with pytest.raises(ValidationError):
            AdSpec(ad_id="a", label=AdLabel.SENTIMENTAL, duration_s=10.0)

    def test_nonsentimental_forbids_moments(self):
        with pytest.raises(ValidationError):
            AdSpec(ad_id="a", label=AdLabel.NON_SENTIMENTAL, duration_s=10.0,
                   moments=(Interval(1.0, 2.0),))

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            AdSpec(ad_id="a", label=AdLabel.SENTIMENTAL, duration_s=30.0,
                   moments=(Interval(10.0, 20.0), Interval(15.0, 25.0)))

    def test_unsorted_rejected(self):
        with pytest.raises(ValidationError):
            AdSpec(ad_id="a", label=AdLabel.SENTIMENTAL, duration_s=30.0,
                   moments=(Interval(10.0, 12.0), Interval(2.0, 4.0)))

    def test_moment_beyond_duration(self):
        with pytest.raises(ValidationError):
            AdSpec(ad_id="a", label=AdLabel.SENTIMENTAL, duration_s=10.0,
                   moments=(Interval(8.0, 12.0),))

    def test_touching_moments_allowed(self):
        ad = AdSpec(ad_id="a", label=AdLabel.SENTIMENTAL, duration_s=30.0,
                    moments=(Interval(2.0, 10.0), Interval(10.0, 16.0)))
        assert ad.is_sentimental
        assert len(ad.moments) == 2

    def test_label_values(self):
        assert AdLabel("sentimental") is AdLabel.SENTIMENTAL
        assert AdLabel("non_sentimental") is AdLabel.NON_SENTIMENTAL
        with pytest.raises(ValueError):
            AdLabel("funny")


class TestExamples:
    @staticmethod
    def columns(n=3):
        """Valid columns of n rows: video_id, frame_index, label, aus."""
        aus = np.tile(np.linspace(0.0, 1.0, N_AUS), (n, 1))
        return ("v",) * n, np.arange(n), np.arange(n) % 2, aus

    def test_valid_roundtrip(self):
        ids, index, label, aus = self.columns()
        examples = Examples(ids, index, label == 1, aus.tolist())
        assert len(examples) == 3 and examples.video_id == ids
        assert examples.frame_index.dtype == examples.label.dtype == np.int64
        assert examples.label.tolist() == [0, 1, 0]
        assert examples.aus.dtype == np.float64 and np.array_equal(examples.aus, aus)
        for column in (examples.frame_index, examples.label, examples.aus):
            with pytest.raises(ValueError):
                column[0] = 1
        # a writable input array is copied, so changing it changes nothing
        index[0] = 7
        assert examples.frame_index[0] == 0
        assert examples == Examples(*self.columns())
        assert examples != Examples(*self.columns(2))

    def test_rows_expose_label(self):
        # perfbench's training counter reads examples exactly this way
        examples = Examples(*self.columns())
        assert len(examples) == 3 and sum(1 for ex in examples if ex.label == 1) == 1
        rows = list(examples)
        assert [row.label for row in rows] == [0, 1, 0]
        assert all(isinstance(row, ExampleRow) for row in rows)
        assert (rows[1].video_id, rows[1].frame_index) == ("v", 1)
        assert rows[1].aus.tolist() == np.linspace(0.0, 1.0, N_AUS).tolist()

    def test_wrong_length(self):
        ids, index, label, aus = self.columns()
        for bad in ((ids, index, label, aus[:, :19]), (ids, index, label, aus[:2]),
                    (ids[:2], index, label, aus), (ids, index, label[:2], aus)):
            with pytest.raises(ValidationError):
                Examples(*bad)

    def test_out_of_range(self):
        ids, index, label, aus = self.columns()
        for value in (1.5, -0.1):
            bad = aus.copy()
            bad[2, 19] = value
            with pytest.raises(ValidationError, match="first at row 2"):
                Examples(ids, index, label, bad)

    def test_nan_rejected(self):
        ids, index, label, aus = self.columns()
        aus[0, 0] = float("nan")
        with pytest.raises(ValidationError):
            Examples(ids, index, label, aus)

    def test_label_validated(self):
        ids, index, _, aus = self.columns()
        for label in ([0, 2, 1], [0.0, 1.0, 0.0]):
            with pytest.raises(ValidationError):
                Examples(ids, index, np.array(label), aus)

    def test_provenance_validated(self):
        ids, index, label, aus = self.columns()
        for bad in ((("v", "", "v"), index, label, aus), (("v", 5, "v"), index, label, aus),
                    (ids, np.array([0, -1, 2]), label, aus),
                    (ids, index.astype(float), label, aus)):
            with pytest.raises(ValidationError):
                Examples(*bad)

    def test_empty(self):
        examples = Examples((), np.empty(0, np.int64), np.empty(0, np.int64),
                            np.empty((0, N_AUS)))
        assert len(examples) == 0 and not examples and list(examples) == []


class TestCurves:
    @staticmethod
    def curve(step_s=0.5, scores=(0.5,), counts=(1,)):
        return AggregateCurve(ad_id="a", step_s=step_s, scores=np.array(scores),
                              counts=np.array(counts, dtype=np.int64))

    def test_curve_bin_ranges(self):
        # timestamps are b * step_s, so the step carries the timestamp rule
        for step in (0.0, -0.5, math.nan):
            with pytest.raises(ValidationError):
                self.curve(step_s=step)
        with pytest.raises(ValidationError):
            self.curve(scores=(1.5,))
        with pytest.raises(ValidationError):
            self.curve(scores=(math.nan,))
        with pytest.raises(ValidationError):
            self.curve(counts=(-1,))

    def test_progression_enforced(self, tmp_path):
        path = tmp_path / "curves.csv"
        # the step is 0.7, which the third bin's timestamp breaks
        path.write_text("ad_id,step_s,timestamp_s,mean_score,participant_count\n"
                        "a,0.7,0.0,0.1,1\na,0.7,0.7,0.2,1\na,0.7,1.0,0.3,1\n")
        with pytest.raises(SchemaError, match="progression") as caught:
            read_curves_csv(path)
        assert str(caught.value).startswith(f"{path}:4: ")

    def test_helpers(self):
        curve = self.curve(scores=[0.1 * i for i in range(4)], counts=[1] * 4)
        assert curve.n_bins == 4
        assert curve.domain_end_s == 2.0
        assert tuple(curve.scores.tolist()) == (0.0, 0.1, 0.2, 0.30000000000000004)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            self.curve(scores=[], counts=[])

    def test_arrays_are_read_only_copies(self):
        scores, counts = np.array([0.2, 0.4]), np.array([1, 0])
        curve = self.curve(scores=scores, counts=counts)
        scores[0], counts[0] = 0.9, 5
        assert curve.scores.tolist() == [0.2, 0.4] and curve.counts.tolist() == [1, 0]
        assert curve.scores.dtype == np.float64 and curve.counts.dtype == np.int64
        with pytest.raises(ValueError):
            curve.scores[0] = 0.5

    def test_numeric_scores_and_integer_counts_one_per_bin(self):
        with pytest.raises(ValidationError):
            AggregateCurve("a", 0.5, np.array([0.5]), np.array([1.0]))
        with pytest.raises(ValidationError):
            AggregateCurve("a", 0.5, np.array([0.5, 0.5]), np.array([1]))
        with pytest.raises(ValidationError):
            AggregateCurve("a", 0.5, np.array(["0.5"]), np.array([1]))

    def test_equality_by_value(self):
        assert self.curve(scores=[0.0, 0.5], counts=[1, 2]) == \
            self.curve(scores=[-0.0, 0.5], counts=[1, 2])
        assert self.curve(scores=[0.1]) != self.curve(scores=[0.2])
        assert self.curve(counts=[1]) != self.curve(counts=[2])
        assert self.curve(step_s=0.5) != self.curve(step_s=1.0)


# each CSV reader with its header and a writer of a valid file of three lines
CSV_READERS = {
    "streams": (parse_au_stream, STREAM_COLUMNS, lambda path: write_au_stream(
        [make_video("v", "a", [(0.0, True, [0.5] * 20), (0.5, False, None)])], path)),
    "curves": (read_curves_csv, CURVE_CSV_COLUMNS,
               lambda path: write_curves_csv([curve_of([0.25, 0.5])], path)),
}


@pytest.mark.parametrize("edit", ["empty file", "short header", "long header", "renamed column",
                                  "wrong cell count", "cell over the field limit", "not UTF-8"])
@pytest.mark.parametrize("reader", sorted(CSV_READERS))
def test_csv_reading_frame(tmp_path, reader, edit):
    """Both CSV readers refuse the same defects of the file's frame, with the
    same error at the same file:line."""
    read, header, write = CSV_READERS[reader]
    n = len(header)
    path = tmp_path / "in.csv"
    write(path)
    lines = path.read_bytes().split(b"\n")
    line, message = {
        "empty file": (None, "empty file"),
        "short header": (1, f"header column {n} is missing, expected {header[-1]!r}"),
        "long header": (1, f"header column {n + 1} is 'extra', expected no more columns"),
        "renamed column": (1, f"header column 2 is {header[1].upper()!r}, "
                              f"expected {header[1]!r}"),
        "wrong cell count": (3, f"expected {n} cells, got {n + 1}"),
        "cell over the field limit": (3, "field larger than field limit (131072)"),
        "not UTF-8": (3, "not UTF-8 text (invalid start byte)"),
    }[edit]
    if edit == "short header":
        lines[0] = lines[0].rsplit(b",", 1)[0]
    elif edit == "long header":
        lines[0] += b",extra"
    elif edit == "renamed column":
        lines[0] = lines[0].replace(header[1].encode(), header[1].upper().encode())
    elif edit == "wrong cell count":
        lines[2] += b",0"
    elif edit == "cell over the field limit":
        lines[2] = b"x" * 200_000 + lines[2]
    elif edit == "not UTF-8":
        lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"" if edit == "empty file" else b"\n".join(lines))
    with pytest.raises(SchemaError) as caught:
        read(path)
    assert str(caught.value) == (f"{path}: {message}" if line is None
                                 else f"{path}:{line}: {message}")
