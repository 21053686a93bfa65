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
    AuVector,
    Interval,
    LabeledExample,
    VideoRecord,
    active_au_count,
    canonical_au_index,
)
from sentipipe.aggregate import read_curves_csv
from sentipipe.errors import ConfigError, SchemaError, UnknownAuName, ValidationError

from conftest import au_vec


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
    with pytest.raises(UnknownAuName):
        canonical_au_index("AU99")
    with pytest.raises(UnknownAuName):
        canonical_au_index("")


class TestAuVector:
    def test_valid_roundtrip(self):
        v = AuVector(tuple(i / 20 for i in range(20)))
        assert len(v) == 20
        assert v[3] == 3 / 20
        assert list(v)[19] == 19 / 20

    def test_wrong_length(self):
        with pytest.raises(ValidationError):
            AuVector((0.5,) * 19)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            AuVector((0.5,) * 19 + (1.5,))
        with pytest.raises(ValidationError):
            AuVector((-0.1,) + (0.5,) * 19)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            AuVector((float("nan"),) + (0.5,) * 19)


class TestActiveAuCount:
    def test_threshold_is_inclusive(self):
        v = au_vec(i0=0.5, i1=0.49999, i2=0.7)
        assert active_au_count(v, threshold=0.5) == 2

    def test_all_zero(self):
        assert active_au_count(au_vec()) == 0

    def test_bad_threshold(self):
        for t in (0.0, 1.0, -0.2, 1.2):
            with pytest.raises(ConfigError):
                active_au_count(au_vec(), threshold=t)

    @given(st.lists(st.floats(0.0, 1.0), min_size=20, max_size=20),
           st.floats(0.01, 0.99))
    def test_matches_bruteforce(self, scores, threshold):
        v = AuVector(tuple(scores))
        assert active_au_count(v, threshold) == sum(s >= threshold for s in scores)


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

    def test_equality_by_value(self):
        a = record([0, 1], [0.0, 0.5], [True, False], [[0.5] * N_AUS, [0.0] * N_AUS])
        b = record([0, 1], [0.0, 0.5], [True, False], [[0.5] * N_AUS, [0.0] * N_AUS])
        assert a == b and a.frames is not b.frames
        assert a != record([0, 1], [0.0, 0.5], [True, False])
        assert a != VideoRecord.from_columns("w", "a", [0, 1], [0.0, 0.5], [True, False],
                                             a.frames.aus)


class TestInterval:
    def test_length(self):
        assert Interval(2.0, 5.5).length_s == 3.5

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


class TestLabeledExample:
    def test_label_validated(self):
        with pytest.raises(ValidationError):
            LabeledExample(aus=au_vec(), label=2, source=("v", 0))

    def test_source_coerced(self):
        ex = LabeledExample(aus=au_vec(), label=1, source=("v", 3))
        assert ex.source == ("v", 3)


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
        # the first two bins set the step to 0.7, which the third one breaks
        path.write_text("ad_id,timestamp_s,mean_score,participant_count\n"
                        "a,0.0,0.1,1\na,0.7,0.2,1\na,1.0,0.3,1\n")
        with pytest.raises(SchemaError, match="progression"):
            read_curves_csv(path)

    def test_helpers(self):
        curve = self.curve(scores=[0.1 * i for i in range(4)], counts=[1] * 4)
        assert curve.n_bins == 4
        assert curve.domain_end_s == 2.0
        assert curve.bin_scores() == (0.0, 0.1, 0.2, 0.30000000000000004)

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
