import math
import re
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentipipe import aggregate
from sentipipe.aggregate import (
    CURVE_CSV_COLUMNS,
    aggregate_ad,
    aggregate_columns,
    aggregate_scores,
    export_curve_svg,
    max_over_interval,
    n_bins_for,
    read_curves_csv,
    score_video,
    write_curves_csv,
    _exact_sum,
)
from sentipipe.core import Interval
from sentipipe.errors import (
    ConfigError,
    DegenerateData,
    SchemaError,
    ValidationError,
)
from sentipipe.mlp import MlpParams

from conftest import constant_video, curve_of, make_video


class TestNBins:
    def test_exact_multiple(self):
        assert n_bins_for(10.0, 0.5) == 20
        assert n_bins_for(2.0, 0.5) == 4

    def test_partial_final_bin(self):
        assert n_bins_for(10.3, 0.5) == 21
        assert n_bins_for(0.2, 0.5) == 1

    def test_float_division_noise(self):
        # 0.9 / 0.3 lands a hair above 3.0 in float arithmetic
        assert n_bins_for(0.9, 0.3) == 3

    def test_default_step(self):
        assert n_bins_for(60.0) == 120

    @pytest.mark.parametrize("duration, step", [(20.0, 1e-300), (1e308, 0.5), (20.0, 1e-17),
                                                (2.0 ** 56, 1.0)])
    def test_count_beyond_an_array(self, duration, step):
        # numpy refuses to shape the baselines' (bins, 20) float64 array for
        # such a count, and math.ceil refuses an infinite one
        with pytest.raises(ConfigError, match="more bins than a 20-column float64 array can hold"):
            n_bins_for(duration, step)

    def test_large_count_inside_an_array(self):
        # a (2**55, 20) float64 shape fits intp.max bytes; numpy refuses the
        # (2**56, 20) one before it allocates anything
        assert n_bins_for(2.0 ** 55, 1.0) == 2 ** 55
        assert 2 ** 55 * 20 * 8 <= np.iinfo(np.intp).max
        with pytest.raises(ValueError, match="too big"):
            np.empty((2 ** 56, 20))


class TestScoreVideo:
    def test_face_frames_only(self):
        video = make_video("v", "a", [
            (0.0, True, [0.1] * 20),
            (0.5, False, None),
            (1.0, True, [0.9] * 20),
        ])
        ts, scores = score_video(MlpParams.zeros(), video)
        assert ts.tolist() == [0.0, 1.0]
        assert scores.tolist() == [0.5, 0.5]

    def test_no_faces(self):
        video = make_video("v", "a", [(0.0, False, None)])
        ts, scores = score_video(MlpParams.zeros(), video)
        assert ts.size == 0 and scores.size == 0


class TestAggregateScores:
    def test_hand_computed_bins(self):
        p1 = (np.array([0.0, 0.25, 0.6]), np.array([0.2, 0.4, 0.6]))
        p2 = (np.array([0.1, 1.6]), np.array([0.8, 1.0]))
        curve = aggregate_scores("ad", [p1, p2], duration_s=2.0, step_s=0.5)
        assert curve.n_bins == 4
        # participant means inside bin 0: (0.2 + 0.4) / 2 and 0.8
        b0 = math.fsum([(0.2 + 0.4) / 2, 0.8]) / 2
        assert curve.scores.tolist()[0] == b0
        assert curve.scores.tolist()[1] == 0.6
        assert curve.scores.tolist()[3] == 1.0
        assert curve.counts.tolist() == [2, 1, 0, 1]

    def test_gap_is_linearly_interpolated(self):
        p1 = (np.array([0.6, 1.6]), np.array([0.6, 1.0]))
        curve = aggregate_scores("ad", [p1], duration_s=2.0, step_s=0.5)
        # bin 2 sits midway between the knots at bins 1 and 3
        assert curve.scores.tolist()[2] == pytest.approx(0.8, abs=1e-12)
        assert curve.counts[2] == 0

    def test_participants_weigh_equally_not_by_frame_count(self):
        many = (np.array([0.0, 0.1, 0.2, 0.3]), np.array([0.3, 0.3, 0.3, 0.3]))
        one = (np.array([0.05]), np.array([0.9]))
        curve = aggregate_scores("ad", [many, one], duration_s=0.5, step_s=0.5)
        assert curve.scores.tolist()[0] == pytest.approx(0.6, abs=1e-12)

    def test_leading_and_trailing_gaps_copy_nearest(self):
        p = (np.array([0.6, 1.2]), np.array([0.4, 0.8]))
        curve = aggregate_scores("ad", [p], duration_s=2.5, step_s=0.5)
        # populated bins are 1 and 2; 0 copies bin 1, bins 3 and 4 copy bin 2
        assert tuple(curve.scores.tolist()) == (0.4, 0.4, 0.8, 0.8, 0.8)
        assert curve.counts.tolist() == [0, 1, 1, 0, 0]

    def test_single_populated_bin_fills_whole_curve(self):
        p = (np.array([1.0]), np.array([0.7]))
        curve = aggregate_scores("ad", [p], duration_s=2.0, step_s=0.5)
        assert tuple(curve.scores.tolist()) == (0.7, 0.7, 0.7, 0.7)

    def test_values_clipped_to_unit_interval(self):
        p = (np.array([0.0]), np.array([1.5]))
        curve = aggregate_scores("ad", [p], duration_s=0.5, step_s=0.5)
        assert tuple(curve.scores.tolist()) == (1.0,)

    def test_out_of_domain_frames_ignored(self):
        p = (np.array([0.0, 5.0, -1.0]), np.array([0.2, 0.9, 0.9]))
        curve = aggregate_scores("ad", [p], duration_s=1.0, step_s=0.5)
        assert tuple(curve.scores.tolist()) == (0.2, 0.2)

    def test_no_predictions_when_nothing_in_domain(self):
        p = (np.array([5.0]), np.array([0.9]))
        with pytest.raises(DegenerateData, match="no scored frames fall inside"):
            aggregate_scores("ad", [p], duration_s=1.0, step_s=0.5)

    def test_no_predictions_when_no_participants(self):
        with pytest.raises(DegenerateData, match="no scored frames fall inside"):
            aggregate_scores("ad", [], duration_s=1.0, step_s=0.5)

    def test_shape_mismatch(self):
        p = (np.array([0.0, 0.5]), np.array([0.2]))
        with pytest.raises(ValidationError):
            aggregate_scores("ad", [p], duration_s=1.0, step_s=0.5)


class TestAggregateAd:
    def test_constant_model_gives_flat_curve(self):
        videos = [constant_video(f"v{i}", "a", [0.4] * 20, n_frames=20, fps=2.0)
                  for i in range(3)]
        curve = aggregate_ad(MlpParams.zeros(), "a", videos, duration_s=10.0)
        assert curve.n_bins == 20
        assert set(curve.scores.tolist()) == {0.5}
        assert curve.counts.tolist() == [3] * 20


@st.composite
def participants(draw):
    n = draw(st.integers(2, 5))
    parts = []
    for _ in range(n):
        m = draw(st.integers(1, 6))
        ts = draw(st.lists(st.floats(0.0, 9.99, allow_nan=False),
                           min_size=m, max_size=m))
        sc = draw(st.lists(st.floats(0.0, 1.0, allow_nan=False),
                           min_size=m, max_size=m))
        parts.append((np.array(ts), np.array(sc)))
    perm = draw(st.permutations(list(range(n))))
    return parts, perm


@settings(max_examples=50, deadline=None)
@given(participants())
def test_participant_order_never_changes_the_curve(parts_and_perm):
    parts, perm = parts_and_perm
    base = aggregate_scores("ad", parts, duration_s=10.0, step_s=0.5)
    shuffled = aggregate_scores("ad", [parts[i] for i in perm],
                                duration_s=10.0, step_s=0.5)
    assert base == shuffled  # bit-identical, not just close


score_values = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0]))


@st.composite
def score_columns(draw):
    """2-5 participants with uneven (possibly zero) frame counts, some frames
    outside [0, 10), few enough frames that gaps need interpolation, and
    k score columns; plus a permutation of the participants."""
    n, k = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    parts = []
    for _ in range(n):
        m = draw(st.integers(0, 8))
        ts = draw(st.lists(st.floats(-2.0, 12.0), min_size=m, max_size=m))
        sc = draw(st.lists(score_values, min_size=m * k, max_size=m * k))
        parts.append((np.array(ts, dtype=np.float64),
                      np.array(sc, dtype=np.float64).reshape(m, k)))
    return parts, draw(st.permutations(list(range(n))))


def _curves_or_error(ad_id, parts):
    try:
        return aggregate_columns(ad_id, parts, duration_s=10.0, step_s=0.5)
    except DegenerateData as exc:
        assert "no scored frames fall inside" in str(exc)
        return DegenerateData


@settings(max_examples=100, deadline=None)
@given(score_columns())
def test_columns_match_single_column_binning(parts_and_perm):
    parts, perm = parts_and_perm
    curves = _curves_or_error("ad", parts)
    k = parts[0][1].shape[1]
    for j in range(k):
        single = [(ts, sc[:, j]) for ts, sc in parts]
        if curves is DegenerateData:
            with pytest.raises(DegenerateData, match="no scored frames fall inside"):
                aggregate_scores("ad", single, duration_s=10.0, step_s=0.5)
            continue
        curve = aggregate_scores("ad", single, duration_s=10.0, step_s=0.5)
        assert curves[j] == curve
        assert curves[j].scores.tobytes() == curve.scores.tobytes()  # bit-equal
    assert _curves_or_error("ad", [parts[i] for i in perm]) == curves
    # the counts come from the timestamps alone: constant 0.5 scores, as the
    # chance baseline stands for, give the same
    halves = [(ts, np.full((len(ts), 1), 0.5)) for ts, _ in parts]
    if curves is DegenerateData:
        with pytest.raises(DegenerateData, match="no scored frames fall inside"):
            aggregate_columns("ad", halves, duration_s=10.0, step_s=0.5)
    else:
        assert aggregate_columns("ad", halves, duration_s=10.0, step_s=0.5)[0].counts.tolist() \
            == curves[0].counts.tolist()


class TestAggregateColumns:
    def test_one_curve_per_column_sharing_counts(self):
        p1 = (np.array([0.0, 0.6]), np.array([[0.2, 0.9], [0.4, 0.1]]))
        p2 = (np.array([0.1]), np.array([[0.6, 0.3]]))
        a, b = aggregate_columns("ad", [p1, p2], duration_s=1.5, step_s=0.5)
        assert tuple(a.scores.tolist()) == (math.fsum([0.2, 0.6]) / 2, 0.4, 0.4)
        assert tuple(b.scores.tolist()) == (math.fsum([0.9, 0.3]) / 2, 0.1, 0.1)
        assert a.counts.tolist() == b.counts.tolist() == [2, 1, 0]

    def test_columns_must_agree(self):
        p1 = (np.array([0.0]), np.array([[0.2, 0.9]]))
        p2 = (np.array([0.1]), np.array([[0.6]]))
        with pytest.raises(ValidationError):
            aggregate_columns("ad", [p1, p2], duration_s=1.0, step_s=0.5)

    def test_timestamps_and_scores_need_their_axes(self):
        with pytest.raises(ValidationError):
            aggregate_columns("ad", [(np.array([0.0]), np.array([0.2]))], duration_s=1.0)
        with pytest.raises(ValidationError, match="1-D"):
            aggregate_columns("ad", [(np.array([[0.0, 0.6]]), np.array([[0.2], [0.4]]))],
                              duration_s=1.0)


def _reference_columns(parts, duration_s, step_s):
    """aggregate_columns as it was before its participants were binned in one
    pass: a bincount per participant and a math.fsum per (bin, column)."""
    n, k = n_bins_for(duration_s, step_s), parts[0][1].shape[1]
    counts, means = np.zeros(n, dtype=np.int64), []
    for ts, scores in parts:
        b = np.floor(ts / step_s).astype(np.int64)
        keep = (b >= 0) & (b < n)
        b, scores = b[keep], scores[keep]
        frames = np.bincount(b, minlength=n)
        sums = np.bincount((b[:, None] * k + np.arange(k)).ravel(),
                           weights=scores.ravel(), minlength=n * k)
        means.append(sums.reshape(n, k) / np.maximum(frames, 1)[:, None])
        counts += frames > 0
    populated = np.flatnonzero(counts)
    if populated.size == 0:
        return DegenerateData
    rows = np.stack(means)[:, populated].reshape(len(means), -1).T.tolist()
    knots = np.array([math.fsum(r) for r in rows]).reshape(-1, k) / counts[populated, None]
    values = np.array([np.interp(np.arange(n), populated, knots[:, j]) for j in range(k)])
    values[:, populated] = knots.T
    return np.clip(values, 0.0, 1.0), counts


@settings(max_examples=100, deadline=None)
@given(score_columns())
def test_columns_bit_equal_to_per_participant_fsum_reference(parts_and_perm):
    parts, _ = parts_and_perm
    want = _reference_columns(parts, 10.0, 0.5)
    curves = _curves_or_error("ad", parts)
    if want is DegenerateData:
        assert curves is DegenerateData
        return
    values, counts = want
    assert [c.scores.tobytes() for c in curves] == [row.tobytes() for row in values]
    assert all(c.counts.tolist() == counts.tolist() for c in curves)


# exact ties and near-ties at 1, zeros of both signs and subnormals, each
# possibly scaled by 2**-1000 or 2**1000
_sum_terms = st.builds(
    math.ldexp,
    st.one_of(st.floats(-1.0, 1.0),
              st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0,
                               1 + 2 ** -52, 1 - 2 ** -53, 2 ** -53, -2 ** -53, 2 ** -54,
                               3 * 2 ** -54, 2 ** -106])),
    st.sampled_from([-1000, 0, 1000]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda p: st.lists(st.lists(_sum_terms, min_size=p, max_size=p), min_size=1, max_size=3)))
def test_exact_sum_is_fsum(columns):
    x = np.array(columns, dtype=np.float64).T  # (participants, columns)
    want = np.array([math.fsum(col) for col in columns], dtype=np.float64)
    assert _exact_sum(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("column", [[-0.0], [-0.0, -0.0], [-0.0, -0.0, -0.0], [0.5, -0.5],
                                    [-0.0, 0.0, -0.0]])
def test_exact_sum_of_zero_is_positive_zero(column):
    assert math.copysign(1.0, math.fsum(column)) == 1.0
    assert _exact_sum(np.array(column)[:, None]).tobytes() == np.float64(0.0).tobytes()


def test_exact_sum_falls_back_to_fsum_when_the_errors_round(monkeypatch):
    # the first cascade's errors 2**-53 and 2**-106 sum to 2**-53 with a
    # second-level error of 2**-106; 1 + 2**-53 alone is a tie that rounds
    # down to 1.0, the exact sum rounds up
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(aggregate.math, "fsum", lambda xs: calls.append(xs) or fsum(xs))
    x = np.array([[1.0, 0.5], [2 ** -53, 0.25], [2 ** -106, 0.125]])
    assert _exact_sum(x).tolist() == [1 + 2 ** -52, 0.875]
    assert [list(c) for c in calls] == [[1.0, 2 ** -53, 2 ** -106]]


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_timestamp(self, bad):
        parts = [(np.array([0.0, bad]), np.array([[0.2], [0.4]]))]
        with pytest.raises(ValidationError, match="timestamps must be finite"):
            aggregate_columns("ad", parts, duration_s=1.0, step_s=0.5)

    @pytest.mark.parametrize("scores", [[math.nan, 0.4], [math.inf, 0.4], [math.inf, -math.inf]])
    def test_score(self, scores):
        # an infinite score once clipped to a bin value of 1.0; +inf and -inf
        # in one bin made fsum raise ValueError
        p = (np.array([0.0, 0.1]), np.array(scores))
        with pytest.raises(ValidationError, match="scores must be finite"):
            aggregate_scores("ad", [p], duration_s=1.0, step_s=0.5)

    @pytest.mark.parametrize("far", [1e300, -1e300, 1.7e308, -1.7e308])
    def test_finite_timestamp_far_outside_is_ignored(self, far):
        # binned in float before the int64 cast, so no cast or overflow warning
        p = (np.array([0.0, far]), np.array([0.2, 0.9]))
        curve = aggregate_scores("ad", [p], duration_s=1.0, step_s=0.5)
        assert tuple(curve.scores.tolist()) == (0.2, 0.2)
        assert curve.counts.tolist() == [1, 0]

    def test_sum_over_participants_overflows(self):
        parts = [(np.array([0.0]), np.array([1e308])), (np.array([0.1]), np.array([1e308]))]
        with pytest.raises(ValidationError, match="overflows float64"):
            aggregate_scores("ad", parts, duration_s=1.0, step_s=0.5)

    def test_one_participants_bin_sum_overflows(self):
        p = (np.array([0.0, 0.1]), np.array([1e308, 1e308]))
        with pytest.raises(ValidationError, match="overflows float64"):
            aggregate_scores("ad", [p], duration_s=1.0, step_s=0.5)


class TestMaxOverInterval:
    CURVE = curve_of([0.1, 0.9, 0.3, 0.7])  # step 0.5, domain [0, 2)

    def test_spanning_interval(self):
        assert max_over_interval(self.CURVE, Interval(0.5, 1.5)) == 0.9
        assert max_over_interval(self.CURVE, Interval(0.0, 2.0)) == 0.9

    def test_end_is_exclusive(self):
        # bins 1 only: bin 2 starts exactly at end_s
        assert max_over_interval(self.CURVE, Interval(0.5, 1.0)) == 0.9
        assert max_over_interval(self.CURVE, Interval(1.0, 1.5)) == 0.3

    def test_narrow_interval_falls_back_to_containing_bin(self):
        assert max_over_interval(self.CURVE, Interval(1.6, 1.9)) == 0.7
        assert max_over_interval(self.CURVE, Interval(0.2, 0.4)) == 0.1

    def test_outside_domain(self):
        with pytest.raises(DegenerateData, match="lies outside the curve domain"):
            max_over_interval(self.CURVE, Interval(2.5, 3.0))

    def test_interval_beyond_domain_is_clipped(self):
        assert max_over_interval(self.CURVE, Interval(1.5, 99.0)) == 0.7

    def test_float_noise_near_bin_edge(self):
        # a start a hair below the bin edge still selects that bin
        start = 0.5 - 5e-11
        assert max_over_interval(self.CURVE, Interval(start, 1.0)) == 0.9


class TestCurvesCsv:
    def _curves(self):
        return [
            curve_of([0.25, 1 / 3, 0.5], ad_id="ad_a", counts=[2, 0, 1]),
            curve_of([0.7], ad_id="ad_b"),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_curves_csv(self._curves(), path)
        assert read_curves_csv(path) == self._curves()

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curves_csv(self._curves(), p1)
        write_curves_csv(read_curves_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_curves_csv(self._curves(), path)
        assert path.read_text().splitlines()[0] == ",".join(CURVE_CSV_COLUMNS)

    @pytest.mark.parametrize("step", [0.5, 1.0, 20.0])
    def test_single_bin_curve_keeps_its_step(self, tmp_path, step):
        # one bin's timestamp is 0.0 at any step, so only the step_s cell carries it
        path = tmp_path / "curves.csv"
        written = [curve_of([0.7], step=step), curve_of([0.2, 0.4], step=step, ad_id="ad_2")]
        write_curves_csv(written, path)
        assert read_curves_csv(path) == written  # curves compare their step_s too

    def test_empty_file(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            read_curves_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text("ad,na,nb,nc\n")
        with pytest.raises(SchemaError, match="header"):
            read_curves_csv(path)

    def test_non_contiguous_rows(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_curves_csv(self._curves(), path)
        lines = path.read_text().splitlines()
        lines.append(lines[1].replace("ad_a,0.5,0.0", "ad_a,0.5,1.5"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="contiguous"):
            read_curves_csv(path)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text(",".join(CURVE_CSV_COLUMNS) + "\nad,0.5,0.0,high,1\n")
        with pytest.raises(SchemaError, match=":2:"):
            read_curves_csv(path)

    @pytest.mark.parametrize("column, cell", [
        ("step_s", " 0.5"), ("step_s", "+0.5"), ("step_s", "0_5"),
        ("timestamp_s", " 0.0"), ("timestamp_s", "+0.0"), ("timestamp_s", "0_0"),
        ("mean_score", "0.5 "), ("mean_score", "+0.5"), ("mean_score", "0.2_5"),
        ("participant_count", " 1"), ("participant_count", "+1"),
        ("participant_count", "1_0"),
    ])
    def test_numbers_take_the_stream_grammar(self, tmp_path, column, cell):
        # float() and int() take each of these cells
        row = dict(zip(CURVE_CSV_COLUMNS, ["ad", "0.5", "0.0", "0.5", "1"]), **{column: cell})
        path = tmp_path / "curves.csv"
        path.write_text(",".join(CURVE_CSV_COLUMNS) + "\n" + ",".join(row.values()) + "\n")
        with pytest.raises(SchemaError, match=re.escape(f"{path}:2: column '{column}' holds")):
            read_curves_csv(path)

    def test_count_of_more_than_4300_digits(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text(",".join(CURVE_CSV_COLUMNS) + "\nad,0.5,0.0,0.5," + "0" * 5000 + "1\n")
        with pytest.raises(SchemaError, match=":2:"):
            read_curves_csv(path)

    def test_negative_count(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text(",".join(CURVE_CSV_COLUMNS) + "\nad,0.5,0.0,0.5,-1\n")
        with pytest.raises(SchemaError):
            read_curves_csv(path)

    @pytest.mark.parametrize("step", ["0.0", "-0.5", "1e400"])
    def test_step_must_be_finite_and_positive(self, tmp_path, step):
        path = tmp_path / "curves.csv"
        path.write_text(",".join(CURVE_CSV_COLUMNS) + f"\nad,{step},0.0,0.5,1\n")
        with pytest.raises(SchemaError, match=re.escape(f"{path}:2: step_s must be finite")):
            read_curves_csv(path)

    def test_broken_progression(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text(",".join(CURVE_CSV_COLUMNS)
                        + "\nad,0.5,0.0,0.5,1\nad,0.5,0.5,0.5,1\nad,0.5,1.7,0.5,1\n")
        with pytest.raises(SchemaError, match="progression") as caught:
            read_curves_csv(path)
        assert str(caught.value).startswith(f"{path}:4: ad 'ad': bin 2 timestamp 1.7 ")

    def test_timestamp_must_be_the_writers_product(self, tmp_path):
        # 3 * 0.1 is 0.30000000000000004, so a rounded 0.3 is no bin 3 of step 0.1
        path = tmp_path / "curves.csv"
        path.write_text(",".join(CURVE_CSV_COLUMNS) + "".join(
            f"\nad,0.1,{ts},0.5,1" for ts in ("0.0", "0.1", "0.2", "0.3")) + "\n")
        with pytest.raises(SchemaError, match=re.escape(f"{path}:5: ad 'ad': bin 3 ")):
            read_curves_csv(path)

    def test_step_changes_within_an_ad(self, tmp_path):
        # each row on its own is a bin of a valid progression; the step may not change
        path = tmp_path / "curves.csv"
        path.write_text(",".join(CURVE_CSV_COLUMNS)
                        + "\nad,0.5,0.0,0.5,1\nad,0.5,0.5,0.5,1\nad,1.0,2.0,0.5,1\n")
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}:4: ad 'ad' changes step_s from 0.5 to 1.0")):
            read_curves_csv(path)


class TestSvgExport:
    def test_deterministic_bytes(self, tmp_path):
        curve = curve_of([0.2, 0.8, 0.5, 0.4])
        moments = (Interval(0.5, 1.5),)
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        export_curve_svg(curve, p1, moments)
        export_curve_svg(curve, p2, moments)
        assert p1.read_bytes() == p2.read_bytes()

    def test_structure(self, tmp_path):
        curve = curve_of([0.2, 0.8])
        path = tmp_path / "c.svg"
        export_curve_svg(curve, path, (Interval(0.0, 0.5),))
        text = path.read_text()
        assert text.startswith("<svg")
        assert "<polyline" in text
        assert "<rect" in text

    def test_no_moments(self, tmp_path):
        path = tmp_path / "c.svg"
        export_curve_svg(curve_of([0.2, 0.8]), path)
        assert "<polyline" in path.read_text()

    def test_ad_id_is_escaped(self, tmp_path):
        ad_id = """a<b & "c" 'd'>"""
        path = tmp_path / "c.svg"
        export_curve_svg(curve_of([0.2, 0.8], ad_id=ad_id), path)
        caption = ElementTree.parse(path).getroot()[-1]
        assert caption.text == f"{ad_id} (0 to 1 s, step 0.5 s)"
