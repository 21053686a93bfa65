import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentipipe.core import AdLabel, AdSpec, Examples, Interval
from sentipipe.errors import ConfigError, SchemaError, UnknownAdId, ValidationError
from sentipipe.weak_label import (
    DEFAULT_ACTIVATION_THRESHOLD,
    LabelingConfig,
    LabelSummary,
    extract_examples,
    frame_in_moments,
    label_summary,
    read_examples_jsonl,
    write_examples_jsonl,
)

from conftest import au_vec, examples_of, make_video


class TestFrameInMoments:
    MOMENTS = (Interval(2.0, 5.0), Interval(7.0, 9.0))

    def test_inside(self):
        assert frame_in_moments(3.0, self.MOMENTS)
        assert frame_in_moments(8.9, self.MOMENTS)

    def test_start_is_inside(self):
        assert frame_in_moments(2.0, self.MOMENTS)
        assert frame_in_moments(7.0, self.MOMENTS)

    def test_end_is_outside(self):
        assert not frame_in_moments(5.0, self.MOMENTS)
        assert not frame_in_moments(9.0, self.MOMENTS)

    def test_gaps_and_edges(self):
        assert not frame_in_moments(0.0, self.MOMENTS)
        assert not frame_in_moments(6.0, self.MOMENTS)
        assert not frame_in_moments(9.5, self.MOMENTS)

    def test_no_moments(self):
        assert not frame_in_moments(1.0, ())


ADS = {
    "s": AdSpec(ad_id="s", label=AdLabel.SENTIMENTAL, duration_s=10.0,
                moments=(Interval(2.0, 5.0),)),
    "n": AdSpec(ad_id="n", label=AdLabel.NON_SENTIMENTAL, duration_s=10.0),
}

TWO_ACTIVE = au_vec(i0=0.5, i4=0.9)     # exactly at the threshold counts
ONE_ACTIVE = au_vec(i0=0.8, i4=0.49)
THREE_ACTIVE = au_vec(i0=0.6, i4=0.7, i10=0.5)
QUIET = au_vec(i0=0.1)


class TestExtractExamples:
    def test_rule_matrix(self):
        video = make_video("v", "s", [
            (0.0, True, QUIET),         # outside moment -> negative
            (1.0, False, None),         # no face -> skipped
            (2.0, True, TWO_ACTIVE),    # in moment, 2 active -> positive
            (3.0, True, ONE_ACTIVE),    # in moment, 1 active -> dropped
            (4.0, False, None),         # no face inside moment -> skipped
            (5.0, True, THREE_ACTIVE),  # at end_s, outside -> negative
        ])
        examples = extract_examples([video], ADS)
        assert examples == Examples(("v",) * 3, [0, 2, 5], [0, 1, 0],
                                    [QUIET, TWO_ACTIVE, THREE_ACTIVE])

    def test_threshold_is_inclusive(self):
        video = make_video("v", "s", [(2.0, True, TWO_ACTIVE)])
        [ex] = extract_examples([video], ADS)
        assert ex.label == 1

    def test_all_zero_scores_are_never_active(self):
        # even one active AU is enough here, and an all-zero frame has none
        video = make_video("v", "s", [(2.0, True, au_vec()), (3.0, True, au_vec(i5=0.5))])
        examples = extract_examples([video], ADS, LabelingConfig(min_active_positive=1))
        assert examples.frame_index.tolist() == [1] and examples.label.tolist() == [1]

    def test_min_active_override(self):
        video = make_video("v", "s", [(2.0, True, TWO_ACTIVE)])
        config = LabelingConfig(min_active_positive=3)
        assert len(extract_examples([video], ADS, config)) == 0
        video3 = make_video("v", "s", [(2.0, True, THREE_ACTIVE)])
        [ex] = extract_examples([video3], ADS, config)
        assert ex.label == 1

    def test_activation_threshold_override(self):
        # both scores active at 0.5 but only one clears 0.7
        video = make_video("v", "s", [(2.0, True, au_vec(i0=0.75, i4=0.6))])
        config = LabelingConfig(activation_threshold=0.7)
        assert len(extract_examples([video], ADS, config)) == 0

    def test_nonsentimental_skipped_by_default(self):
        video = make_video("v", "n", [(0.0, True, TWO_ACTIVE)])
        assert len(extract_examples([video], ADS)) == 0

    def test_nonsentimental_included_as_negatives(self):
        video = make_video("v", "n", [
            (0.0, True, THREE_ACTIVE),
            (0.5, True, QUIET),
        ])
        config = LabelingConfig(include_nonsentimental_ads=True)
        examples = extract_examples([video], ADS, config)
        assert [ex.label for ex in examples] == [0, 0]

    def test_unknown_ad(self):
        video = make_video("v", "ghost", [(0.0, True, QUIET)])
        with pytest.raises(UnknownAdId):
            extract_examples([video], ADS)

    def test_output_sorted_regardless_of_input_order(self):
        v_a = make_video("a", "s", [(0.0, True, QUIET),
                                    (2.0, True, TWO_ACTIVE)])
        v_b = make_video("b", "s", [(1.0, True, QUIET)])
        fwd = extract_examples([v_a, v_b], ADS)
        rev = extract_examples([v_b, v_a], ADS)
        assert fwd == rev
        assert list(zip(fwd.video_id, fwd.frame_index.tolist())) == [("a", 0), ("a", 1), ("b", 0)]

    def test_shuffled_videos_give_equal_examples(self, small_synth):
        videos, ads = small_synth.train.videos, small_synth.train.ads
        examples = extract_examples(videos, ads)
        assert len(examples) > 0
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(videos))
            assert extract_examples([videos[i] for i in order], ads) == examples

    def test_duplicate_video_id_rejected(self):
        v_1 = make_video("a", "s", [(0.0, True, QUIET)])
        v_2 = make_video("a", "s", [(1.0, True, QUIET)])
        with pytest.raises(ValidationError, match="duplicate video_id 'a'"):
            extract_examples([v_1, v_2], ADS)


class TestLabelingConfig:
    def test_defaults(self):
        config = LabelingConfig()
        assert config.activation_threshold == DEFAULT_ACTIVATION_THRESHOLD == 0.5
        assert config.min_active_positive == 2
        assert config.include_nonsentimental_ads is False

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.2, 1.7])
    def test_threshold_must_be_interior(self, threshold):
        with pytest.raises(ConfigError):
            LabelingConfig(activation_threshold=threshold)

    def test_min_active_must_be_positive(self):
        with pytest.raises(ConfigError):
            LabelingConfig(min_active_positive=0)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
    def test_min_active_must_be_an_integer(self, value):
        with pytest.raises(ConfigError, match="min_active_positive"):
            LabelingConfig(min_active_positive=value)

    @pytest.mark.parametrize("value", ["no", "", 0, 1, None])
    def test_include_nonsentimental_must_be_a_bool(self, value):
        with pytest.raises(ConfigError, match="include_nonsentimental_ads"):
            LabelingConfig(include_nonsentimental_ads=value)

    @pytest.mark.parametrize("value", [True, "0.5", None, math.nan])
    def test_threshold_must_be_a_number(self, value):
        with pytest.raises(ConfigError, match="activation_threshold"):
            LabelingConfig(activation_threshold=value)

    def test_numbers_of_any_kind_are_taken(self):
        config = LabelingConfig(activation_threshold=np.float64(0.25),
                                min_active_positive=np.int64(3))
        assert config.activation_threshold == 0.25 and config.min_active_positive == 3


class TestLabelSummary:
    def test_mixed(self):
        examples = examples_of([QUIET] * 6 + [TWO_ACTIVE], [0] * 6 + [1])
        assert label_summary(examples) == LabelSummary(
            positives=1, negatives=6, ratio=6.0)

    def test_no_positives(self):
        summary = label_summary(examples_of([QUIET], [0]))
        assert summary.positives == 0 and summary.negatives == 1
        assert math.isinf(summary.ratio)

    def test_empty(self):
        assert label_summary(examples_of(np.empty((0, 20)), [])) == LabelSummary(
            positives=0, negatives=0, ratio=None)


class TestExamplesJsonl:
    def _examples(self):
        return Examples(("v1", "v1", "v2"), [0, 4, 0], [0, 1, 0],
                        [QUIET, TWO_ACTIVE, au_vec(i7=1 / 3)])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ex.jsonl"
        write_examples_jsonl(self._examples(), path)
        assert read_examples_jsonl(path) == self._examples()

    def test_file_format(self, tmp_path):
        path = tmp_path / "ex.jsonl"
        write_examples_jsonl(self._examples(), path)
        first = path.read_text().splitlines()[0]
        assert first == ('{"video_id": "v1", "frame_index": 0, "label": 0, "aus": [0.1'
                         + ", 0.0" * 19 + "]}")

    def test_rewrite_is_byte_identical(self, small_synth, tmp_path):
        examples = extract_examples(small_synth.train.videos, small_synth.train.ads)
        first, again = tmp_path / "first.jsonl", tmp_path / "again.jsonl"
        write_examples_jsonl(examples, first)
        write_examples_jsonl(read_examples_jsonl(first), again)
        assert first.read_bytes() == again.read_bytes()

    def test_frame_index_must_fit_an_int64(self, tmp_path):
        path = self._one_line(tmp_path, frame_index=2 ** 63)
        with pytest.raises(ValidationError, match=re.escape(f"{path}:1:")):
            read_examples_jsonl(path)
        assert read_examples_jsonl(self._one_line(tmp_path, frame_index=2 ** 63 - 1)
                                   ).frame_index.tolist() == [2 ** 63 - 1]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ex.jsonl"
        write_examples_jsonl(self._examples(), path)
        padded = tmp_path / "pad.jsonl"
        padded.write_text("\n" + path.read_text() + "\n\n")
        assert read_examples_jsonl(padded) == self._examples()

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "ex.jsonl"
        path.write_text('{"video_id": "v"\n')
        with pytest.raises(SchemaError, match=":1:"):
            read_examples_jsonl(path)

    def _one_line(self, tmp_path, **overrides):
        import json

        obj = {"video_id": "v", "frame_index": 0, "label": 1,
               "aus": [0.5] * 20}
        obj.update(overrides)
        for key in [k for k, v in overrides.items() if v is None]:
            del obj[key]
        path = tmp_path / "ex.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        return path

    def test_missing_key(self, tmp_path):
        with pytest.raises(SchemaError):
            read_examples_jsonl(self._one_line(tmp_path, label=None))

    def test_extra_key(self, tmp_path):
        with pytest.raises(SchemaError):
            read_examples_jsonl(self._one_line(tmp_path, note="hi"))

    def test_wrong_au_count(self, tmp_path):
        with pytest.raises(SchemaError, match="20"):
            read_examples_jsonl(self._one_line(tmp_path, aus=[0.5] * 19))

    def test_bad_label_value(self, tmp_path):
        with pytest.raises(ValidationError):
            read_examples_jsonl(self._one_line(tmp_path, label=7))

    def test_au_out_of_range(self, tmp_path):
        with pytest.raises(ValidationError):
            read_examples_jsonl(self._one_line(tmp_path, aus=[1.5] + [0.0] * 19))

    @pytest.mark.parametrize("key, value", [
        ("label", True),
        ("label", 1.0),
        ("frame_index", 2.7),
        ("frame_index", True),
        ("frame_index", -4),
        ("video_id", 5),
        ("video_id", None),
        ("video_id", ""),
        ("aus", ["0.5"] * 20),
        ("aus", [True] + [0.5] * 19),
        ("aus", [False] * 20),
    ])
    def test_values_are_not_coerced(self, tmp_path, key, value):
        import json

        good = {"video_id": "v", "frame_index": 0, "label": 1, "aus": [0.5] * 20}
        path = tmp_path / "ex.jsonl"
        path.write_text(json.dumps(good) + "\n"
                        + json.dumps({**good, "frame_index": 1, key: value}) + "\n")
        with pytest.raises((SchemaError, ValidationError), match=re.escape(f"{path}:2:")):
            read_examples_jsonl(path)


score_strategy = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.booleans(), st.lists(score_strategy, min_size=20, max_size=20)),
    min_size=1, max_size=12))
def test_labels_match_per_frame_oracle(frame_specs):
    """Each emitted example must agree with a per-frame restatement of the rules."""
    spec = [(i * 0.5, face, scores if face else None)
            for i, (face, scores) in enumerate(frame_specs)]
    video = make_video("v", "s", spec)
    by_index = {ex.frame_index: ex for ex in extract_examples([video], ADS)}
    moments = ADS["s"].moments
    for frame in video.frames:
        if not frame.face_detected:
            assert frame.frame_index not in by_index
            continue
        in_moment = any(m.start_s <= frame.timestamp_s < m.end_s for m in moments)
        active = sum(1 for k in range(20) if frame.aus[k] >= 0.5)
        if in_moment and active >= 2:
            assert by_index[frame.frame_index].label == 1
        elif in_moment:
            assert frame.frame_index not in by_index
        else:
            assert by_index[frame.frame_index].label == 0
        if frame.frame_index in by_index:
            assert by_index[frame.frame_index].aus.tolist() == frame.aus.tolist()
