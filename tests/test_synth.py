import dataclasses
import math
import statistics

import numpy as np
import pytest

from sentipipe.core import FRAME_DTYPE, AdLabel
from sentipipe.errors import ConfigError
from sentipipe.ingest import filter_by_coverage, face_coverage
from sentipipe.synth import (
    DEFAULT_SIGNAL_AUS,
    MOMENT_LENGTH_RANGE,
    MOMENT_MIN_GAP_S,
    SynthConfig,
    expected_positive_rate,
    generate,
    generate_null,
)
from sentipipe.weak_label import extract_examples, label_summary

from conftest import SMALL_CONFIG


class TestSynthConfig:
    def test_defaults(self):
        config = SynthConfig()
        assert config.n_train_sent_ads == 3
        assert config.n_test_sent_ads == 15
        assert config.n_test_nonsent_ads == 15
        assert config.participants_per_ad == 40
        assert config.moments_per_ad == (1, 2)
        assert config.signal_aus == DEFAULT_SIGNAL_AUS

    @pytest.mark.parametrize("bad", [
        {"n_train_sent_ads": -1},
        {"participants_per_ad": 0},
        {"ad_duration_s": 0.0},
        {"ad_duration_s": math.inf},
        {"fps": 0.0},
        {"moments_per_ad": (0, 2)},
        {"moments_per_ad": (3, 2)},
        {"signal_aus": frozenset()},
        {"signal_aus": frozenset({20})},
        {"signal_aus": frozenset({-1})},
        {"signal_strength": 1.2},
        {"responder_fraction": -0.1},
        {"noise_level": 0.0},
        {"noise_level": 1.0},
        {"face_dropout_prob": 1.0},
        {"distracted_fraction": 1.5},
        {"rng_seed": -1},
        {"rng_seed": 1.5},
        {"rng_seed": True},
    ])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            SynthConfig(**bad)

    @pytest.mark.parametrize("bad", [
        {"participants_per_ad": 2.5},
        {"n_test_sent_ads": 1.5},
        {"participants_per_ad": True},
        {"signal_strength": True},
        {"moments_per_ad": (1.5, 2)},
        {"moments_per_ad": 3},
        {"noise_level": "0.1"},
        {"fps": "5"},
        {"ad_duration_s": True},
        {"signal_aus": frozenset({2.0})},
        {"signal_aus": 3},
        {"signal_aus": "12"},
        {"signal_aus": np.array(3)},
        {"ad_duration_s": 10 ** 400},
        {"fps": 10 ** 400},
    ], ids=["participants-float", "test-sent-float", "participants-bool",
            "signal-bool", "moments-float", "moments-not-a-pair", "noise-str", "fps-str",
            "duration-bool", "signal-aus-float", "signal-aus-int", "signal-aus-str",
            "signal-aus-0d-array", "duration-beyond-float", "fps-beyond-float"])
    def test_rejects_wrong_type(self, bad):
        # a wrong type is refused here, not left to fail in generate or to run
        # as a truncated or converted value
        with pytest.raises(ConfigError):
            SynthConfig(**bad)

    @pytest.mark.parametrize("name, value, message", [
        ("rng_seed", -10 ** 5000, "rng_seed must be >= 0"),
        ("n_train_sent_ads", -10 ** 5000, "n_train_sent_ads must be >= 0"),
        ("fps", [10 ** 5000], "fps must be a number"),
        ("moments_per_ad", 10 ** 5000, r"moments_per_ad must be a \(lo, hi\) pair"),
        ("signal_aus", 10 ** 5000, "signal_aus must be a collection of AU names or indices"),
    ], ids=["rng-seed", "n-train-sent-ads", "fps", "moments-per-ad", "signal-aus"])
    def test_value_that_python_cannot_print(self, name, value, message):
        # repr() refuses an int of more than 4300 digits, so the message leaves it out
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SynthConfig(**{name: value})

    @pytest.mark.parametrize("duration, fps", [(1e308, 5.0), (1e300, 1e300), (2.0 ** 62, 1.0),
                                               (2.0 ** 56, 1.0)])
    def test_frame_count_beyond_an_array(self, duration, fps):
        # the generator would fail on int(inf), or on a frame array of more
        # than intp.max bytes, which numpy refuses to shape
        with pytest.raises(ConfigError, match="more frames than a frame array can hold"):
            SynthConfig(ad_duration_s=duration, fps=fps)

    def test_large_frame_count_inside_an_array(self):
        assert SynthConfig(ad_duration_s=2.0 ** 55, fps=1.0).ad_duration_s == 2.0 ** 55
        assert 2 ** 55 * FRAME_DTYPE.itemsize <= np.iinfo(np.intp).max

    def test_accepts_numpy_numbers(self):
        config = SynthConfig(participants_per_ad=np.int64(2), fps=np.float32(5.0),
                             moments_per_ad=[np.int64(1), 2], signal_aus={np.int8(3)})
        assert config.moments_per_ad == (1, 2)
        assert config.signal_aus == frozenset({3})
        # stored as Python numbers, so the generator never computes in a numpy type
        assert type(config.participants_per_ad) is int and type(config.fps) is float
        assert all(type(v) is int for v in (*config.moments_per_ad, *config.signal_aus))

    def test_signal_aus_takes_names(self):
        config = SynthConfig(signal_aus=["Smile", "au6", 0])
        assert config.signal_aus == frozenset({18, 4, 0})

    @pytest.mark.parametrize("bad", [["Smile", "AU99"], "Smile", {"Smile": 1}, b"\x00\x04"],
                             ids=["unknown-name", "str", "mapping", "bytes"])
    def test_signal_aus_rejects_non_collections_and_unknown_names(self, bad):
        with pytest.raises(ConfigError, match="signal_aus"):
            SynthConfig(signal_aus=bad)


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        assert generate(SMALL_CONFIG) == generate(SMALL_CONFIG)

    def test_different_seed_differs(self):
        other = dataclasses.replace(SMALL_CONFIG, rng_seed=124)
        assert generate(SMALL_CONFIG) != generate(other)

    def test_null_is_zero_signal(self):
        zeroed = dataclasses.replace(SMALL_CONFIG, signal_strength=0.0)
        assert generate_null(SMALL_CONFIG) == generate(zeroed)


class TestStructure:
    def test_split_counts(self, small_synth):
        train, test = small_synth.train, small_synth.test
        assert len(train.ads) == 2
        assert len(test.ads) == 8
        assert len(train.videos) == 2 * 8
        assert len(test.videos) == 8 * 8
        assert all(ad.is_sentimental for ad in train.ads.values())
        labels = [ad.label for ad in test.ads.values()]
        assert labels.count(AdLabel.SENTIMENTAL) == 4
        assert labels.count(AdLabel.NON_SENTIMENTAL) == 4

    def test_naming_scheme(self, small_synth):
        assert list(small_synth.train.ads) == ["train_sent_01", "train_sent_02"]
        assert list(small_synth.test.ads) == [
            "test_sent_01", "test_sent_02", "test_sent_03", "test_sent_04",
            "test_nonsent_01", "test_nonsent_02", "test_nonsent_03",
            "test_nonsent_04"]
        first = small_synth.train.videos[0]
        assert first.video_id == "train_sent_01_p00"
        assert first.ad_id == "train_sent_01"

    def test_combined_pools_everything(self, small_synth):
        combined = small_synth.combined
        assert set(combined.ads) == (
            set(small_synth.train.ads) | set(small_synth.test.ads))
        assert len(combined.videos) == (
            len(small_synth.train.videos) + len(small_synth.test.videos))

    def test_frame_grid(self, small_synth):
        video = small_synth.train.videos[0]
        assert len(video.frames) == 150  # 30 s at 5 fps
        for i, frame in enumerate(video.frames):
            assert frame.frame_index == i
            assert frame.timestamp_s == i / SMALL_CONFIG.fps
            assert frame.face_detected or all(frame.aus[k] == 0.0 for k in range(20))

    def test_moment_geometry(self, small_synth):
        lo_frac, hi_frac = MOMENT_LENGTH_RANGE
        d = SMALL_CONFIG.ad_duration_s
        lo_n, hi_n = SMALL_CONFIG.moments_per_ad
        for ad in small_synth.combined.ads.values():
            if not ad.is_sentimental:
                assert ad.moments == ()
                continue
            assert lo_n <= len(ad.moments) <= hi_n
            for m in ad.moments:
                assert m.start_s >= 0.0
                assert m.end_s <= d
                length = m.end_s - m.start_s
                assert lo_frac * d - 1e-9 <= length <= hi_frac * d + 1e-9
            for a, b in zip(ad.moments, ad.moments[1:]):
                assert b.start_s - a.end_s >= MOMENT_MIN_GAP_S - 1e-9

    def test_scores_inside_unit_interval(self, small_synth):
        for video in small_synth.train.videos[:4]:
            for frame in video.frames:
                if frame.face_detected:
                    assert all(0.0 <= frame.aus[k] <= 1.0 for k in range(20))


def au_means(videos, ads, au_index):
    """Mean activation of one AU inside and outside the labeled moments."""
    inside, outside = [], []
    for video in videos:
        moments = ads[video.ad_id].moments
        for frame in video.frames:
            if not frame.face_detected:
                continue
            bucket = inside if any(
                m.start_s <= frame.timestamp_s < m.end_s for m in moments
            ) else outside
            bucket.append(frame.aus[au_index])
    return statistics.fmean(inside), statistics.fmean(outside)


class TestPlantedSignal:
    def test_signal_aus_rise_inside_moments(self, small_synth):
        train = small_synth.train
        for k in sorted(SMALL_CONFIG.signal_aus):
            inside, outside = au_means(train.videos, train.ads, k)
            assert inside > outside + 0.15

    def test_non_signal_aus_flat(self, small_synth):
        train = small_synth.train
        quiet = [k for k in range(20) if k not in SMALL_CONFIG.signal_aus]
        for k in quiet[:5]:
            inside, outside = au_means(train.videos, train.ads, k)
            assert abs(inside - outside) < 0.05

    def test_null_corpus_has_no_rise(self):
        data = generate_null(SMALL_CONFIG)
        for k in sorted(SMALL_CONFIG.signal_aus):
            inside, outside = au_means(data.train.videos, data.train.ads, k)
            assert abs(inside - outside) < 0.05


class TestDistractedParticipants:
    def test_coverage_filter_catches_some_at_default_scale(self, default_datasets):
        total_dropped = 0
        for data in default_datasets:
            kept, dropped = filter_by_coverage(data.combined.videos, 0.9)
            total_dropped += len(dropped)
            for video in data.combined.videos:
                if video.video_id in dropped:
                    assert face_coverage(video) < 0.9
        assert total_dropped > 0

    def test_most_videos_survive(self, default_datasets):
        data = default_datasets[0]
        kept, dropped = filter_by_coverage(data.combined.videos, 0.9)
        assert len(dropped) < 0.15 * len(data.combined.videos)


class TestPositiveRate:
    def test_observed_rate_matches_analytic_form(self, default_datasets):
        # the analytic rate is per face frame, so the denominator must count
        # the ambiguous in-moment frames the labeler drops
        config = SynthConfig()
        expected = expected_positive_rate(config)
        observed = []
        for data in default_datasets:
            kept, _ = filter_by_coverage(data.train.videos, 0.9)
            summary = label_summary(extract_examples(kept, data.train.ads))
            face_frames = sum(
                1 for v in kept for f in v.frames if f.face_detected)
            observed.append(summary.positives / face_frames)
        mean = statistics.fmean(observed)
        assert 0.8 * expected <= mean <= 1.2 * expected

    def test_rate_grows_with_signal(self):
        weak = expected_positive_rate(
            dataclasses.replace(SynthConfig(), signal_strength=0.1))
        strong = expected_positive_rate(
            dataclasses.replace(SynthConfig(), signal_strength=0.9))
        assert strong > weak

    def test_rate_is_a_probability(self):
        rate = expected_positive_rate(SynthConfig())
        assert 0.0 < rate < 1.0


class TestInfeasibleGeometry:
    def test_two_moments_cannot_fit_short_ad(self):
        config = SynthConfig(
            n_train_sent_ads=1, n_test_sent_ads=1, n_test_nonsent_ads=1,
            participants_per_ad=1, ad_duration_s=4.0, moments_per_ad=(2, 2))
        with pytest.raises(ConfigError, match="moment"):
            generate(config)


class TestNoiseDistribution:
    def test_noise_mean_tracks_noise_level(self):
        config = dataclasses.replace(SMALL_CONFIG, noise_level=0.3)
        data = generate_null(config)
        values = [frame.aus[k] for video in data.train.videos[:6]
                  for frame in video.frames if frame.face_detected
                  for k in range(20)]
        assert statistics.fmean(values) == pytest.approx(0.3, abs=0.02)
