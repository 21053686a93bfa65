"""Seeded synthetic corpus with a known planted signal.

The real dataset behind this pipeline is proprietary, so end-to-end behaviour
is checked against generated data where the ground truth is ours by
construction: a chosen subset of "responder" participants co-activates the
signal AUs during the labeled moments of sentimental ads, everything else is
low-activity noise. A pipeline that works must recover that plant; on the
null variant (signal_strength 0) it must find nothing.

Everything derives from one seeded Generator in a fixed order, so a given
config is bit-reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .core import (FRAME_DTYPE, N_AUS, AdLabel, AdSpec, Interval, VideoRecord,
                   canonical_au_index, got, require_int, require_real)
from .errors import ConfigError
from .ingest import Dataset
from .weak_label import frame_in_moments

# canonical indices: AU1, AU6, Smile
DEFAULT_SIGNAL_AUS = frozenset({0, 4, 18})

MOMENT_MIN_GAP_S = 2.0
# fraction of ad duration; with 1-2 moments per ad this centers expected
# moment coverage near half the ad, so the within-ad KPI sits at chance on
# null data instead of being dragged down by a longer negative window
MOMENT_LENGTH_RANGE = (0.26, 0.40)
DISTRACTED_DROPOUT_RANGE = (0.05, 0.35)


@dataclass(frozen=True, slots=True)
class SynthConfig:
    """Knobs for the generator. Defaults give 3 training sentimental ads and
    a 15 + 15 test split, 40 participants each, 60 s at 5 fps."""

    n_train_sent_ads: int = 3
    n_test_sent_ads: int = 15
    n_test_nonsent_ads: int = 15
    participants_per_ad: int = 40
    ad_duration_s: float = 60.0
    fps: float = 5.0
    moments_per_ad: tuple[int, int] = (1, 2)
    signal_aus: frozenset[int] = DEFAULT_SIGNAL_AUS
    signal_strength: float = 0.8
    responder_fraction: float = 0.4
    noise_level: float = 0.1
    face_dropout_prob: float = 0.02
    distracted_fraction: float = 0.05
    rng_seed: int = 0

    def __post_init__(self) -> None:
        # counts take integers only and the float fields any real number,
        # never a bool, as the generator would truncate or fail on them later;
        # each field keeps the int or float its check returns
        put = partial(object.__setattr__, self)
        for name, minimum in (("n_train_sent_ads", 0), ("n_test_sent_ads", 0),
                              ("n_test_nonsent_ads", 0), ("participants_per_ad", 1),
                              ("rng_seed", 0)):
            put(name, require_int(name, getattr(self, name), minimum))
        for name in ("ad_duration_s", "fps", "signal_strength", "responder_fraction",
                     "noise_level", "face_dropout_prob", "distracted_fraction"):
            put(name, require_real(name, getattr(self, name)))
        if not math.isfinite(self.ad_duration_s) or self.ad_duration_s <= 0:
            raise ConfigError("ad_duration_s must be finite and > 0")
        if not math.isfinite(self.fps) or self.fps <= 0:
            raise ConfigError("fps must be finite and > 0")
        if not self.ad_duration_s * self.fps < np.iinfo(np.intp).max // FRAME_DTYPE.itemsize:
            raise ConfigError("ad_duration_s * fps is more frames than a frame array can hold")
        try:
            lo, hi = self.moments_per_ad
        except (TypeError, ValueError):
            raise ConfigError(
                f"moments_per_ad must be a (lo, hi) pair{got(self.moments_per_ad)}") from None
        lo = require_int("moments_per_ad lo", lo, 1)
        put("moments_per_ad", (lo, require_int("moments_per_ad hi", hi, lo)))
        try:
            indices = tuple(self.signal_aus)
        except TypeError:
            indices = None
        if indices is None or isinstance(self.signal_aus, (str, bytes, Mapping)):
            raise ConfigError(f"signal_aus must be a collection of AU names or indices"
                              f"{got(self.signal_aus)}")
        aus = frozenset(map(_signal_au_index, indices))
        if not aus:
            raise ConfigError("signal_aus must not be empty")
        if any(a >= N_AUS for a in aus):
            raise ConfigError(f"signal_aus indices must lie in [0, {N_AUS})")
        put("signal_aus", aus)
        for name in ("signal_strength", "responder_fraction", "distracted_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.noise_level < 1.0:
            raise ConfigError("noise_level must lie strictly inside (0, 1)")
        if not 0.0 <= self.face_dropout_prob < 1.0:
            raise ConfigError("face_dropout_prob must lie in [0, 1)")


def _signal_au_index(value: object) -> int:
    """The index of one signal_aus entry: an AU name or an index >= 0."""
    if not isinstance(value, str):
        return require_int("signal_aus index", value, 0)
    try:
        return canonical_au_index(value)
    except ConfigError as exc:
        raise ConfigError(f"signal_aus: {exc}") from None


@dataclass(frozen=True, slots=True)
class SynthData:
    """Generated corpus, already split the way the experiments consume it."""

    train: Dataset
    test: Dataset

    @property
    def combined(self) -> Dataset:
        return Dataset(
            ads={**self.train.ads, **self.test.ads},
            videos=self.train.videos + self.test.videos,
        )


def _noise_beta_b(noise_level: float) -> float:
    # Beta(1, b) has mean 1/(1+b); b = 1/level - 1 puts the mean at the
    # configured level with the mode pinned to 0 for level < 0.5
    return 1.0 / noise_level - 1.0


def _place_moments(
    rng: np.random.Generator, duration_s: float, count: int
) -> tuple[Interval, ...]:
    """Lay out ``count`` disjoint moments with at least MOMENT_MIN_GAP_S
    between them, spreading the leftover time uniformly over the gaps."""
    lo_frac, hi_frac = MOMENT_LENGTH_RANGE
    for _ in range(200):
        lengths = rng.uniform(lo_frac * duration_s, hi_frac * duration_s, size=count)
        required = float(lengths.sum()) + MOMENT_MIN_GAP_S * (count - 1)
        if required <= duration_s:
            break
    else:
        raise ConfigError(
            f"cannot fit {count} moments of {lo_frac}-{hi_frac} of the duration "
            f"plus {MOMENT_MIN_GAP_S}s gaps into {duration_s}s")
    slack = duration_s - required
    # count cut points split the slack into count+1 non-negative gaps
    cuts = np.sort(rng.uniform(0.0, slack, size=count))
    gaps = np.diff(np.concatenate([[0.0], cuts, [slack]]))
    moments = []
    cursor = 0.0
    for i, length in enumerate(lengths):
        start = cursor + gaps[i] + (MOMENT_MIN_GAP_S if i else 0.0)
        # accumulated rounding could push the last end a hair past the ad
        end = min(start + length, duration_s)
        moments.append(Interval(start_s=start, end_s=end))
        cursor = end
    return tuple(moments)


def _generate_video(
    rng: np.random.Generator,
    video_id: str,
    ad: AdSpec,
    config: SynthConfig,
    responder: bool,
) -> VideoRecord:
    n_frames = int(math.ceil(config.ad_duration_s * config.fps - 1e-9))
    ts = np.arange(n_frames, dtype=np.float64) / config.fps
    if rng.random() < config.distracted_fraction:
        dropout_p = rng.uniform(*DISTRACTED_DROPOUT_RANGE)
    else:
        dropout_p = config.face_dropout_prob
    face = rng.random(n_frames) >= dropout_p
    aus = rng.beta(1.0, _noise_beta_b(config.noise_level), size=(n_frames, N_AUS))
    if responder and ad.moments and config.signal_strength > 0:
        in_moment = frame_in_moments(ts, ad.moments)
        cols = sorted(config.signal_aus)
        block = aus[np.ix_(in_moment, cols)]
        aus[np.ix_(in_moment, cols)] = np.clip(block + config.signal_strength, 0.0, 1.0)
    aus[~face] = 0.0  # frames without a face carry no scores
    return VideoRecord.from_columns(video_id, ad.ad_id, np.arange(n_frames), ts, face, aus)


def _generate_ad_block(
    rng: np.random.Generator,
    ad_id: str,
    label: AdLabel,
    config: SynthConfig,
) -> tuple[AdSpec, list[VideoRecord]]:
    if label is AdLabel.SENTIMENTAL:
        lo, hi = config.moments_per_ad
        count = int(rng.integers(lo, hi + 1))
        moments = _place_moments(rng, config.ad_duration_s, count)
    else:
        moments = ()
    ad = AdSpec(ad_id=ad_id, label=label, duration_s=config.ad_duration_s,
                moments=moments)
    n = config.participants_per_ad
    n_resp = int(round(config.responder_fraction * n))
    responders = set(int(i) for i in rng.choice(n, size=n_resp, replace=False))
    videos = [
        _generate_video(rng, f"{ad_id}_p{k:02d}", ad, config, responder=k in responders)
        for k in range(n)
    ]
    return ad, videos


def generate(config: SynthConfig = SynthConfig()) -> SynthData:
    """Generate the train and test corpora for one seed."""
    rng = np.random.default_rng(config.rng_seed)
    blocks = []
    for i in range(config.n_train_sent_ads):
        blocks.append(("train", f"train_sent_{i + 1:02d}", AdLabel.SENTIMENTAL))
    for i in range(config.n_test_sent_ads):
        blocks.append(("test", f"test_sent_{i + 1:02d}", AdLabel.SENTIMENTAL))
    for i in range(config.n_test_nonsent_ads):
        blocks.append(("test", f"test_nonsent_{i + 1:02d}", AdLabel.NON_SENTIMENTAL))
    ads = {"train": {}, "test": {}}
    videos = {"train": [], "test": []}
    for split, ad_id, label in blocks:
        ad, vids = _generate_ad_block(rng, ad_id, label, config)
        ads[split][ad_id] = ad
        videos[split].extend(vids)
    return SynthData(
        train=Dataset(ads=ads["train"], videos=tuple(videos["train"])),
        test=Dataset(ads=ads["test"], videos=tuple(videos["test"])),
    )


def generate_null(config: SynthConfig = SynthConfig()) -> SynthData:
    """Same corpus shape with the plant removed: signal_strength forced to 0."""
    return generate(replace(config, signal_strength=0.0))


def _prob_at_least_two_active(
    p_signal: float, n_signal: int, p_noise: float, n_noise: int
) -> float:
    """P(>= 2 of the 20 AUs active) with independent per-AU activity."""
    p0 = (1.0 - p_signal) ** n_signal * (1.0 - p_noise) ** n_noise
    p1_sig = (n_signal * p_signal * (1.0 - p_signal) ** (n_signal - 1)
              * (1.0 - p_noise) ** n_noise) if n_signal else 0.0
    p1_noise = (n_noise * p_noise * (1.0 - p_noise) ** (n_noise - 1)
                * (1.0 - p_signal) ** n_signal) if n_noise else 0.0
    return 1.0 - p0 - p1_sig - p1_noise


def expected_positive_rate(config: SynthConfig) -> float:
    """Closed-form expected fraction of face frames (in sentimental-ad videos)
    that the weak labeler marks positive with its default activation
    threshold of 0.5 and min_active_positive of 2.

    The generated noise is iid Beta(1, b) per AU, so activity probabilities
    have closed forms: P(noise >= t) = (1 - t)^b.
    """
    threshold = 0.5
    b = _noise_beta_b(config.noise_level)
    q_noise = (1.0 - threshold) ** b
    gap = threshold - config.signal_strength
    q_signal = 1.0 if gap <= 0 else (1.0 - gap) ** b
    n_sig = len(config.signal_aus)
    n_noise = N_AUS - n_sig
    p_responder = _prob_at_least_two_active(q_signal, n_sig, q_noise, n_noise)
    p_bystander = _prob_at_least_two_active(q_noise, n_sig, q_noise, n_noise)
    lo, hi = config.moments_per_ad
    mean_count = (lo + hi) / 2.0
    mean_frac = mean_count * (MOMENT_LENGTH_RANGE[0] + MOMENT_LENGTH_RANGE[1]) / 2.0
    rf = config.responder_fraction
    return mean_frac * (rf * p_responder + (1.0 - rf) * p_bystander)
