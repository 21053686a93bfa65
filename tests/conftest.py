import re

import numpy as np
import pytest

from sentipipe.core import (
    AdLabel,
    AdSpec,
    AggregateCurve,
    AuVector,
    Interval,
    VideoRecord,
)
from sentipipe.synth import SynthConfig, SynthData, generate, generate_null

N_SEEDS = 5


def curve_of(values, step=0.5, ad_id="ad", counts=None):
    """AggregateCurve from bare bin values, count 1 per bin unless given."""
    counts = counts or [1] * len(values)
    return AggregateCurve(ad_id=ad_id, step_s=step, scores=np.array(values, dtype=np.float64),
                          counts=np.array(counts, dtype=np.int64))


def au_vec(**overrides) -> AuVector:
    """AuVector of zeros with named positions set, e.g. au_vec(i0=0.7, i5=0.2)."""
    scores = [0.0] * 20
    for key, value in overrides.items():
        scores[int(key[1:])] = value
    return AuVector(tuple(scores))


def make_video(video_id, ad_id, spec):
    """Build a VideoRecord from (timestamp, face, scores-or-None) triples;
    frames are numbered 0, 1, ... and faceless frames get all-zero scores."""
    ts = [t for t, _, _ in spec]
    face = [f for _, f, _ in spec]
    aus = [list(scores) if f else [0.0] * 20 for _, f, scores in spec]
    return VideoRecord.from_columns(video_id, ad_id, range(len(spec)), ts, face,
                                    np.array(aus, dtype=np.float64).reshape(-1, 20))


def constant_video(video_id, ad_id, scores, n_frames=20, fps=2.0):
    spec = [(i / fps, True, scores) for i in range(n_frames)]
    return make_video(video_id, ad_id, spec)


@pytest.fixture
def sent_ad():
    return AdSpec(ad_id="ad_s", label=AdLabel.SENTIMENTAL, duration_s=10.0,
                  moments=(Interval(2.0, 5.0),))


@pytest.fixture
def nonsent_ad():
    return AdSpec(ad_id="ad_n", label=AdLabel.NON_SENTIMENTAL, duration_s=10.0)


SMALL_CONFIG = SynthConfig(
    n_train_sent_ads=2,
    n_test_sent_ads=4,
    n_test_nonsent_ads=4,
    participants_per_ad=8,
    ad_duration_s=30.0,
    fps=5.0,
    rng_seed=123,
)


@pytest.fixture(scope="session")
def small_synth() -> SynthData:
    return generate(SMALL_CONFIG)


@pytest.fixture(scope="session")
def default_datasets() -> list[SynthData]:
    """Planted-signal corpora for seeds 0..4 at the default scale."""
    return [generate(SynthConfig(rng_seed=s)) for s in range(N_SEEDS)]


@pytest.fixture(scope="session")
def null_datasets() -> list[SynthData]:
    """Signal-free corpora for seeds 0..4 at the default scale."""
    return [generate_null(SynthConfig(rng_seed=s)) for s in range(N_SEEDS)]


def rng(seed=0):
    return np.random.default_rng(seed)


_GATE_TEST = re.compile(r"test_acceptance\.py::test_c(\d+)_")


def pytest_terminal_summary(terminalreporter, exitstatus):
    """One scannable verdict line per release-gate check, after the run."""
    del exitstatus
    verdicts = {}
    for category, verdict in (("passed", "PASS"), ("failed", "FAIL"),
                              ("error", "FAIL")):
        for report in terminalreporter.stats.get(category, ()):
            match = _GATE_TEST.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            n = int(match.group(1))
            if verdict == "FAIL" or n not in verdicts:
                verdicts[n] = verdict
    for n in sorted(verdicts):
        terminalreporter.write_line(f"ACCEPTANCE C{n}: {verdicts[n]}")
