"""Acceptance gate: the nine checks that qualify a build of this package.

The terminal summary hook in conftest prints one "ACCEPTANCE Cn" verdict
line per check at the end of any run that includes this module.
"""

import hashlib
import json
import statistics
import subprocess
import sys
import time

import numpy as np

from sentipipe.core import AdLabel, AdSpec, Interval
from sentipipe.ingest import filter_by_coverage
from sentipipe.metrics import roc_auc
from sentipipe.mlp import TrainConfig, backward, bce_loss, forward
from sentipipe.pipeline import run_baselines, run_chain, run_stages
from sentipipe.synth import DEFAULT_SIGNAL_AUS, SynthConfig, generate
from sentipipe.weak_label import LabelingConfig, extract_examples

from conftest import N_SEEDS, make_video
from test_mlp import flatten, random_params, unflatten


def brute_force_pairs(pos, neg):
    wins = int((pos[:, None] > neg[None, :]).sum())
    ties = int((pos[:, None] == neg[None, :]).sum())
    return (2 * wins + ties) / (2 * len(pos) * len(neg))


def random_scores(rng, size):
    if rng.random() < 0.5:
        return rng.integers(0, 9, size=size) / 8.0  # coarse grid, many ties
    return rng.uniform(0.0, 1.0, size=size)


def test_c1_rank_roc_equals_all_pairs_counting():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(1000):
        pos = random_scores(rng, int(rng.integers(1, 201)))
        neg = random_scores(rng, int(rng.integers(1, 201)))
        assert roc_auc(pos.tolist(), neg.tolist()) == brute_force_pairs(pos, neg)
    assert time.perf_counter() - start < 10.0


def test_c2_roc_properties():
    rng = np.random.default_rng(77)
    for _ in range(20):
        pos = rng.uniform(0.6, 1.0, size=int(rng.integers(1, 40)))
        neg = rng.uniform(0.0, 0.5, size=int(rng.integers(1, 40)))
        assert roc_auc(pos.tolist(), neg.tolist()) == 1.0
    for _ in range(100):
        a = random_scores(rng, int(rng.integers(1, 60))).tolist()
        b = random_scores(rng, int(rng.integers(1, 60))).tolist()
        assert roc_auc(a, b) + roc_auc(b, a) == 1.0
        # scaling by a power of two is strictly increasing and exact on
        # every float, so the value must not move at all
        assert roc_auc(a, b) == roc_auc([s * 8.0 for s in a],
                                        [s * 8.0 for s in b])
        grid = np.round(np.asarray(a) * 8) / 8
        grid_b = np.round(np.asarray(b) * 8) / 8
        assert roc_auc(grid.tolist(), grid_b.tolist()) == roc_auc(
            (2 * grid + 1).tolist(), (2 * grid_b + 1).tolist())


def test_c3_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        params = random_params(rng)
        x = rng.uniform(0, 1, size=20)
        y = float(rng.integers(0, 2))
        analytic = flatten(backward(params, x, y))
        theta = flatten(params)
        numeric = np.empty_like(theta)
        for k in range(len(theta)):
            hi, lo = theta.copy(), theta.copy()
            hi[k] += h
            lo[k] -= h
            numeric[k] = (bce_loss(forward(unflatten(hi), x), y)
                          - bce_loss(forward(unflatten(lo), x), y)) / (2 * h)
        rel = np.abs(analytic - numeric) / np.maximum(
            1e-8, np.abs(analytic) + np.abs(numeric))
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4
    assert time.perf_counter() - start < 5.0


def _random_corpus(rng):
    """Hand-rolled ads and videos, independent of the shipped generator."""
    ads = {}
    for i in range(4):
        m1_start = float(rng.integers(0, 6)) * 0.5
        m1_end = m1_start + float(rng.integers(1, 5)) * 0.5
        moments = [Interval(m1_start, m1_end)]
        if rng.random() < 0.5:
            m2_start = m1_end + float(rng.integers(1, 4)) * 0.5
            moments.append(
                Interval(m2_start, m2_start + float(rng.integers(1, 4)) * 0.5))
        ads[f"sent_{i}"] = AdSpec(
            ad_id=f"sent_{i}", label=AdLabel.SENTIMENTAL, duration_s=10.0,
            moments=tuple(moments))
    for i in range(2):
        ads[f"plain_{i}"] = AdSpec(
            ad_id=f"plain_{i}", label=AdLabel.NON_SENTIMENTAL, duration_s=10.0)
    atoms = np.array([0.0, 0.3, 0.49, 0.5, 0.51, 0.9, 1.0])
    probs = np.array([0.55, 0.2, 0.15, 0.04, 0.03, 0.02, 0.01])
    videos = []
    ad_ids = list(ads)
    for v in range(20):
        ad_id = ad_ids[int(rng.integers(0, len(ad_ids)))]
        spec = []
        for i in range(int(rng.integers(15, 31))):
            face = bool(rng.random() < 0.85)
            scores = None
            if face:
                scores = rng.choice(atoms, size=20, p=probs)
            spec.append((i * 0.25, face, scores))
        videos.append(make_video(f"v{v:02d}", ad_id, spec))
    return ads, videos


def test_c4_weak_labels_match_independent_per_frame_rules():
    rng = np.random.default_rng(41)
    ads, videos = _random_corpus(rng)
    expected = set()
    for video in videos:
        ad = ads[video.ad_id]
        if ad.label is not AdLabel.SENTIMENTAL:
            continue
        for frame in video.frames:
            if not frame.face_detected:
                continue
            inside = any(m.start_s <= frame.timestamp_s < m.end_s
                         for m in ad.moments)
            active = sum(1 for k in range(20) if frame.aus[k] >= 0.5)
            if inside and active >= 2:
                expected.add((video.video_id, frame.frame_index, 1))
            elif not inside:
                expected.add((video.video_id, frame.frame_index, 0))
    examples = extract_examples(videos, ads)
    got = {(ex.video_id, ex.frame_index, ex.label) for ex in examples}
    assert got == expected
    assert len(examples) == len(got)  # no duplicate emissions


def test_c5_planted_signal_recovery_beats_single_au_baselines():
    chain_seconds = 0.0
    model_ad, model_sent = [], []
    baseline_ad = np.zeros(20)
    baseline_sent = np.zeros(20)
    for seed in range(N_SEEDS):
        start = time.perf_counter()
        data = generate(SynthConfig(rng_seed=seed))
        result = run_stages(data, LabelingConfig(),
                            train_config=TrainConfig(rng_seed=seed))
        chain_seconds += time.perf_counter() - start
        model_ad.append(result.report.roc_ad)
        model_sent.append(result.report.roc_sent)
        _, per_au = run_baselines(data.test)
        baseline_ad += [r.roc_ad for r in per_au]
        baseline_sent += [r.roc_sent for r in per_au]
    baseline_ad /= N_SEEDS
    baseline_sent /= N_SEEDS
    mean_ad = statistics.fmean(model_ad)
    mean_sent = statistics.fmean(model_sent)
    assert mean_ad >= 0.90
    assert mean_sent >= 0.80
    quiet = [k for k in range(20) if k not in DEFAULT_SIGNAL_AUS]
    assert mean_ad > max(baseline_ad[quiet])
    assert mean_sent > max(baseline_sent[quiet])
    assert chain_seconds < 120.0


def test_c6_null_corpus_scores_at_chance():
    roc_ad, roc_sent = [], []
    for seed in range(N_SEEDS):
        result = run_chain(SynthConfig(rng_seed=seed), null=True)
        roc_ad.append(result.report.roc_ad)
        roc_sent.append(result.report.roc_sent)
    assert abs(statistics.fmean(roc_ad) - 0.5) <= 0.15
    assert abs(statistics.fmean(roc_sent) - 0.5) <= 0.15


def test_c7_single_planted_au_baseline_isolates_the_marker():
    planted = 10
    config = SynthConfig(signal_aus=frozenset({planted}), rng_seed=0)
    data = generate(config)
    _, per_au = run_baselines(data.test)
    assert per_au[planted].roc_ad >= 0.9
    others = [per_au[k].roc_ad for k in range(20) if k != planted]
    assert 0.4 <= statistics.median(others) <= 0.6


def _run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "sentipipe", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _chain_artifacts(root, config_path):
    out = root / "data"
    _run_cli("simulate", "--out", str(out), "--config", str(config_path))
    examples = root / "examples.jsonl"
    _run_cli("label",
             "--annotations", str(out / "train" / "annotations.json"),
             "--streams", str(out / "train" / "au_streams.csv"),
             "--out", str(examples))
    model = root / "model.json"
    loss = root / "loss.csv"
    _run_cli("train", "--examples", str(examples), "--model-out", str(model),
             "--loss-out", str(loss), "--epochs", "40")
    curves = root / "curves.csv"
    _run_cli("predict",
             "--annotations", str(out / "test" / "annotations.json"),
             "--streams", str(out / "test" / "au_streams.csv"),
             "--model", str(model), "--out", str(curves))
    report = root / "report.json"
    table = root / "table.csv"
    _run_cli("evaluate",
             "--annotations", str(out / "test" / "annotations.json"),
             "--streams", str(out / "test" / "au_streams.csv"),
             "--model", str(model), "--report-out", str(report),
             "--table-out", str(table))
    return [
        out / "train" / "annotations.json",
        out / "train" / "au_streams.csv",
        out / "train" / "au_streams.csv.frames",
        out / "test" / "annotations.json",
        out / "test" / "au_streams.csv",
        out / "test" / "au_streams.csv.frames",
        examples, model, loss, curves, report, table,
    ]


# SHA-256 of the C8 chain's outputs, keyed by path under the run directory
# (the two splits share file names). A refactor that changes any of these
# bytes changes the numbers; re-pinning needs a reason in CHANGES.md.
GOLDEN_SHA256 = {
    "data/train/annotations.json": "112f1d4573379fb03612f62407093a44eb1f1b75b8957aa2698cba26c6c42deb",
    "data/train/au_streams.csv": "d10a5b3ec958cec5706391b013ff94a39f7c1b844b3dd3fa385e9ea099dc8459",
    "data/test/annotations.json": "af93012663838c479668db0706b1b5cf9a475537d5c572ab9cc72f1b149e2d37",
    "data/test/au_streams.csv": "05dba4f78defea7736f85f0ceae6142c81818c8abc6d6c52f3e865720bc12af8",
    "data/train/au_streams.csv.frames": "bc10abd3e7941fb37656102194dd73b7d21ecf4b311ca153e7af04ea30528e39",
    "data/test/au_streams.csv.frames": "7dae6b58ccaafa413557ecb159d74d95f2d2bd284ec8dbb4bfc287b6c64e89a1",
    "examples.jsonl": "a3f289776518f59e95edec04f9074b259ccc16b807001bfff914b45ffc0d91d4",
    "model.json": "d93256484578a59c11d5411516d53cd36cc81d243961aa58c93caca3608dcc96",
    "loss.csv": "72bf2855736c271b7331605750c7793fe5926eb50f132235a0f6d7405596ef6b",
    "curves.csv": "4df8263235b68b904148842deda2561a751182c02b450518a9dfb1d4f2f2ae57",
    "report.json": "50efabc2efd37fc7329af2f8d99a6143352bc2b735fb63a0cf1e1e8eec93d939",
    "table.csv": "97e4b06534855b2d7f38419b5b3d13c353c4cb8032adcc903acad01f29b5da8f",
}


def test_c8_fixed_seed_runs_are_byte_identical(tmp_path):
    config_path = tmp_path / "synth.json"
    config_path.write_text(json.dumps({
        "n_train_sent_ads": 1, "n_test_sent_ads": 2, "n_test_nonsent_ads": 2,
        "participants_per_ad": 4, "ad_duration_s": 20.0, "fps": 5.0,
        "rng_seed": 11,
    }))
    first = _chain_artifacts(tmp_path / "run1", config_path)
    second = _chain_artifacts(tmp_path / "run2", config_path)
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), f"{a.name} differs between runs"
    run1 = tmp_path / "run1"
    digests = {path.relative_to(run1).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in first}
    assert set(GOLDEN_SHA256) <= set(digests)
    for name, golden in GOLDEN_SHA256.items():
        assert digests[name] == golden, (
            f"{name} drifted from its golden digest (numpy {np.__version__})")


def test_c9_coverage_boundary_is_inclusive():
    def video_with_coverage(video_id, n_frames, n_faces):
        spec = [(i * 0.2, i < n_faces, [0.1] * 20 if i < n_faces else None)
                for i in range(n_frames)]
        return make_video(video_id, "ad", spec)

    exactly = video_with_coverage("at_bar", 10, 9)          # 0.900
    just_below = video_with_coverage("below_bar", 1000, 899)  # 0.899
    kept, dropped = filter_by_coverage([exactly, just_below], 0.9)
    assert [v.video_id for v in kept] == ["at_bar"]
    assert dropped == ["below_bar"]
