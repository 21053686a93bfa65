"""The functions the benchmark traces by name stay on the paths it traces.

perfbench/tracing.py wraps each function in its TARGETS, in every sentipipe
module that holds it, and reads a layer's time and counts from those calls.
A refactor that stops calling one leaves its layer reading 0 with nothing
failing, so these tests wrap the same functions the same way and count the
calls on a small corpus. The last test checks the stage timings that
run_stages reports without a tracer.
"""

import sys
from collections import Counter

from sentipipe import aggregate, metrics
from sentipipe.mlp import MlpParams, TrainConfig
from sentipipe.pipeline import predict_curves, run_baselines, run_stages


def count_calls(monkeypatch, *functions):
    """Route every sentipipe reference to each function through a counter,
    keyed by the function's name."""
    calls = Counter()
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name == "sentipipe" or name.startswith("sentipipe."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
    return calls


def test_run_baselines_bins_each_ad_once(monkeypatch, small_synth):
    calls = count_calls(monkeypatch, aggregate.aggregate_columns,
                        metrics.chance_baseline, metrics.single_au_baselines)
    chance, _ = run_baselines(small_synth.test)
    assert len(chance.per_ad_scores) > 1
    assert calls == {"aggregate_columns": len(chance.per_ad_scores),
                     "chance_baseline": 1, "single_au_baselines": 1}


def test_predict_curves_scores_each_video_once(monkeypatch, small_synth):
    calls = count_calls(monkeypatch, aggregate.score_video)
    predict_curves(MlpParams.zeros(), small_synth.test)
    assert calls == {"score_video": len(small_synth.test.videos)}


def test_run_stages_times_each_stage(small_synth):
    first, second = (run_stages(small_synth, train_config=TrainConfig(epochs=2))
                     for _ in range(2))
    assert list(first.timings) == ["coverage", "label", "train", "predict", "kpis"]
    assert all(isinstance(s, float) and s >= 0.0 for s in first.timings.values())
    assert first.timings != second.timings
    assert second == first
