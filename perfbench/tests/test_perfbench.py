"""Tests of the benchmark harness itself, on a corpus the size of the C8 check.

    python3 -m pytest perfbench/tests -q

Every workload runs end to end at the "tiny" shape, plain and traced, so the
harness cannot rot unnoticed; the checks and the tracer are also tested on
hand-made inputs.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run as bench_run  # noqa: E402
import worker  # noqa: E402
from tracing import Span, Tracer, span_stats  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(SPEC["workloads"]))
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", trace, "--shape", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if trace == "1":
        assert "trace: self time per layer" in proc.stdout
        spans = BENCH_DIR / "out" / f"spans-{workload}-seed3.jsonl"
        names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
        assert "bench.timed" in names and "aggregate.score_video" in names


def test_checkout_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "experiment", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _rep(chance=0.5, digests=None, kpi=None, seed=100):
    return {"seed": seed, "wall": 1.0, "digests": digests or {"model.json": "a"},
            "kpi": kpi or {"roc_ad": 0.9, "roc_sent": 0.8, "avg": 0.85},
            "chance": {"roc_ad": chance, "roc_sent": 0.5, "avg": (chance + 0.5) / 2}}


def _check(reps, repeat=None, workload="experiment", spec=SPEC) -> int:
    run = bench_run.Run()
    report = {"reps": reps, **({"repeat": repeat} if repeat else {})}
    bench_run.check_worker(run, workload, "full", spec, report)
    assert run.attempted > 0
    return run.failed


def test_checks_fail_on_a_wrong_chance_column_and_on_nondeterminism():
    assert _check([_rep(), _rep(seed=101)], repeat=_rep()) == 0
    assert _check([_rep(0.51)]) == 1
    assert _check([_rep(), _rep(seed=101)], repeat=_rep(digests={"model.json": "b"})) == 1


def test_checks_fail_on_a_failed_cli_command_and_on_pinned_kpis():
    failed = {**_rep(), "commands": [{"argv0": "train", "returncode": 5, "json": None}]}
    assert _check([failed], workload="cli_chain") == 1
    assert _check([_rep()], repeat=failed, workload="cli_chain") == 1
    pinned = {"pinned_kpis": {"full": {"experiment": {"7": {"roc_ad": 0.9, "roc_sent": 0.7}}}}}
    assert _check([_rep(seed=8), _rep(seed=7)], spec=pinned) == 1
    assert _check([_rep(seed=8)], spec=pinned) == 0


def test_every_repetition_of_a_run_has_its_own_corpus_seed():
    seeds = [bench_run.corpus_seed(s, k) + r for s in range(3)
             for k in range(bench_run.WORKERS_PER_RUN) for r in range(worker.MAX_REPS)]
    assert len(set(seeds)) == len(seeds)


def test_cli_reference_check_compares_files_and_roc():
    rep = _rep(digests={"model.json": "m", "curves.csv": "c"})
    same = {"reference": {"kpi": rep["kpi"], "digests": {"model.json": "m", "curves.csv": "c"}}}
    ok = bench_run.Run()
    bench_run.check_reference(ok, rep, same)
    assert ok.failed == 0
    other = {"reference": {"kpi": rep["kpi"], "digests": {"model.json": "x", "curves.csv": "c"}}}
    bad = bench_run.Run()
    bench_run.check_reference(bad, rep, other)
    assert bad.failed == 1


def test_self_time_subtracts_direct_children_only():
    spans = [Span(0, None, "pipeline.run_stages", 0.0, 10.0),
             Span(1, 0, "mlp.train", 1.0, 7.0),
             Span(2, 1, "trace.count", 6.0, 6.5),
             Span(3, 0, "metrics.evaluate_kpis", 8.0, 9.0)]
    st = span_stats(spans)
    assert st["pipeline.run_stages"].self_s == pytest.approx(3.0)
    assert st["mlp.train"].self_s == pytest.approx(5.5)
    assert st["mlp.train"].total_s == pytest.approx(6.0)


def test_instrument_wraps_every_reference_and_restores_it():
    import sentipipe
    from sentipipe import pipeline

    original = pipeline.filter_by_coverage
    tracer = Tracer("test")
    with tracer.instrument():
        assert pipeline.filter_by_coverage is not original
        assert sentipipe.filter_by_coverage is pipeline.filter_by_coverage
        sentipipe.filter_by_coverage([], 0.9)
    assert pipeline.filter_by_coverage is original
    assert sentipipe.filter_by_coverage is original
    names = [s.name for s in tracer.spans]
    assert names == ["ingest.filter_by_coverage", "trace.count"]
    assert tracer.spans[0].counts == {"videos": 0, "dropped": 0}


def test_benchmark_json_agrees_with_the_spec():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    spec_units = {m["name"]: (m["unit"], m["better"])
                  for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert spec_units[m["name"]] == (m["unit"], m["better"]), m["name"]
    cli_only = {m["name"] for m in SPEC["per_layer"] if m.get("cli_chain_only")}
    assert not cli_only & {m["name"] for m in BENCHMARK["per_layer"]}
    assert {"setup_s"} <= {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(SPEC["workloads"])
