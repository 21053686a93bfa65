"""sentipipe benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {experiment,cli_chain,score_panel}
        [--seed N] [--seconds S] [--trace 0|1] [--shape full|tiny]

Run from the repository root. The package is imported from ./src of this
checkout. Every sample is a fresh worker process (perfbench/worker.py) with
BLAS pinned to one thread, so set-up time and peak memory are per process.

--trace 0 starts WORKERS_PER_RUN plain workers one after another, each
repeating the timed region, on a new corpus every time, for about
--seconds / WORKERS_PER_RUN seconds, and reports the end-to-end metrics as
medians over the repetitions (set-up time and peak memory over the workers). --trace 1 runs the timed
region once plain and once traced and reports the per-layer metrics from the
traced spans. Either way the outputs are checked. Human-readable lines come
first; the last stdout line is the JSON result. Exit code 0 when every check
passed, 1 when one failed, 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Span, read_spans, span_stats, under
from worker import MAX_REPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS_PER_RUN = 6
RUN_DEADLINE_S = 170


class Run:
    """Counts the operations of one run and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, int, dict | None]:
    """Run a worker in its own process group; returns (spawn time, exit code,
    report). The whole group is killed if the run's deadline passes."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return spawned, -9, None
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        report = None
    return spawned, proc.returncode, report


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "sentipipe").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def corpus_seed(seed: int, worker: int) -> int:
    """Corpus seed of the first repetition of worker k in a run with --seed s;
    repetition r uses this seed + r (worker.py). Training work differs by
    about 13% from one corpus to the next, so every repetition gets its own
    corpus and the run's median averages over them; the inputs are still
    fixed by --seed."""
    return MAX_REPS * (WORKERS_PER_RUN * seed + worker)


def check_worker(run: Run, workload: str, shape: str, spec: dict, report: dict) -> None:
    """Checks on one worker's repetitions; each counts as an operation."""
    reps = report["reps"]
    for rep in reps + ([report["repeat"]] if "repeat" in report else []):
        for cmd in rep.get("commands", []):
            run.check(cmd["returncode"] == 0 and isinstance(cmd["json"], dict),
                      f"{cmd['argv0']}: exit {cmd['returncode']}, last line {cmd['json']!r}")
        if not run.check("kpi" in rep, f"corpus seed {rep['seed']} produced no KPI report"):
            continue
        run.check(rep["chance"]["roc_ad"] == 0.5 and rep["chance"]["roc_sent"] == 0.5,
                  f"chance column on corpus seed {rep['seed']} is {rep['chance']}, "
                  "not exactly 0.5/0.5")
        pinned = spec["pinned_kpis"].get(shape, {}).get(workload, {}).get(str(rep["seed"]))
        if pinned is not None:
            got = {k: rep["kpi"][k] for k in pinned}
            run.check(got == pinned,
                      f"KPIs {got} on corpus seed {rep['seed']} differ from the pinned {pinned}")
    if "repeat" in report:
        run.check(report["repeat"]["digests"] == reps[0]["digests"],
                  f"two runs on corpus seed {reps[0]['seed']} wrote different files")


def check_reference(run: Run, rep: dict, reference: dict | None) -> None:
    """The CLI chain's files and ROC values equal the in-memory chain's."""
    if reference is None:
        run.check(False, "in-memory reference run failed")
        return
    ref = reference["reference"]
    for name, digest in ref["digests"].items():
        run.check(rep["digests"].get(name) == digest,
                  f"CLI {name} differs from the in-memory run_stages output")
    roc = {k: rep["kpi"][k] for k in ("roc_ad", "roc_sent")} if "kpi" in rep else None
    run.check(roc == {k: ref["kpi"][k] for k in ("roc_ad", "roc_sent")},
              f"CLI report ROC {roc} differs from in-memory {ref['kpi']}")


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], plain_wall: float, traced_wall: float,
                  startup_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (definitions in spec.json)."""
    st = span_stats(spans)

    def total(*names: str) -> float:
        return sum(st[n].total_s for n in names if n in st)

    def count(name: str, key: str) -> int:
        return st[name].counts.get(key, 0) if name in st else 0

    baseline_names = {"metrics.chance_baseline", "metrics.single_au_baselines"}
    in_baselines = under(spans, baseline_names)
    m = {
        "synth.generate_s": total("synth.generate"),
        "ingest.write_s": total("ingest.write_au_stream", "ingest.write_ad_annotations"),
        "ingest.bytes_written": count("ingest.write_au_stream", "bytes")
        + count("ingest.write_ad_annotations", "bytes"),
        "ingest.parse_s": total("ingest.parse_au_stream", "ingest.parse_ad_annotations"),
        "ingest.coverage_s": total("ingest.filter_by_coverage"),
        "ingest.videos_dropped": count("ingest.filter_by_coverage", "dropped"),
        "weak_label.extract_s": total("weak_label.extract_examples"),
        "weak_label.examples": count("weak_label.extract_examples", "examples"),
        "weak_label.jsonl_s": total("weak_label.write_examples_jsonl",
                                    "weak_label.read_examples_jsonl"),
        "mlp.train_s": total("mlp.train"),
        "mlp.adam_steps": count("mlp.train", "adam_steps"),
        "aggregate.score_s": total("aggregate.score_video"),
        "aggregate.bin_s": total("aggregate.aggregate_scores"),
        "aggregate.curves": count("aggregate.aggregate_scores", "curves"),
        "aggregate.io_s": total("aggregate.write_curves_csv", "aggregate.read_curves_csv",
                                "aggregate.export_curve_svg"),
        "metrics.kpi_s": total("metrics.evaluate_kpis"),
        "metrics.baselines_s": total(*baseline_names),
        "metrics.baseline_curves": sum(1 for s in spans if s.id in in_baselines
                                       and s.name == "aggregate.aggregate_scores"),
        "cli.startup_s": startup_s,
        "pipeline.self_s": sum(v.self_s for k, v in st.items() if k.startswith("pipeline.")),
        "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
    }
    m["synth.frames_per_s"] = _div(count("synth.generate", "frames"), m["synth.generate_s"])
    m["ingest.write_rows_per_s"] = _div(count("ingest.write_au_stream", "rows"),
                                        total("ingest.write_au_stream"))
    m["ingest.parse_rows_per_s"] = _div(count("ingest.parse_au_stream", "rows"),
                                        total("ingest.parse_au_stream"))
    m["weak_label.kept_frac"] = _div(m["weak_label.examples"],
                                     count("weak_label.extract_examples", "attempted"))
    m["mlp.step_us"] = _div(m["mlp.train_s"] * 1e6, m["mlp.adam_steps"])
    m["aggregate.score_frames_per_s"] = _div(count("aggregate.score_video", "frames"),
                                             m["aggregate.score_s"])
    for cmd in ("simulate", "label", "train", "predict", "evaluate", "export_curves"):
        m[f"cli.{cmd}_s"] = total(f"cli.{cmd}")
    return m


def print_trace_tables(spans: list[Span], traced_wall: float) -> None:
    st = span_stats(spans)
    layers: dict[str, float] = {}
    for name, s in st.items():
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + s.self_s
    print(f"trace: self time per layer (share of traced timed region {traced_wall:.3f} s)")
    for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {self_s:10.4f} s  {100 * self_s / traced_wall:6.2f} %")
    print("trace: per span name: calls, self s, total s, counts")
    for name, s in sorted(st.items(), key=lambda kv: -kv[1].self_s):
        counts = " ".join(f"{k}={v}" for k, v in sorted(s.counts.items()))
        print(f"  {name:<34} {s.calls:7d} {s.self_s:10.4f} {s.total_s:10.4f}  {counts}")


def plain_run(args, run: Run, spec: dict, run_dir: Path, deadline: float):
    reports, setups = [], []
    for i in range(WORKERS_PER_RUN):
        # the first worker also runs its first corpus twice
        spawned, code, report = spawn(
            [args.workload, str(corpus_seed(args.seed, i)), args.shape,
             "repeat" if i == 0 else "plain", str(run_dir / f"w{i}"),
             str(args.seconds / WORKERS_PER_RUN)], deadline)
        if not run.check(report is not None, f"worker {i} exited {code} without a report"):
            return {}, None
        reports.append(report)
        setups.append(report["setup_done"] - spawned)
        run.attempted += report["stages"] * len(report["reps"])
        check_worker(run, args.workload, args.shape, spec, report)
    if args.workload == "cli_chain":
        _, _, reference = spawn([args.workload, str(corpus_seed(args.seed, 0)), args.shape,
                                 "reference", str(run_dir / "ref"), "0"], deadline)
        check_reference(run, reports[0]["reps"][0], reference)
    if run.failed:
        return {}, None
    reps = [r for report in reports for r in report["reps"]]
    walls = [r["wall"] for r in reps]
    wall = statistics.median(walls)
    rss_key = "children_maxrss_kb" if args.workload == "cli_chain" else "maxrss_kb"
    print(f"samples: {len(reps)} timed repetitions in {WORKERS_PER_RUN} worker processes, "
          "each on its own corpus")
    print("kpi: corpus seed roc_ad roc_sent: " + "; ".join(
        f"{r['seed']} {r['kpi']['roc_ad']!r} {r['kpi']['roc_sent']!r}" for r in reps))
    print(f"samples: wall_s each {' '.join(f'{w:.4f}' for w in walls)}")
    refs = [r["ref"] for r in reps]
    print(f"samples: wall_ref each {' '.join(f'{x:.3f}' for x in refs)}")
    print(f"samples: setup_s each {' '.join(f'{s:.4f}' for s in setups)}")
    return {
        "wall_s": wall,
        "wall_ref": statistics.median(refs),
        "frames_per_s": reports[0]["frames"] / wall,
        "peak_rss_mb": statistics.median(r[rss_key] for r in reports) / 1024,
        "setup_s": statistics.median(setups),
        "kpi_avg": statistics.fmean(r["kpi"]["avg"] for r in reps),
    }, reports[0]


def traced_run(args, run: Run, spec: dict, run_dir: Path, deadline: float):
    seed = corpus_seed(args.seed, 0)
    startups, reports = [], {}
    for mode in ("plain", "traced"):
        spawned, code, report = spawn([args.workload, str(seed), args.shape, mode,
                                       str(run_dir / mode), "0"], deadline)
        if not run.check(report is not None, f"{mode} worker exited {code} without a report"):
            return {}, None
        run.attempted += report["stages"]
        startups.append(report["imported"] - spawned)
        reports[mode] = report
        check_worker(run, args.workload, args.shape, spec, report)
    plain, traced = reports["plain"]["reps"][0], reports["traced"]["reps"][0]
    run.check(traced["digests"] == plain["digests"],
              "the traced run wrote different files than the plain run")
    if args.workload == "cli_chain":
        _, _, reference = spawn([args.workload, str(seed), args.shape, "reference",
                                 str(run_dir / "ref"), "0"], deadline)
        check_reference(run, plain, reference)
    if run.failed:
        return {}, None
    spans_file = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    shutil.copyfile(run_dir / "traced" / "spans.jsonl", spans_file)
    spans = read_spans(str(spans_file))
    plain_wall, traced_wall = plain["wall"], traced["wall"]
    print_trace_tables(spans, traced_wall)
    print(f"trace: spans written to {spans_file.relative_to(ROOT)}")
    return layer_metrics(spans, plain_wall, traced_wall, statistics.median(startups)), \
        reports["plain"]


def main() -> int:
    spec = json.loads((HERE / "spec.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    # turn SIGTERM into an exit, so the finally blocks stop the workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "sentipipe" / "__init__.py").is_file():
        print(f"error: no sentipipe package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    deadline = time.monotonic() + RUN_DEADLINE_S
    (HERE / "out").mkdir(exist_ok=True)
    run_dir = HERE / "out" / f"run-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run = Run()
    try:
        go = traced_run if args.trace else plain_run
        values, report = go(args, run, spec, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if report is not None:
        env = {"workload": args.workload, "seed": args.seed, "shape": args.shape,
               "trace": args.trace, "git_sha": _git_sha(), "src_sha256": _src_sha256(),
               "nproc": os.cpu_count(), **report["env"]}
        print("env: " + json.dumps(env))
        run.check(Path(env["sentipipe_file"]).resolve().is_relative_to(ROOT / "src"),
                  f"sentipipe was imported from {env['sentipipe_file']}, not from {ROOT / 'src'}")
    for problem in run.problems:
        print(f"FAILED: {problem}")
        print(f"FAILED: {problem}", file=sys.stderr)
    if values:
        print(f"failed_frac: {run.failed / max(run.attempted, 1)} "
              f"({run.failed} failed of {run.attempted} operations)")
        for m in spec["end_to_end"] + spec["per_layer"]:
            if m["name"] in values:
                print(f"{m['name']}: {values[m['name']]} {m['unit']}")
    ok = run.failed == 0 and bool(values)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared} if ok else {}
    print(json.dumps({"correct": ok, "attempted": max(run.attempted, 1),
                      "failed": run.failed if ok else max(run.failed, 1),
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
