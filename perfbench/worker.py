"""One process of a benchmark run, started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED SHAPE MODE OUT_DIR BUDGET_S

Modes:
  plain      repeat the timed region until about BUDGET_S seconds are used
             (at least once), repetition r on the corpus of seed SEED + r, each
             set up before it untimed;
  repeat     as plain, then run the corpus of seed SEED once more, untimed, so
             the caller can check that it wrote the same files;
  traced     set up and run the timed region once on the corpus of seed SEED,
             with every call into sentipipe wrapped in a span, and write the
             spans to OUT_DIR;
  reference  (cli_chain) run the same chain in memory for the equality check.

The last stdout line is one JSON object with monotonic timestamps (the
parent subtracts its own spawn time), peak memory, and per repetition its
corpus seed, the seconds spent in the timed region, the same in units of the
calibration task (plain modes), the KPIs and the digests of the files it wrote.
"""

import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

# Corpus seeds SEED .. SEED + MAX_REPS - 1 belong to one worker; run.py spaces
# the workers' SEEDs this far apart.
MAX_REPS = 1000


def _env() -> dict:
    import numpy as np
    import sentipipe

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "sentipipe_file": sentipipe.__file__,
    }


def calibrate(spawn: bool) -> float:
    """Seconds taken by a fixed task that does not use sentipipe: it builds
    and walks lists of small tuples and makes small numpy calls, the mix the
    in-memory timed regions run, in about 0.05 s on an idle x86-64 core. It
    holds under 2 MB at a time, so it barely raises the peak memory of a
    worker. With ``spawn`` it also starts an interpreter that imports numpy,
    as each command of cli_chain does (about 0.15 s more); on cli_chain a
    calibration without it did not follow the machine's changes.
    The task must never change, or ``wall_ref`` changes its unit."""
    import numpy as np

    start = time.monotonic()
    acc = 0.0
    for _ in range(6):
        rows = [(i, i * 0.5, str(i)) for i in range(10000)]
        for i, x, _ in rows:
            acc += x if i % 3 else -x
    a = np.full((64, 20), 0.5)
    w = np.full((20, 20), 0.05)
    for _ in range(2000):
        a = np.tanh(a @ w) + 0.5
    if spawn:
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.monotonic() - start


def timed_rep(w, state, rep_dir: Path, before: float) -> dict:
    """One plain repetition of the timed region, with the calibration task run
    between its stages. On a shared host the speed of a core changes within
    seconds (identical repetitions differ by 2x), so each stage is divided by
    the mean of the calibrations just before and just after it. ``wall`` is
    the time spent in the stages, ``ref`` the same work in units of the
    calibration task, and ``after`` the calibration that ends the repetition."""
    marks = []  # (stage end, next stage start, calibration between them)

    def pause() -> None:
        t = time.monotonic()
        c = calibrate(w.spawns)
        marks.append((t, time.monotonic(), c))

    start = time.monotonic()
    result = w.run(state, rep_dir, pause=pause)
    end = time.monotonic()
    after = calibrate(w.spawns)
    bounds = [start] + [t for m in marks for t in m[:2]] + [end]
    stages = [bounds[i + 1] - bounds[i] for i in range(0, len(bounds), 2)]
    calib = [before] + [m[2] for m in marks] + [after]
    return {"wall": sum(stages),
            "ref": sum(t / ((calib[i] + calib[i + 1]) / 2) for i, t in enumerate(stages)),
            "after": after, "result": result}


def _record_rss(report: dict) -> None:
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def main() -> int:
    workload, seed, shape, mode, out_dir, budget = sys.argv[1:7]
    from workloads import WORKLOADS  # imports sentipipe
    imported = time.monotonic()

    seed, out = int(seed), Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    make = WORKLOADS[workload]
    w = make(seed, shape, out)
    report: dict = {"imported": imported, "frames": w.frames, "stages": w.stages,
                    "env": _env(), "reps": []}

    if mode == "reference":
        report["reference"] = w.reference(out)
    elif mode == "traced":
        from tracing import Tracer
        tracer = Tracer(run_id=f"{workload}-seed{seed}-pid{os.getpid()}")
        rep_dir = out / "rep0"
        rep_dir.mkdir()
        with tracer.instrument():
            with tracer.span("bench.setup"):
                state = w.setup()
            report["setup_done"] = time.monotonic()
            with tracer.span("bench.timed") as timed:
                result = w.run(state, rep_dir, tracer)
        report["reps"].append({"seed": seed, "wall": timed.end - timed.start,
                               **w.finish(result, rep_dir)})
        tracer.write(str(out / "spans.jsonl"))
    else:
        before = None
        while len(report["reps"]) < MAX_REPS:
            if report["reps"]:
                w = make(seed + len(report["reps"]), shape, out)
            rep_dir = out / f"rep{len(report['reps'])}"
            rep_dir.mkdir()
            rep_start = time.monotonic()
            state = w.setup()
            if before is None:
                report["setup_done"] = time.monotonic()
                before = calibrate(w.spawns)
            rep = timed_rep(w, state, rep_dir, before)
            rep_s = time.monotonic() - rep_start
            before = rep["after"]
            report["reps"].append({"seed": w.seed, "wall": rep["wall"], "ref": rep["ref"],
                                   **w.finish(rep.pop("result"), rep_dir)})
            del rep, state  # free this rep's outputs before the next one
            shutil.rmtree(rep_dir)
            if len(report["reps"]) == 1:
                # peak memory of set-up plus one timed region
                _record_rss(report)
            # stop unless the next repetition would end nearer to the budget
            if time.monotonic() - report["setup_done"] + rep_s / 2 > float(budget):
                break
        if mode == "repeat":
            w = make(seed, shape, out)
            rep_dir = out / "repeat"
            rep_dir.mkdir()
            result = w.run(w.setup(), rep_dir)
            report["repeat"] = {"seed": seed, **w.finish(result, rep_dir)}

    if "maxrss_kb" not in report:
        _record_rss(report)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
