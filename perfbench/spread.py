"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread ((q3 - q1) / median), next to its bound.

    python3 perfbench/spread.py --workloads experiment cli_chain score_panel \
        --seeds 10 [--first-seed 0] [--out perfbench/baseline.json]

Run from the repository root. Quartiles are ``statistics.quantiles(values,
n=4)``. Seeds run one after another, each a full run.py invocation with
BENCHMARK.json's run_seconds. A spread above a third of its bound is flagged
(setup_s only needs its median to hold, so it is never flagged).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRINTED_ONLY = ("wall_s", "frames_per_s")


def run_once(bench: dict, workload: str, seed: int) -> tuple[dict, float]:
    """One run.py invocation; returns {metric: value} and the run's elapsed
    seconds. Besides the result's metrics, it keeps the raw wall_s and
    frames_per_s that run.py prints."""
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        name, _, rest = line.partition(": ")
        if name in PRINTED_ONLY:
            values[name] = float(rest.split()[0])
        elif name == "env":
            values["env"] = json.loads(rest)
    return values, elapsed


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bounds.update((name, None) for name in PRINTED_ONLY)

    summary: dict = {"about": "one run.py run per seed, one seed after another; "
                              "quartiles from statistics.quantiles(n=4), spread = "
                              "(q3 - q1) / median; written by perfbench/spread.py",
                     "run_seconds": bench["run_seconds"],
                     "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
                     "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        elapsed = []
        for seed in summary["seeds"]:
            result, took = run_once(bench, workload, seed)
            summary.setdefault("env", {k: v for k, v in result["env"].items()
                                       if k not in ("workload", "seed", "trace",
                                                    "sentipipe_file")})
            elapsed.append(took)
            for name in bounds:
                values[name].append(result[name])
            print(f"{workload} seed {seed}: {took:.1f} s  " + "  ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        stats = {name: {**summarize(v), "bound": bounds[name], "values": v}
                 for name, v in values.items()}
        summary["workloads"][workload] = {"metrics": stats,
                                          "run_elapsed_s": summarize(elapsed)}
        for name, s in stats.items():
            flag = ""
            if s["bound"] is None:
                flag = "  (printed only, no bound)"
            elif name != "setup_s" and s["spread"] > s["bound"] / 3:
                flag = "  <-- above a third of the bound"
            print(f"{workload:<12} {name:<13} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']}){flag}", flush=True)
        print(f"{workload:<12} run elapsed median {summary['workloads'][workload]['run_elapsed_s']['median']:.1f} s",
              flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
