#!/usr/bin/env python3
"""Run the simulate/label/train/evaluate chain over several seeds and
print per-seed and averaged KPIs next to the strongest per-AU baselines."""

import argparse
import json
import statistics
from dataclasses import replace
from pathlib import Path

from sentipipe.mlp import TrainConfig
from sentipipe.pipeline import run_baselines, run_stages
from sentipipe.synth import DEFAULT_SIGNAL_AUS, SynthConfig, generate, generate_null
from sentipipe.core import CANONICAL_AU_NAMES


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5, help="number of seeds, 0..n-1")
    parser.add_argument("--signal", type=float, default=None,
                        help="override signal_strength")
    parser.add_argument("--null", action="store_true",
                        help="use the no-signal control corpus")
    parser.add_argument("--out", type=Path, default=None,
                        help="optional path for a JSON summary")
    args = parser.parse_args()

    config = SynthConfig()
    if args.signal is not None:
        config = replace(config, signal_strength=args.signal)

    rows = []
    for seed in range(args.seeds):
        cfg = replace(config, rng_seed=seed)
        data = generate_null(cfg) if args.null else generate(cfg)
        result = run_stages(data, train_config=TrainConfig(rng_seed=seed))
        _, per_au = run_baselines(data.test)
        rows.append({
            "seed": seed,
            "roc_ad": result.report.roc_ad,
            "roc_sent": result.report.roc_sent,
            "final_loss": result.losses[-1],
            "baseline_roc_ad": [r.roc_ad for r in per_au],
            "baseline_roc_sent": [r.roc_sent for r in per_au],
        })
        print(f"seed {seed}: roc_ad={result.report.roc_ad:.4f} "
              f"roc_sent={result.report.roc_sent:.4f} "
              f"final_loss={result.losses[-1]:.4f}")

    mean_ad = statistics.fmean(r["roc_ad"] for r in rows)
    mean_sent = statistics.fmean(r["roc_sent"] for r in rows)
    print(f"\nmodel mean over {args.seeds} seeds: "
          f"roc_ad={mean_ad:.4f} roc_sent={mean_sent:.4f}")

    quiet = sorted(set(range(20)) - DEFAULT_SIGNAL_AUS)
    for metric in ("roc_ad", "roc_sent"):
        means = [statistics.fmean(r[f"baseline_{metric}"][k] for r in rows)
                 for k in range(20)]
        best_all = max(range(20), key=means.__getitem__)
        best_quiet = max(quiet, key=means.__getitem__)
        print(f"best single-AU {metric}: {CANONICAL_AU_NAMES[best_all]} "
              f"{means[best_all]:.4f} (excluding planted AUs: "
              f"{CANONICAL_AU_NAMES[best_quiet]} {means[best_quiet]:.4f})")

    if args.out is not None:
        args.out.write_text(json.dumps({
            "config": {"signal_strength": config.signal_strength,
                       "null": args.null, "seeds": args.seeds},
            "mean_roc_ad": mean_ad,
            "mean_roc_sent": mean_sent,
            "per_seed": rows,
        }, indent=2) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
