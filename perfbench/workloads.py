"""The benchmark's workloads: inputs made from a seed, a timed region, outputs.

Each workload is a closed loop in one process: every stage waits for the one
before it, and nothing runs in parallel. ``setup`` builds what the workload
needs before timing starts, ``run`` is the timed region, and ``finish`` writes
the outputs to files (outside the timed region, unless writing them is the
work being timed) and returns their digests plus the KPIs to check.

Only sentipipe's public API is used, so a traced run that wraps those
functions sees every call the timed region makes.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import sentipipe as sp
from tracing import read_spans

# Corpus shapes. "full" is what the benchmark measures; "tiny" has the size
# of the acceptance suite's fixed-seed chain (C8) and keeps the harness tested.
# One timed repetition takes a few seconds here, so a run holds about ten and
# reports their median. One moment per sentimental ad keeps the training work, which
# scales with the frames outside the moments, nearly the same for every seed;
# with the default 1-2 moments it differs by about a third between seeds.
_TINY = dict(n_train_sent_ads=1, n_test_sent_ads=2, n_test_nonsent_ads=2,
             participants_per_ad=4, ad_duration_s=20.0, fps=5.0)
SHAPES: dict[str, dict[str, dict]] = {
    "full": {
        "experiment": dict(synth=dict(participants_per_ad=4, moments_per_ad=(1, 1)),
                           epochs=100),
        "cli_chain": dict(synth=dict(participants_per_ad=2, moments_per_ad=(1, 1)),
                          epochs=10),
        "score_panel": dict(synth=dict(n_train_sent_ads=2, n_test_sent_ads=10,
                                       n_test_nonsent_ads=10, participants_per_ad=80,
                                       ad_duration_s=15.0),
                            epochs=5),
    },
    "tiny": {
        "experiment": dict(synth=_TINY, epochs=5),
        "cli_chain": dict(synth=_TINY, epochs=5),
        "score_panel": dict(synth=_TINY, epochs=5),
    },
}

ARTIFACTS = ("model.json", "curves.csv", "report.json", "table.csv")
CLI_TIMEOUT_S = 150


def digest_files(root: Path, names=None) -> dict[str, str]:
    """sha256 of each file under ``root`` (or of the given relative names)."""
    if names is None:
        names = sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())
    return {n: hashlib.sha256((root / n).read_bytes()).hexdigest() for n in names}


def _kpis(report) -> dict:
    return {"roc_ad": report.roc_ad, "roc_sent": report.roc_sent, "avg": report.avg}


def _write_artifacts(out: Path, params, curves, report, chance, per_au) -> None:
    sp.save_model(params, out / "model.json")
    sp.write_curves_csv(curves, out / "curves.csv")
    sp.write_kpi_report(report, out / "report.json")
    sp.write_kpi_table_csv(chance, per_au, report, out / "table.csv")


def _frames(config: sp.SynthConfig, splits: tuple[str, ...]) -> int:
    ads = {"train": config.n_train_sent_ads,
           "test": config.n_test_sent_ads + config.n_test_nonsent_ads}
    per_video = math.ceil(config.ad_duration_s * config.fps - 1e-9)
    return sum(ads[s] for s in splits) * config.participants_per_ad * per_video


def _no_pause() -> None:
    pass


@dataclass
class Workload:
    seed: int
    shape: str
    work_dir: Path

    def __post_init__(self) -> None:
        spec = SHAPES[self.shape][self.name]
        self.synth = sp.SynthConfig(rng_seed=self.seed, **spec["synth"])
        self.train_config = sp.TrainConfig(rng_seed=self.seed, epochs=spec["epochs"])

    name = ""
    # stage calls (or CLI commands) one timed region makes
    stages = 0
    # splits whose AU frames are the workload's input
    frame_splits = ("train", "test")
    # whether the timed region starts processes (see worker.calibrate)
    spawns = False

    @property
    def frames(self) -> int:
        return _frames(self.synth, self.frame_splits)

    def setup(self):
        return None

    def run(self, state, out: Path, tracer=None, pause=_no_pause):
        """The timed region. ``pause`` is called between its stages; the
        worker uses it to time the calibration task there."""
        raise NotImplementedError

    def finish(self, result, out: Path) -> dict:
        raise NotImplementedError


class Experiment(Workload):
    """One seed of the paper experiment in memory: generate, the chain, and
    the 21 baseline columns on the same test split."""

    name = "experiment"
    stages = 3

    def run(self, state, out, tracer=None, pause=_no_pause):
        data = sp.generate(self.synth)
        pause()
        chain = sp.run_stages(data, sp.LabelingConfig(), self.train_config)
        pause()
        chance, per_au = sp.run_baselines(data.test)
        return chain, chance, per_au

    def finish(self, result, out):
        chain, chance, per_au = result
        _write_artifacts(out, chain.params, chain.curves, chain.report, chance, per_au)
        return {"kpi": _kpis(chain.report), "chance": _kpis(chance),
                "digests": digest_files(out, ARTIFACTS)}


class ScorePanel(Workload):
    """The evaluation tail on many short videos per ad: curves, KPIs and
    baselines for a model trained during set-up."""

    name = "score_panel"
    stages = 3
    frame_splits = ("test",)

    def setup(self):
        data = sp.generate(self.synth)
        kept_train, _ = sp.filter_by_coverage(data.train.videos)
        examples = sp.extract_examples(kept_train, data.train.ads, sp.LabelingConfig())
        params, _ = sp.train(examples, self.train_config)
        kept_test, _ = sp.filter_by_coverage(data.test.videos)
        return params, sp.Dataset(ads=data.test.ads, videos=tuple(kept_test)), data.test

    def run(self, state, out, tracer=None, pause=_no_pause):
        params, test, raw_test = state
        curves = sp.predict_curves(params, test)
        pause()
        report = sp.evaluate_kpis(curves, test.ads)
        pause()
        chance, per_au = sp.run_baselines(raw_test)
        return params, curves, report, chance, per_au

    def finish(self, result, out):
        params, curves, report, chance, per_au = result
        _write_artifacts(out, params, curves, report, chance, per_au)
        return {"kpi": _kpis(report), "chance": _kpis(chance),
                "digests": digest_files(out, ARTIFACTS)}


class CliChain(Workload):
    """The README quick start: six CLI commands, each its own process, passing
    state through files."""

    name = "cli_chain"
    stages = 6
    spawns = True

    def commands(self) -> list[list[str]]:
        seed, test = str(self.seed), ("--annotations", "data/test/annotations.json",
                                      "--streams", "data/test/au_streams.csv")
        return [
            ["simulate", "--out", "data", "--seed", seed,
             "--config", str(self.work_dir / "synth.json")],
            ["label", "--annotations", "data/train/annotations.json",
             "--streams", "data/train/au_streams.csv", "--out", "examples.jsonl"],
            ["train", "--examples", "examples.jsonl", "--model-out", "model.json",
             "--seed", seed, "--epochs", str(self.train_config.epochs)],
            ["predict", *test, "--model", "model.json", "--out", "curves.csv"],
            ["evaluate", *test, "--model", "model.json", "--report-out", "report.json",
             "--table-out", "table.csv"],
            ["export-curves", "--curves", "curves.csv",
             "--annotations", "data/test/annotations.json", "--out-dir", "svg"],
        ]

    def setup(self):
        synth = {k: list(v) if isinstance(v, tuple) else v
                 for k, v in SHAPES[self.shape][self.name]["synth"].items()}
        (self.work_dir / "synth.json").write_text(json.dumps(synth))

    def run(self, state, out, tracer=None, pause=_no_pause):
        """Returns one (command, exit code, last stdout line) per command.
        Traced, each command runs under perfbench/traced_cli.py and its spans
        go under a span named after the command."""
        results = []
        for i, argv in enumerate(self.commands()):
            if i:
                pause()
            name = "cli." + argv[0].replace("-", "_")
            if tracer is None:
                results.append(_run_cli(argv, out, [sys.executable, "-m", "sentipipe"]))
                continue
            spans_path = out / f".spans-{argv[0]}.jsonl"
            runner = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                      str(spans_path)]
            with tracer.span(name) as s:
                results.append(_run_cli(argv, out, runner))
            if spans_path.exists():
                tracer.adopt(read_spans(str(spans_path)), s.id)
                spans_path.unlink()
        return results

    def finish(self, result, out):
        summary: dict = {"commands": [{"argv0": argv0, "returncode": rc, "json": line}
                                      for argv0, rc, line in result]}
        if all(rc == 0 and isinstance(line, dict) for _, rc, line in result):
            report = json.loads((out / "report.json").read_text())
            summary["kpi"] = {k: report[k] for k in ("roc_ad", "roc_sent", "avg")}
            rows = (out / "table.csv").read_text().splitlines()
            header = rows[0].split(",")
            col = header.index("chance")
            values = {r.split(",")[0]: float(r.split(",")[col]) for r in rows[1:]}
            summary["chance"] = {"roc_ad": values["ROC-Ad"], "roc_sent": values["ROC-Sent"],
                                 "avg": values["Avg"]}
        summary["digests"] = digest_files(out)
        return summary

    def reference(self, out: Path) -> dict:
        """The same chain in memory, for the check that the CLI's files equal it."""
        data = sp.generate(self.synth)
        chain = sp.run_stages(data, sp.LabelingConfig(), self.train_config)
        sp.save_model(chain.params, out / "model.json")
        sp.write_curves_csv(chain.curves, out / "curves.csv")
        return {"kpi": _kpis(chain.report),
                "digests": digest_files(out, ("model.json", "curves.csv"))}


def _run_cli(argv: list[str], cwd: Path, prefix: list[str]) -> tuple[str, int, object]:
    """Run one CLI command; its last stdout line must be a JSON object."""
    try:
        proc = subprocess.run([*prefix, *argv], cwd=cwd, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{argv[0]} did not finish within {CLI_TIMEOUT_S} s\n")
        return argv[0], None, None
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    if proc.returncode != 0:
        sys.stderr.write(f"{argv[0]} exited {proc.returncode}: {proc.stderr[-2000:]}\n")
    return argv[0], proc.returncode, last


WORKLOADS = {w.name: w for w in (Experiment, CliChain, ScorePanel)}
