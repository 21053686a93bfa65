import dataclasses
import gc
import inspect
import json
import math
import re
import shutil
import subprocess
import sys

import pytest

from sentipipe import cli, errors
from sentipipe.aggregate import export_curve_svg, read_curves_csv
from sentipipe.cli import main
from sentipipe.core import AdLabel, AdSpec, Interval, read_json
from sentipipe.ingest import SIDECAR_SUFFIX, Dataset, load_dataset, write_dataset
from sentipipe.mlp import MlpParams, TrainConfig, load_model, save_model
from sentipipe.pipeline import predict_curves
from sentipipe.synth import SynthConfig
from sentipipe.weak_label import LabelingConfig, read_examples_jsonl

from conftest import make_video

TINY = {
    "n_train_sent_ads": 1,
    "n_test_sent_ads": 2,
    "n_test_nonsent_ads": 2,
    "participants_per_ad": 4,
    "ad_duration_s": 20.0,
    "fps": 5.0,
    "rng_seed": 7,
}


def run_cli(*argv):
    """Run the installed CLI in a subprocess; returns (exit code, summary)."""
    proc = subprocess.run(
        [sys.executable, "-m", "sentipipe", *argv],
        capture_output=True, text=True)
    summary = None
    if proc.stdout.strip():
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, summary, proc.stderr


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One full simulate -> label -> train -> predict -> evaluate run."""
    root = tmp_path_factory.mktemp("chain")
    config = root / "synth.json"
    config.write_text(json.dumps(TINY))
    out = root / "data"
    summaries = {}

    code, summaries["simulate"], err = run_cli(
        "simulate", "--out", str(out), "--config", str(config))
    assert code == 0, err

    examples = root / "examples.jsonl"
    code, summaries["label"], err = run_cli(
        "label", "--annotations", str(out / "train" / "annotations.json"),
        "--streams", str(out / "train" / "au_streams.csv"),
        "--out", str(examples))
    assert code == 0, err

    model = root / "model.json"
    losses = root / "loss.csv"
    code, summaries["train"], err = run_cli(
        "train", "--examples", str(examples), "--model-out", str(model),
        "--loss-out", str(losses), "--epochs", "40", "--seed", "0")
    assert code == 0, err

    curves = root / "curves.csv"
    code, summaries["predict"], err = run_cli(
        "predict", "--annotations", str(out / "test" / "annotations.json"),
        "--streams", str(out / "test" / "au_streams.csv"),
        "--model", str(model), "--out", str(curves))
    assert code == 0, err

    report = root / "report.json"
    table = root / "table.csv"
    code, summaries["evaluate"], err = run_cli(
        "evaluate", "--annotations", str(out / "test" / "annotations.json"),
        "--streams", str(out / "test" / "au_streams.csv"),
        "--model", str(model), "--report-out", str(report),
        "--table-out", str(table))
    assert code == 0, err

    export_dir = root / "rendered"
    code, summaries["export"], err = run_cli(
        "export-curves", "--curves", str(curves),
        "--annotations", str(out / "test" / "annotations.json"),
        "--out-dir", str(export_dir))
    assert code == 0, err

    return {"root": root, "out": out, "examples": examples, "model": model,
            "losses": losses, "curves": curves, "report": report,
            "table": table, "export_dir": export_dir,
            "summaries": summaries}


class TestChain:
    def test_simulate_layout_and_summary(self, chain):
        out = chain["out"]
        for split in ("train", "test"):
            assert (out / split / "annotations.json").is_file()
            assert (out / split / "au_streams.csv").is_file()
        s = chain["summaries"]["simulate"]
        assert s["command"] == "simulate"
        assert s["train_ads"] == 1 and s["test_ads"] == 4
        assert s["train_videos"] == 4 and s["test_videos"] == 16
        assert s["seed"] == 7 and s["null"] is False

    def test_label_outputs(self, chain):
        examples = read_examples_jsonl(chain["examples"])
        s = chain["summaries"]["label"]
        assert s["examples"] == len(examples) > 0
        assert s["positives"] + s["negatives"] == s["examples"]
        assert s["positives"] > 0
        labels = {ex.label for ex in examples}
        assert labels == {0, 1}

    def test_train_outputs(self, chain):
        params = load_model(chain["model"])  # format and shapes validated here
        assert params.w1.shape == (8, 20)
        lines = chain["losses"].read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 41
        s = chain["summaries"]["train"]
        assert s["epochs"] == 40
        assert s["final_loss"] == float(lines[-1].split(",")[1])

    def test_summaries_report_time_and_steps(self, chain):
        summaries = chain["summaries"]
        for s in summaries.values():
            assert isinstance(s["elapsed_s"], float) and s["elapsed_s"] > 0
        label = summaries["label"]
        rows = 2 * max(label["positives"], label["negatives"])  # oversampled
        assert summaries["train"]["adam_steps"] == math.ceil(rows / 64) * 40
        stages = summaries["train"]["stages"]
        assert list(stages) == ["read", "train", "write"]
        assert all(isinstance(s, float) and s >= 0.0 for s in stages.values())
        assert sum(stages.values()) <= summaries["train"]["elapsed_s"]

    def test_predict_outputs(self, chain):
        curves = read_curves_csv(chain["curves"])
        assert {c.ad_id for c in curves} == {
            "test_sent_01", "test_sent_02",
            "test_nonsent_01", "test_nonsent_02"}
        assert all(c.n_bins == 40 for c in curves)  # 20 s at 0.5 s bins
        s = chain["summaries"]["predict"]
        assert s["ads"] == 4
        assert s["ads_without_videos"] == []

    def test_evaluate_outputs(self, chain):
        payload = read_json(chain["report"])
        s = chain["summaries"]["evaluate"]
        assert payload["roc_ad"] == s["roc_ad"]
        assert payload["roc_sent"] == s["roc_sent"]
        assert 0.0 <= payload["roc_ad"] <= 1.0
        assert 0.0 <= payload["roc_sent"] <= 1.0
        assert payload["avg"] == (payload["roc_ad"] + payload["roc_sent"]) / 2
        assert len(payload["per_ad"]) == 4
        meta = payload["metadata"]
        assert meta["step_s"] == 0.5
        assert meta["guard_s"] == 0.0
        table_rows = chain["table"].read_text().splitlines()
        assert len(table_rows) == 4
        header = table_rows[0].split(",")
        assert header[0] == "metric" and header[1] == "chance"
        assert header[-1] == "model" and len(header) == 23
        chance_roc_ad = float(table_rows[1].split(",")[1])
        assert chance_roc_ad == 0.5

    def test_export_curves(self, chain):
        rendered = sorted(p.name for p in chain["export_dir"].iterdir())
        assert rendered == ["test_nonsent_01.svg", "test_nonsent_02.svg",
                            "test_sent_01.svg", "test_sent_02.svg"]
        assert chain["summaries"]["export"]["svgs"] == 4

    @pytest.mark.parametrize("step_s", [0.5, 0.3, 1.0, 20.0])
    def test_export_curves_draws_the_predicted_curves(self, chain, tmp_path, capsys, step_s):
        # predict's CSV carries each curve's step, so export-curves draws the
        # curves predict_curves gives in memory; at 20 s each ad has one bin
        test = chain["out"] / "test"
        ann, streams = test / "annotations.json", test / "au_streams.csv"
        curves, drawn, expected = tmp_path / "c.csv", tmp_path / "drawn", tmp_path / "expected"
        assert main(["predict", "--annotations", str(ann), "--streams", str(streams),
                     "--model", str(chain["model"]), "--out", str(curves),
                     "--step-s", str(step_s)]) == 0
        assert main(["export-curves", "--curves", str(curves), "--annotations", str(ann),
                     "--out-dir", str(drawn)]) == 0
        capsys.readouterr()
        dataset, _ = load_dataset(ann, streams)
        expected.mkdir()
        for curve in predict_curves(load_model(chain["model"]), dataset, step_s):
            export_curve_svg(curve, expected / f"{curve.ad_id}.svg",
                             moments=dataset.ads[curve.ad_id].moments)
        assert sorted(p.name for p in drawn.iterdir()) == sorted(
            p.name for p in expected.iterdir())
        for svg in expected.iterdir():
            assert (drawn / svg.name).read_bytes() == svg.read_bytes(), svg.name

    def test_stdout_is_one_json_line(self, chain, capsys):
        code = main(["simulate", "--out", str(chain["root"] / "again"),
                     "--config", str(chain["root"] / "synth.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1
        json.loads(out)

    def test_simulate_rerun_is_byte_identical(self, chain):
        first = chain["out"] / "train" / "au_streams.csv"
        again = chain["root"] / "again" / "train" / "au_streams.csv"
        if not again.exists():  # run here if stdout test has not run yet
            main(["simulate", "--out", str(chain["root"] / "again"),
                  "--config", str(chain["root"] / "synth.json")])
        assert first.read_bytes() == again.read_bytes()
        assert (chain["out"] / "train" / "annotations.json").read_bytes() == \
            (chain["root"] / "again" / "train" / "annotations.json").read_bytes()


    def test_sidecars_change_no_output(self, chain, tmp_path, capsys):
        # simulate leaves a sidecar next to each stream and the readers make no
        # file there; with the sidecars deleted, so that label, predict and
        # evaluate parse the CSVs, the chain writes the same bytes
        out = chain["out"]
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*.*")) == [
            f"{split}/{name}" for split in ("test", "train")
            for name in ("annotations.json", "au_streams.csv", "au_streams.csv" + SIDECAR_SUFFIX)]
        data = tmp_path / "data"
        shutil.copytree(out, data)
        for sidecar in data.rglob("*" + SIDECAR_SUFFIX):
            sidecar.unlink()
        test = ["--annotations", str(data / "test" / "annotations.json"),
                "--streams", str(data / "test" / "au_streams.csv"), "--model", str(tmp_path / "model.json")]
        for argv in (
                ["label", "--annotations", str(data / "train" / "annotations.json"),
                 "--streams", str(data / "train" / "au_streams.csv"),
                 "--out", str(tmp_path / "examples.jsonl")],
                ["train", "--examples", str(tmp_path / "examples.jsonl"), "--model-out",
                 str(tmp_path / "model.json"), "--loss-out", str(tmp_path / "loss.csv"),
                 "--epochs", "40", "--seed", "0"],
                ["predict", *test, "--out", str(tmp_path / "curves.csv")],
                ["evaluate", *test, "--report-out", str(tmp_path / "report.json"),
                 "--table-out", str(tmp_path / "table.csv")]):
            assert main(argv) == 0
        capsys.readouterr()
        for name in ("examples", "model", "losses", "curves", "report", "table"):
            assert chain[name].read_bytes() == (tmp_path / chain[name].name).read_bytes(), name
        assert not list(data.rglob("*" + SIDECAR_SUFFIX))


# the exit code of each error class in errors.py, and of OSError; SentiPipeError
# itself is only a base and never raised
EXIT_CODE_OF = {errors.ConfigError: 2, OSError: 3, errors.SchemaError: 4,
                errors.ValidationError: 4, errors.DegenerateData: 5}
ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if cls.__module__ == errors.__name__ and cls is not errors.SentiPipeError]


class TestExitCodes:
    @pytest.mark.parametrize("kind", [*ERROR_CLASSES, OSError], ids=lambda kind: kind.__name__)
    def test_each_error_class_exits_with_its_code(self, kind, monkeypatch, tmp_path, capsys):
        def fail(args):
            raise kind(f"{kind.__name__} raised on purpose")
        monkeypatch.setattr(cli, "cmd_simulate", fail)
        assert main(["simulate", "--out", str(tmp_path)]) == EXIT_CODE_OF[kind]
        captured = capsys.readouterr()
        assert captured.err == f"error: {kind.__name__} raised on purpose\n"
        assert captured.out == ""

    def test_every_error_class_has_an_exit_code(self):
        # every subclass anywhere, so that none can end the CLI in a traceback
        subclasses, todo = [], [errors.SentiPipeError]
        while todo:
            found = todo.pop().__subclasses__()
            subclasses += found
            todo += found
        assert set(ERROR_CLASSES) <= set(subclasses)
        for cls in subclasses:
            assert cls.exit_code in {2, 4, 5}, cls

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path / "x"),
                     "--config", str(tmp_path / "absent.json")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text('{"volume": 11}')
        code = main(["simulate", "--out", str(tmp_path / "x"),
                     "--config", str(config)])
        assert code == 2
        assert "volume" in capsys.readouterr().err

    def test_config_integer_past_the_digit_limit(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_text('{"rng_seed": ' + "9" * 5000 + "}")
        code = main(["simulate", "--out", str(tmp_path / "x"), "--config", str(config)])
        assert code == 2
        assert str(config) in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("train", "oversample_positives", "false"),
        ("label", "include_nonsentimental_ads", "no"),
        ("train", "epochs", 2.9),
        ("train", "epochs", True),
        ("train", "learning_rate", True),
        ("simulate", "rng_seed", "3"),
        ("simulate", "moments_per_ad", [1.7, 2.2]),
        ("simulate", "ad_duration_s", 10 ** 400),
    ])
    def test_config_values_are_not_coerced(self, tmp_path, capsys,
                                           command, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        inputs = {
            "simulate": ["--out", str(tmp_path / "x")],
            "label": ["--annotations", str(tmp_path / "a.json"),
                      "--streams", str(tmp_path / "s.csv"),
                      "--out", str(tmp_path / "ex.jsonl")],
            "train": ["--examples", str(tmp_path / "ex.jsonl"),
                      "--model-out", str(tmp_path / "m.json")],
        }[command]
        code = main([command, *inputs, "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and str(config) in err

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan])
    def test_non_finite_adam_epsilon_exits_2(self, chain, tmp_path, capsys, epsilon):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"adam_epsilon": epsilon}))
        model = tmp_path / "m.json"
        code = main(["train", "--examples", str(chain["examples"]),
                     "--model-out", str(model), "--config", str(config)])
        assert code == 2
        assert "adam_epsilon" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("command", ["simulate", "train"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        inputs = {
            "simulate": ["--out", str(tmp_path / "x")],
            "train": ["--examples", str(tmp_path / "ex.jsonl"),
                      "--model-out", str(tmp_path / "m.json")],
        }[command]
        code = main([command, *inputs, "--seed", "-1"])
        assert code == 2
        assert "rng_seed" in capsys.readouterr().err

    def test_bad_flag_names_only_the_field(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps(TINY))
        code = main(["simulate", "--out", str(tmp_path / "x"), "--config", str(config),
                     "--seed", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "rng_seed" in err and str(config) not in err

    def test_config_file_is_checked_before_flags(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({**TINY, "rng_seed": -1}))
        code = main(["simulate", "--out", str(tmp_path / "x"), "--config", str(config),
                     "--seed", "3"])
        assert code == 2
        assert str(config) in capsys.readouterr().err

    def test_label_missing_streams(self, tmp_path, capsys):
        ann = tmp_path / "annotations.json"
        ann.write_text("[]")
        code = main(["label", "--annotations", str(ann),
                     "--streams", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "ex.jsonl")])
        assert code == 3

    def test_label_malformed_annotations(self, tmp_path, capsys):
        ann = tmp_path / "annotations.json"
        ann.write_text("{broken")
        streams = tmp_path / "s.csv"
        streams.write_text("")
        code = main(["label", "--annotations", str(ann),
                     "--streams", str(streams),
                     "--out", str(tmp_path / "ex.jsonl")])
        assert code == 4

    @pytest.mark.parametrize("label", [[], {}])
    def test_label_annotation_label_not_a_string(self, tmp_path, capsys, label):
        ann = tmp_path / "annotations.json"
        ann.write_text(json.dumps([{"ad_id": "ad_x", "label": label,
                                    "duration_s": 10.0, "moments": []}]))
        streams = tmp_path / "s.csv"
        streams.write_text("")
        code = main(["label", "--annotations", str(ann),
                     "--streams", str(streams),
                     "--out", str(tmp_path / "ex.jsonl")])
        assert code == 4
        err = capsys.readouterr().err
        assert str(ann) in err and "ad_x" in err

    @pytest.mark.parametrize("command, flag, value", [
        ("predict", "--step-s", "0"),
        ("predict", "--step-s", "-1"),
        ("evaluate", "--step-s", "nan"),
        ("label", "--min-coverage", "1.5"),
        ("predict", "--min-coverage", "-0.5"),
    ])
    def test_out_of_range_flags_exit_2(self, chain, tmp_path, capsys,
                                       command, flag, value):
        split = chain["out"] / ("train" if command == "label" else "test")
        inputs = ["--annotations", str(split / "annotations.json"),
                  "--streams", str(split / "au_streams.csv")]
        inputs += {
            "label": ["--out", str(tmp_path / "ex.jsonl")],
            "predict": ["--model", str(chain["model"]),
                        "--out", str(tmp_path / "c.csv")],
            "evaluate": ["--model", str(chain["model"]),
                         "--report-out", str(tmp_path / "r.json")],
        }[command]
        code = main([command, *inputs, flag, value])
        assert code == 2
        assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["predict step", "evaluate step", "annotations duration",
                                      "simulate duration"])
    def test_count_beyond_an_array_exits_2(self, chain, tmp_path, capsys, case):
        # predict bins an annotated duration at its --step-s flag, so a larger
        # step mends the count: a flag error, also where the duration is huge
        test = chain["out"] / "test"
        annotations = test / "annotations.json"
        if case == "annotations duration":
            ads = json.loads(annotations.read_text())
            ads[0]["duration_s"] = 1e308
            annotations = tmp_path / "annotations.json"
            annotations.write_text(json.dumps(ads))
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({**TINY, "ad_duration_s": 1e308}))
        inputs = ["--annotations", str(annotations), "--streams", str(test / "au_streams.csv"),
                  "--model", str(chain["model"])]
        argv = {
            "predict step": ["predict", *inputs, "--out", str(tmp_path / "c.csv"),
                             "--step-s", "1e-300"],
            "evaluate step": ["evaluate", *inputs, "--report-out", str(tmp_path / "r.json"),
                              "--step-s", "1e-300"],
            "annotations duration": ["predict", *inputs, "--out", str(tmp_path / "c.csv")],
            "simulate duration": ["simulate", "--out", str(tmp_path / "x"),
                                  "--config", str(config)],
        }[case]
        assert main(argv) == 2
        assert "array can hold" in capsys.readouterr().err

    def test_curves_step_beyond_an_array_exits_4(self, chain, tmp_path, capsys):
        # export-curves reads each curve's step from the curves file: no flag sets it
        curves = tmp_path / "curves.csv"
        curves.write_text("ad_id,step_s,timestamp_s,mean_score,participant_count\n"
                          "test_sent_01,1e-300,0.0,0.5,1\n")
        code = main(["export-curves", "--curves", str(curves), "--annotations",
                     str(chain["out"] / "test" / "annotations.json"),
                     "--out-dir", str(tmp_path / "svg")])
        assert code == 4
        err = capsys.readouterr().err
        assert f"{curves}: ad 'test_sent_01': duration_s" in err and "array can hold" in err
        assert not (tmp_path / "svg").exists()

    def test_label_bad_threshold(self, tmp_path, capsys):
        ann = tmp_path / "annotations.json"
        ann.write_text("[]")
        streams = tmp_path / "s.csv"
        streams.write_text("")
        code = main(["label", "--annotations", str(ann),
                     "--streams", str(streams),
                     "--out", str(tmp_path / "ex.jsonl"),
                     "--threshold", "1.5"])
        assert code == 2

    def test_train_single_class_examples(self, tmp_path, capsys):
        examples = tmp_path / "ex.jsonl"
        rows = [json.dumps({"video_id": "v", "frame_index": i, "label": 0,
                            "aus": [0.1] * 20}) for i in range(8)]
        examples.write_text("\n".join(rows) + "\n")
        code = main(["train", "--examples", str(examples),
                     "--model-out", str(tmp_path / "m.json"),
                     "--epochs", "2"])
        assert code == 5
        assert "positives" in capsys.readouterr().err

    def test_train_missing_examples_file(self, tmp_path, capsys):
        code = main(["train", "--examples", str(tmp_path / "absent.jsonl"),
                     "--model-out", str(tmp_path / "m.json")])
        assert code == 3

    def test_export_curves_unknown_ad(self, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        curves.write_text(
            "ad_id,step_s,timestamp_s,mean_score,participant_count\n"
            "ghost,0.5,0.0,0.5,1\n")
        ann = tmp_path / "annotations.json"
        ann.write_text("[]")
        code = main(["export-curves", "--curves", str(curves),
                     "--annotations", str(ann),
                     "--out-dir", str(tmp_path / "svg")])
        assert code == 4
        assert "ghost" in capsys.readouterr().err

    def test_export_curves_later_unknown_ad_writes_nothing(self, tmp_path, capsys):
        # ad "a" is known and comes first; "ghost" must still stop the command
        # before any SVG is written
        curves = tmp_path / "curves.csv"
        curves.write_text(
            "ad_id,step_s,timestamp_s,mean_score,participant_count\n"
            "a,1.0,0.0,0.5,1\n"
            "ghost,1.0,0.0,0.5,1\n")
        ann = tmp_path / "annotations.json"
        ann.write_text(json.dumps([{"ad_id": "a", "label": "non_sentimental",
                                    "duration_s": 1.0, "moments": []}]))
        svg = tmp_path / "svg"
        code = main(["export-curves", "--curves", str(curves),
                     "--annotations", str(ann), "--out-dir", str(svg)])
        assert code == 4
        assert "unknown ad 'ghost'" in capsys.readouterr().err
        assert not svg.exists()

    def test_export_curves_oversized_cell(self, tmp_path, capsys):
        # the csv module refuses fields over its 128 KiB limit
        curves = tmp_path / "curves.csv"
        curves.write_text(
            "ad_id,step_s,timestamp_s,mean_score,participant_count\n"
            + "a" * 200_000 + ",0.5,0.0,0.5,1\n")
        ann = tmp_path / "annotations.json"
        ann.write_text("[]")
        code = main(["export-curves", "--curves", str(curves),
                     "--annotations", str(ann),
                     "--out-dir", str(tmp_path / "svg")])
        assert code == 4
        assert f"{curves}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_input, code", [
        ("streams", 4), ("annotations", 4), ("examples", 4), ("curves", 4),
        ("model", 4), ("config", 2),
    ])
    def test_input_that_is_not_utf8(self, chain, tmp_path, capsys, bad_input, code):
        train, test = chain["out"] / "train", chain["out"] / "test"
        config = tmp_path / "synth.json"
        config.write_text(json.dumps(TINY, indent=1))
        paths = {"streams": train / "au_streams.csv",
                 "annotations": train / "annotations.json",
                 "examples": chain["examples"], "curves": chain["curves"],
                 "model": chain["model"], "config": config}
        # the same file with one 0xff byte at the start of its second line
        bad = tmp_path / ("bad-" + paths[bad_input].name)
        head, rest = paths[bad_input].read_bytes().split(b"\n", 1)
        bad.write_bytes(head + b"\n\xff" + rest)
        paths[bad_input] = bad
        argv = {
            "streams": ["label", "--annotations", paths["annotations"],
                        "--streams", paths["streams"], "--out", tmp_path / "ex.jsonl"],
            "annotations": ["label", "--annotations", paths["annotations"],
                            "--streams", paths["streams"], "--out", tmp_path / "ex.jsonl"],
            "examples": ["train", "--examples", paths["examples"],
                         "--model-out", tmp_path / "m.json", "--epochs", "1"],
            "curves": ["export-curves", "--curves", paths["curves"],
                       "--annotations", test / "annotations.json",
                       "--out-dir", tmp_path / "svg"],
            "model": ["predict", "--annotations", test / "annotations.json",
                      "--streams", test / "au_streams.csv", "--model", paths["model"],
                      "--out", tmp_path / "c.csv"],
            "config": ["simulate", "--out", tmp_path / "x", "--config", paths["config"]],
        }[bad_input]
        assert main([str(arg) for arg in argv]) == code
        err = capsys.readouterr().err
        assert f"error: {bad}:2: not UTF-8 text" in err and "Traceback" not in err

    @pytest.mark.parametrize("bad_input", ["annotations", "examples", "model"])
    def test_input_with_an_integer_past_the_digit_limit(self, chain, tmp_path, capsys, bad_input):
        test = chain["out"] / "test"
        paths = {"annotations": test / "annotations.json", "examples": chain["examples"],
                 "model": chain["model"]}
        # the same file with the first number after this key made 5000 digits long
        key = {"annotations": "duration_s", "examples": "frame_index", "model": "b2"}[bad_input]
        bad = tmp_path / ("bad-" + paths[bad_input].name)
        bad.write_text(re.sub(rf'("{key}": \[?\s*)[-0-9.e]+', lambda m: m[1] + "9" * 5000,
                              paths[bad_input].read_text(), count=1))
        argv = {
            "annotations": ["export-curves", "--curves", chain["curves"], "--annotations", bad,
                            "--out-dir", tmp_path / "svg"],
            "examples": ["train", "--examples", bad, "--model-out", tmp_path / "m.json",
                         "--epochs", "1"],
            "model": ["predict", "--annotations", test / "annotations.json",
                      "--streams", test / "au_streams.csv", "--model", bad,
                      "--out", tmp_path / "c.csv"],
        }[bad_input]
        assert main([str(arg) for arg in argv]) == 4
        err = capsys.readouterr().err
        assert f"error: {bad}" in err and "not valid JSON" in err and "Traceback" not in err

    def test_ad_ids_sharing_an_svg_name_exit_4(self, tmp_path, capsys):
        # "ad 1" and "ad_1" both map to ad_1.svg
        ads = {ad_id: AdSpec(ad_id, AdLabel.NON_SENTIMENTAL, 1.0) for ad_id in ("ad 1", "ad_1")}
        videos = [make_video(f"v{i}", ad_id, [(t, True, [0.3] * 20) for t in (0.0, 0.5)])
                  for i, ad_id in enumerate(ads)]
        ann, streams = tmp_path / "annotations.json", tmp_path / "au_streams.csv"
        write_dataset(Dataset(ads=ads, videos=tuple(videos)), ann, streams)
        model, curves, svg = tmp_path / "model.json", tmp_path / "curves.csv", tmp_path / "svg"
        save_model(MlpParams.zeros(), model)
        assert main(["predict", "--annotations", str(ann), "--streams", str(streams),
                     "--model", str(model), "--out", str(curves)]) == 0
        argv = ["export-curves", "--curves", str(curves), "--annotations", str(ann),
                "--out-dir", str(svg)]
        written = set(tmp_path.iterdir())
        capsys.readouterr()
        assert main(argv) == 4
        assert "ad ids 'ad 1' and 'ad_1' both map to the SVG file ad_1.svg" in \
            capsys.readouterr().err
        assert set(tmp_path.iterdir()) == written

    def test_evaluate_single_class_test_set(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({**TINY, "n_test_nonsent_ads": 0}))
        out = tmp_path / "data"
        assert main(["simulate", "--out", str(out),
                     "--config", str(config)]) == 0
        examples = tmp_path / "ex.jsonl"
        assert main(["label",
                     "--annotations", str(out / "train" / "annotations.json"),
                     "--streams", str(out / "train" / "au_streams.csv"),
                     "--out", str(examples)]) == 0
        model = tmp_path / "m.json"
        assert main(["train", "--examples", str(examples),
                     "--model-out", str(model), "--epochs", "2"]) == 0
        capsys.readouterr()
        code = main(["evaluate",
                     "--annotations", str(out / "test" / "annotations.json"),
                     "--streams", str(out / "test" / "au_streams.csv"),
                     "--model", str(model),
                     "--report-out", str(tmp_path / "r.json")])
        assert code == 5
        assert "non-sentimental" in capsys.readouterr().err


class TestConfigFiles:
    @pytest.mark.parametrize("cls", [SynthConfig, LabelingConfig, TrainConfig])
    def test_every_field_can_be_set(self, tmp_path, cls):
        # the config classes check every field, so a new field needs no CLI edit
        defaults = {field.name: getattr(cls(), field.name) for field in dataclasses.fields(cls)}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: sorted(value) if isinstance(value, frozenset) else value
                                    for key, value in defaults.items()}))
        assert cli._config(cls, str(path)) == cls()

    @pytest.mark.parametrize("names, indices", [
        (["Smile", "AU6", "AU1"], [18, 4, 0]),
        (["smirk", "au2"], [19, 1]),  # not the default set
    ])
    def test_signal_aus_names_match_indices(self, tmp_path, names, indices):
        outputs = []
        for signal_aus in (names, indices):
            config = tmp_path / "synth.json"
            config.write_text(json.dumps({**TINY, "signal_aus": signal_aus}))
            out = tmp_path / str(len(outputs))
            assert main(["simulate", "--out", str(out), "--config", str(config)]) == 0
            outputs.append([(out / split / name).read_bytes() for split in ("train", "test")
                            for name in (cli.ANNOTATIONS_NAME, cli.STREAMS_NAME)])
        assert outputs[0] == outputs[1]


class TestNullFlag:
    def test_null_summary_records_flag(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps(TINY))
        code = main(["simulate", "--out", str(tmp_path / "x"),
                     "--config", str(config), "--null"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["null"] is True


class TestInterpolatedBins:
    def test_fraction_counts_the_empty_bins(self, tmp_path, capsys):
        # two 2 s ads at 0.5 s bins: 8 bins, of which only bin 2 of ad_s
        # (1.0-1.5 s) holds no frame
        ads = {
            "ad_s": AdSpec("ad_s", AdLabel.SENTIMENTAL, 2.0, (Interval(0.5, 1.0),)),
            "ad_n": AdSpec("ad_n", AdLabel.NON_SENTIMENTAL, 2.0),
        }
        videos = [
            make_video("v_s", "ad_s", [(t, True, [0.3] * 20) for t in (0.0, 0.5, 1.5)]),
            make_video("v_n", "ad_n", [(t, True, [0.3] * 20) for t in (0.0, 0.5, 1.0, 1.5)]),
        ]
        ann, streams = tmp_path / "annotations.json", tmp_path / "au_streams.csv"
        write_dataset(Dataset(ads=ads, videos=tuple(videos)), ann, streams)
        model = tmp_path / "model.json"
        save_model(MlpParams.zeros(), model)
        inputs = ["--annotations", str(ann), "--streams", str(streams),
                  "--model", str(model)]
        assert main(["predict", *inputs, "--out", str(tmp_path / "c.csv")]) == 0
        predicted = json.loads(capsys.readouterr().out)
        assert main(["evaluate", *inputs, "--report-out", str(tmp_path / "r.json")]) == 0
        evaluated = json.loads(capsys.readouterr().out)
        assert predicted["interpolated_bin_frac"] == 1 / 8
        assert evaluated["interpolated_bin_frac"] == 1 / 8
        counts = [c.counts.tolist() for c in read_curves_csv(tmp_path / "c.csv")]
        assert counts == [[1, 1, 0, 1], [1, 1, 1, 1]]
        assert "interpolated_bin_frac" not in read_json(tmp_path / "r.json")["metadata"]


class TestExportCurves:
    def test_single_bin_curve_keeps_its_step(self, tmp_path, capsys):
        # a 1 s ad at 1 s bins has one bin, whose timestamp 0.0 fits any step
        ads = {"ad": AdSpec("ad", AdLabel.SENTIMENTAL, 1.0, (Interval(0.0, 0.5),))}
        videos = [make_video("v", "ad", [(t, True, [0.3] * 20) for t in (0.0, 0.5)])]
        ann, streams = tmp_path / "annotations.json", tmp_path / "au_streams.csv"
        write_dataset(Dataset(ads=ads, videos=tuple(videos)), ann, streams)
        model, curves, svg = tmp_path / "model.json", tmp_path / "c.csv", tmp_path / "svg"
        save_model(MlpParams.zeros(), model)
        assert main(["predict", "--annotations", str(ann), "--streams", str(streams),
                     "--model", str(model), "--out", str(curves), "--step-s", "1.0"]) == 0
        assert main(["export-curves", "--curves", str(curves), "--annotations", str(ann),
                     "--out-dir", str(svg)]) == 0
        capsys.readouterr()
        [curve] = predict_curves(MlpParams.zeros(), load_dataset(ann, streams)[0], 1.0)
        expected = tmp_path / "expected.svg"
        export_curve_svg(curve, expected, moments=ads["ad"].moments)
        assert (svg / "ad.svg").read_bytes() == expected.read_bytes()
        assert "ad (0 to 1 s, step 1 s)</text>" in expected.read_text()

    def test_cut_file_exits_4_and_writes_nothing(self, chain, tmp_path, capsys):
        # a file cut at a line boundary reads back with a short last curve
        cut = tmp_path / "curves.csv"
        cut.write_text("".join(chain["curves"].read_text().splitlines(keepends=True)[:-4]))
        svg = tmp_path / "svg"
        assert main(["export-curves", "--curves", str(cut), "--annotations",
                     str(chain["out"] / "test" / "annotations.json"), "--out-dir", str(svg)]) == 4
        assert "has 36 bins, but 20 s at step 0.5 s takes 40\n" in capsys.readouterr().err
        assert not svg.exists()


class TestEntry:
    def test_freezes_the_heap_then_exits_with_mains_code(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 5)
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert calls == ["freeze", "main"]
        assert exc.value.code == 5

    def test_main_in_process_freezes_nothing(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps(TINY))
        before = gc.get_freeze_count()
        assert main(["simulate", "--out", str(tmp_path / "x"), "--config", str(config)]) == 0
        assert gc.get_freeze_count() == before
