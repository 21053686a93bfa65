import json
import math
import subprocess
import sys

import pytest

from sentipipe.aggregate import read_curves_csv
from sentipipe.cli import main
from sentipipe.core import AdLabel, AdSpec, Interval
from sentipipe.ingest import Dataset, write_dataset
from sentipipe.metrics import read_kpi_report
from sentipipe.mlp import MlpParams, load_model, save_model
from sentipipe.weak_label import read_examples_jsonl

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
    svg_dir = root / "svg"
    code, summaries["predict"], err = run_cli(
        "predict", "--annotations", str(out / "test" / "annotations.json"),
        "--streams", str(out / "test" / "au_streams.csv"),
        "--model", str(model), "--out", str(curves), "--svg-dir", str(svg_dir))
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
            "table": table, "svg_dir": svg_dir, "export_dir": export_dir,
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

    def test_predict_outputs(self, chain):
        curves = read_curves_csv(chain["curves"])
        assert {c.ad_id for c in curves} == {
            "test_sent_01", "test_sent_02",
            "test_nonsent_01", "test_nonsent_02"}
        assert all(c.n_bins == 40 for c in curves)  # 20 s at 0.5 s bins
        s = chain["summaries"]["predict"]
        assert s["ads"] == 4
        assert s["ads_without_videos"] == []
        svgs = sorted(p.name for p in chain["svg_dir"].iterdir())
        assert svgs == ["test_nonsent_01.svg", "test_nonsent_02.svg",
                        "test_sent_01.svg", "test_sent_02.svg"]

    def test_evaluate_outputs(self, chain):
        payload = read_kpi_report(chain["report"])
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
        assert len(rendered) == 4
        assert all(name.endswith(".svg") for name in rendered)
        assert chain["summaries"]["export"]["svgs"] == 4

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


class TestExitCodes:
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
        assert key in capsys.readouterr().err

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
            "ad_id,timestamp_s,mean_score,participant_count\n"
            "ghost,0.0,0.5,1\n")
        ann = tmp_path / "annotations.json"
        ann.write_text("[]")
        code = main(["export-curves", "--curves", str(curves),
                     "--annotations", str(ann),
                     "--out-dir", str(tmp_path / "svg")])
        assert code == 4
        assert "ghost" in capsys.readouterr().err

    def test_export_curves_oversized_cell(self, tmp_path, capsys):
        # the csv module refuses fields over its 128 KiB limit
        curves = tmp_path / "curves.csv"
        curves.write_text(
            "ad_id,timestamp_s,mean_score,participant_count\n"
            + "a" * 200_000 + ",0.0,0.5,1\n")
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
        assert "interpolated_bin_frac" not in read_kpi_report(tmp_path / "r.json")["metadata"]
