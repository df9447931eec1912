"""Command-line entry point tests, run in-process through main(argv)."""

import argparse
import json

import pytest

from pumpwatch.cli import _build_parser, main
from pumpwatch.dataset import load_dataset


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pumps.jsonl"
    rc = main(["generate", "--out", str(path),
               "--n-samples-per-condition", "8", "--seed", "7"])
    assert rc == 0
    return path


def _run_args(dataset_file, outdir, command="run"):
    return [command,
            "--dataset", str(dataset_file),
            "--output-dir", str(outdir),
            "--feature-sets", "vib1d",
            "--detectors", "bm_iqr,bm_pca",
            "--max-epochs", "2"]


def test_generate_writes_loadable_dataset(dataset_file):
    ds = load_dataset(dataset_file)
    assert len(ds) == 40
    assert sum(s.is_anomaly for s in ds) == 20


def test_generate_flag_overrides_config_file(tmp_path, capsys):
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({"n_samples_per_condition": 2, "seed": 1}))
    out = tmp_path / "d.jsonl"
    rc = main(["generate", "--out", str(out), "--gen-config", str(gen_cfg),
               "--n-samples-per-condition", "3"])
    assert rc == 0
    assert "wrote 15 samples" in capsys.readouterr().out
    assert len(load_dataset(out)) == 15


def test_run_prints_tables_and_writes_report(dataset_file, tmp_path, capsys):
    rc = main(_run_args(dataset_file, tmp_path / "out"))
    assert rc == 0
    out = capsys.readouterr().out
    assert "== BM IQR ==" in out and "== BM PCA ==" in out
    assert (tmp_path / "out" / "report.json").is_file()


def test_train_then_evaluate_then_report(dataset_file, tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(_run_args(dataset_file, outdir, command="train")) == 0
    assert "artifacts" in capsys.readouterr().out
    assert not (outdir / "report.json").exists()

    assert main(_run_args(dataset_file, outdir, command="evaluate")) == 0
    eval_out = capsys.readouterr().out
    assert "== BM IQR ==" in eval_out

    assert main(["report", "--output-dir", str(outdir)]) == 0
    assert capsys.readouterr().out == eval_out


def test_report_via_explicit_path(dataset_file, tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(_run_args(dataset_file, outdir)) == 0
    run_out = capsys.readouterr().out
    assert main(["report", "--report", str(outdir / "report.json")]) == 0
    assert capsys.readouterr().out == run_out


def test_config_file_drives_run(dataset_file, tmp_path, capsys):
    cfg = {"dataset": {"load": str(dataset_file)},
           "feature_sets": ["vib1d"],
           "detectors": ["bm_iqr"],
           "output_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert "== BM IQR ==" in capsys.readouterr().out
    resolved = json.loads((tmp_path / "out" / "config_resolved.json").read_text())
    assert resolved["detectors"][0]["kind"] == "BM_IQR"


def test_unknown_detector_exits_2(dataset_file, tmp_path, capsys):
    args = _run_args(dataset_file, tmp_path / "out")
    args[args.index("bm_iqr,bm_pca")] = "svm"
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_dataset_file_exits_2(tmp_path, capsys):
    rc = main(["run", "--dataset", str(tmp_path / "nope.jsonl"),
               "--output-dir", str(tmp_path / "out"),
               "--feature-sets", "vib1d", "--detectors", "bm_iqr"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_split_exits_2(dataset_file, tmp_path, capsys):
    args = _run_args(dataset_file, tmp_path / "out") + ["--train-frac", "0.9"]
    assert main(args) == 2
    assert "sum to 1" in capsys.readouterr().err


def test_evaluate_before_train_exits_2(dataset_file, tmp_path, capsys):
    rc = main(_run_args(dataset_file, tmp_path / "fresh", command="evaluate"))
    assert rc == 2
    assert "normalizer" in capsys.readouterr().err


def test_report_without_source_exits_2(capsys):
    assert main(["report"]) == 2
    assert "error:" in capsys.readouterr().err


def _drop_k(path):
    doc = json.loads(path.read_text())
    del doc["k"]
    path.write_text(json.dumps(doc))


def _truncate(path):
    path.write_text(path.read_text()[:20])


@pytest.mark.parametrize("artifact, corrupt", [
    ("bm_pca_vib1d/pca.json", _drop_k),
    ("bm_iqr_vib1d/threshold.json", _truncate),
], ids=["pca-without-k", "truncated-threshold"])
def test_malformed_artifact_exits_2_naming_the_file(dataset_file, tmp_path, capsys,
                                                    artifact, corrupt):
    outdir = tmp_path / "out"
    assert main(_run_args(dataset_file, outdir, command="train")) == 0
    corrupt(outdir / "artifacts" / artifact)
    capsys.readouterr()
    assert main(_run_args(dataset_file, outdir, command="evaluate")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and artifact in err


def _bad_file(command, flag, text):
    def build(tmp_path):
        path = tmp_path / "input.json"
        path.write_text(text)
        out = ["--out", str(tmp_path / "d.jsonl")] if command == "generate" else []
        return [command, flag, str(path), *out]
    return build


_TRUNCATED = '{"train": {"max_epochs'
_ROW = {"detector": "DNN", "feature_set": "VIB1D",
        "metrics": {"precision": 1.0, "recall": 1.0, "f1": 1.0, "accuracy": 1.0,
                    "tp": 1, "fp": 0, "tn": 1, "fn": 0},
        "threshold": {"value": 1.0, "mean": 0.5, "std": 0.5, "calibration_count": 4}}


def _config(doc):
    return _bad_file("run", "--config", json.dumps(doc))


def _run_flags(*flags):
    def build(tmp_path):
        return ["run", "--dataset", str(tmp_path / "d.jsonl"),
                "--output-dir", str(tmp_path / "out"), *flags]
    return build


@pytest.mark.parametrize("build, needle", [
    (_bad_file("run", "--config", _TRUNCATED), "input.json"),
    (_bad_file("generate", "--gen-config", _TRUNCATED), "input.json"),
    (_bad_file("report", "--report", _TRUNCATED), "input.json"),
    (_bad_file("run", "--config", '{"train": {"bogus": 1}}'), "bogus"),
    (_bad_file("run", "--config", '{"split": {"bogus": 1}}'), "bogus"),
    (_bad_file("run", "--config", '{"dataset": {"generate": {"bogus": 1}}}'), "bogus"),
    (_bad_file("run", "--config",
               '{"detectors": [{"kind": "DNN", "train": {"bogus": 1}}]}'), "bogus"),
    (_bad_file("generate", "--gen-config", '{"bogus": 1}'), "bogus"),
    (_bad_file("report", "--report",
               json.dumps({"rows": [{**_ROW, "detector": "SVM"}]})), "input.json"),
    (_bad_file("report", "--report",
               json.dumps({"rows": [{"detector": "DNN"}]})), "input.json"),
    (_config({"detectors": [{"kind": "DNN", "N": 64, "bottleneck": 8}]}), "'N'"),
    (_config({"detectors": [{"kind": "bm_iqr", "n": 7}]}),
     "unknown keys ['n'] in detector BM_IQR; known keys are ['kind']"),
    (_config({"detectors": [{"kind": "lstm", "cnn_bottleneck": 8}]}),
     "unknown keys ['cnn_bottleneck'] in detector LSTM"),
    (_config({"detectors": [{"kind": "bm_pca", "train": {"max_epochs": 3}}]}),
     "unknown keys ['train'] in detector BM_PCA"),
    (_config({"detectors": [{"kind": "bm_pca", "train": {"bogus": 1}}]}),
     "unknown keys ['train'] in detector BM_PCA"),
    (_config({"detectors": [{"kind": "dnn", "cnn_bottleneck": 8}]}),
     "unknown keys ['cnn_bottleneck'] in detector DNN"),
    (_config({"detectors": [{"kind": "cnn", "n": 64}]}),
     "unknown keys ['n'] in detector CNN; known keys are ['cnn_bottleneck', 'kind', 'train']"),
    (_config({"dataset": {"generate": {}, "lod": "x.jsonl"}}), "lod"),
    (_config({"train": {"max_epochs": "5"}}), "max_epochs"),
    (_config({"train": {"batch_size": True}}), "batch_size"),
    (_config({"detectors": [{"kind": "DNN", "n": 64.7}]}), "n in detector DNN"),
    (_config({"detectors": [{"kind": "DNN", "n": "abc"}]}), "n in detector DNN"),
    (_config({"detectors": [{"kind": 5}]}), "kind"),
    (_config({"feature_sets": 5}), "feature_sets"),
    (_config({"detectors": "dnn"}), "detectors"),
    (_config({"dataset": [1]}), "dataset"),
    (_config({"split": {"seed": "x"}}), "split.seed"),
    (_bad_file("generate", "--gen-config", '{"n_samples_per_condition": 4.5}'),
     "n_samples_per_condition"),
    (_bad_file("report", "--report", json.dumps(
        {"rows": [{**_ROW, "metrics": {**_ROW["metrics"], "f1": "x"}}]})), "input.json"),
    (_run_flags("--detectors", "dnn,dnn"), "DNN is listed more than once"),
    (_run_flags("--detectors", "bm_iqr", "--learning-rate", "nan"), "learning_rate"),
], ids=["truncated-config", "truncated-gen-config", "truncated-report",
        "unknown-train-key", "unknown-split-key", "unknown-generate-key",
        "unknown-detector-train-key", "unknown-gen-config-key",
        "report-unknown-detector", "report-row-missing-key",
        "detector-key-typo", "iqr-reads-no-n", "lstm-reads-no-bottleneck",
        "pca-reads-no-train", "pca-refuses-train-before-reading-it",
        "dnn-reads-no-bottleneck", "cnn-reads-no-n",
        "dataset-key-typo", "string-max-epochs",
        "bool-batch-size", "fractional-n", "string-n", "integer-kind",
        "integer-feature-sets", "string-detectors", "list-dataset",
        "string-split-seed", "fractional-samples-per-condition",
        "report-string-f1", "repeated-detector-flag", "nan-learning-rate-flag"])
def test_bad_input_file_exits_2_naming_the_file_or_key(tmp_path, capsys, build, needle):
    assert main(build(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err


@pytest.mark.parametrize("command", ["run", "evaluate"])
@pytest.mark.parametrize("detector, needle", [
    ({"kind": "dnn", "n": 300}, "DNN n must be"),
    ({"kind": "lstm", "n": 8}, "LSTM n must be"),
    ({"kind": "cnn", "cnn_bottleneck": 0}, "cnn_bottleneck"),
    ({"kind": "bm_pca", "variance_target": 1.5}, "variance_target"),
], ids=["dnn-n", "lstm-n", "cnn-bottleneck", "pca-variance-target"])
def test_bad_detector_size_exits_2_before_writing(dataset_file, tmp_path, capsys,
                                                 command, detector, needle):
    outdir = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": {"load": str(dataset_file)},
                                    "feature_sets": ["vib1d", "audio"],
                                    "detectors": ["bm_iqr", detector],
                                    "output_dir": str(outdir)}))
    assert main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err
    assert not (outdir / "artifacts").exists()
    assert not list(tmp_path.glob("**/timeline_*.csv"))


def test_missing_config_file_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "nope.json"
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and "artifact" not in err


# Each subcommand's flags as (option strings, dest, type), written out so that
# renaming or reordering a config field cannot move a flag unnoticed.
_EXPERIMENT_FLAGS = [
    (["-h", "--help"], "help", None),
    (["--config"], "config", None),
    (["--dataset"], "dataset", None),
    (["--output-dir"], "output_dir", None),
    (["--feature-sets"], "feature_sets", None),
    (["--detectors"], "detectors", None),
    (["--split-seed"], "split_seed", int),
    (["--train-frac"], "train_frac", float),
    (["--threshold-frac"], "threshold_frac", float),
    (["--eval-frac"], "eval_frac", float),
    (["--learning-rate"], "learning_rate", float),
    (["--batch-size"], "batch_size", int),
    (["--max-epochs"], "max_epochs", int),
    (["--early-stop-patience"], "early_stop_patience", int),
    (["--train-seed"], "train_seed", int),
]
_FLAGS = {
    "generate": [
        (["-h", "--help"], "help", None),
        (["--out"], "out", None),
        (["--gen-config"], "gen_config", None),
        (["--n-samples-per-condition"], "n_samples_per_condition", int),
        (["--anomaly-fraction"], "anomaly_fraction", float),
        (["--base-amplitude"], "base_amplitude", float),
        (["--harmonic-count"], "harmonic_count", int),
        (["--noise-std"], "noise_std", float),
        (["--anomaly-harmonic-gain"], "anomaly_harmonic_gain", float),
        (["--anomaly-noise-gain"], "anomaly_noise_gain", float),
        (["--seed"], "seed", int),
    ],
    "run": _EXPERIMENT_FLAGS,
    "train": _EXPERIMENT_FLAGS,
    "evaluate": _EXPERIMENT_FLAGS,
    "report": [
        (["-h", "--help"], "help", None),
        (["--report"], "report", None),
        (["--output-dir"], "output_dir", None),
    ],
}


def test_flags_are_unchanged():
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(_FLAGS)
    for name, parser in subparsers.choices.items():
        flags = [(a.option_strings, a.dest, a.type) for a in parser._actions]
        assert flags == _FLAGS[name], name


def test_evaluate_of_a_mistyped_checkpoint_exits_2_with_one_error_line(
        dataset_file, tmp_path, capsys):
    args = _run_args(dataset_file, tmp_path / "out", command="train")
    args[args.index("--detectors") + 1] = "lstm"
    args[args.index("--max-epochs") + 1] = "1"
    assert main(args) == 0
    path = tmp_path / "out" / "artifacts" / "lstm_vib1d" / "model.json"
    doc = json.loads(path.read_text())
    assert doc["layers"][8]["return_sequences"] is True
    doc["layers"][8]["return_sequences"] = 0
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    args[0] = "evaluate"
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "return_sequences of layer 8 of" in err and "model.json" in err
