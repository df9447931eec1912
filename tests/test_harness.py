"""Experiment pipeline tests: config schema, artifacts, reports, timelines."""

import dataclasses
import json
import math
import re
import shutil
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pumpwatch import baseline, detect, harness
from pumpwatch.dataset import (Dataset, GeneratorConfig, SplitSpec,
                               generate_synthetic, load_dataset, save_dataset)
from pumpwatch.dataset import split as split_dataset
from pumpwatch.errors import (CalibrationError, ConfigError, DatasetFormatError,
                              EvalSplitWarning, ShapeError, TrainingError, UsageError)
from pumpwatch.harness import (Combination, DetectorKind, DetectorSpec,
                               ExperimentConfig, config_from_dict,
                               evaluate_experiment, load_report, parse_detector,
                               parse_feature_sets, render_tables,
                               resolved_config_dict, run_experiment,
                               train_experiment)
from pumpwatch.models import DETECTORS, Autoencoder, build_cnn, build_dnn, build_lstm
from pumpwatch.nn.network import PREDICT_ROWS, Network, by_chunks
from pumpwatch.nn.train import TrainConfig
from pumpwatch.signal import (FEATURE_SET_ORDER, FeatureSetId, Normalizer,
                              apply_normalizer, assemble_features,
                              fit_normalizer, window)


def _experiment_config(outdir):
    return ExperimentConfig(
        generate=GeneratorConfig(n_samples_per_condition=8, seed=7),
        feature_sets=[FeatureSetId.VIB1D, FeatureSetId.FFT_AUDIO],
        detectors=[DetectorSpec(kind=DetectorKind.DNN, n=64),
                   DetectorSpec(kind=DetectorKind.BM_PCA),
                   DetectorSpec(kind=DetectorKind.BM_IQR)],
        train=TrainConfig(max_epochs=2),
        output_dir=str(outdir))


@pytest.fixture(scope="module")
def experiment(tmp_path_factory, small_dataset):
    outdir = tmp_path_factory.mktemp("exp")
    cfg = _experiment_config(outdir)
    rows = run_experiment(cfg, small_dataset)
    return cfg, rows, Path(outdir)


# -------------------------------------------------------- config schema

def test_config_from_dict_full():
    cfg = config_from_dict({
        "dataset": {"generate": {"n_samples_per_condition": 5, "seed": 3}},
        "split": {"train_frac": 0.5, "threshold_frac": 0.25, "seed": 9},
        "feature_sets": "vib1d, fft_audio",
        "detectors": [{"kind": "dnn", "n": 80, "train": {"max_epochs": 3}},
                      "bm_iqr"],
        "train": {"learning_rate": 0.01, "batch_size": 16},
        "output_dir": "results",
    })
    cfg.validate()
    assert cfg.generate.n_samples_per_condition == 5
    assert cfg.split == SplitSpec(0.5, 0.25)
    assert cfg.split_seed == 9
    assert cfg.feature_sets == [FeatureSetId.VIB1D, FeatureSetId.FFT_AUDIO]
    assert cfg.detectors[0].kind is DetectorKind.DNN
    assert cfg.detectors[0].n == 80
    assert cfg.detectors[0].train.max_epochs == 3
    assert cfg.detectors[1].kind is DetectorKind.BM_IQR
    assert cfg.detectors[1].train is None
    assert cfg.train.learning_rate == 0.01
    assert cfg.output_dir == "results"


def test_config_rejects_unknown_keys_and_non_objects():
    with pytest.raises(ConfigError, match="bogus"):
        config_from_dict({"bogus": 1})
    # eval gets what train and threshold leave; no key sets it
    with pytest.raises(ConfigError, match=r"unknown keys \['eval_frac'\] in split"):
        config_from_dict({"split": {"train_frac": 0.6, "threshold_frac": 0.2,
                                    "eval_frac": 0.2}})
    with pytest.raises(ConfigError):
        config_from_dict(["not", "a", "dict"])


def test_config_requires_one_dataset_source():
    base = {"feature_sets": "vib1d", "detectors": ["bm_iqr"]}
    with pytest.raises(ConfigError, match="generate/load"):
        config_from_dict(base).validate()
    both = config_from_dict({**base, "dataset": {"load": "x.jsonl"}})
    both.generate = GeneratorConfig()
    with pytest.raises(ConfigError, match="generate/load"):
        both.validate()


def test_config_requires_detectors_and_feature_sets():
    doc = {"dataset": {"generate": {}}}
    with pytest.raises(ConfigError, match="detector"):
        config_from_dict(doc).validate()
    cfg = config_from_dict({**doc, "detectors": ["dnn"]})
    cfg.feature_sets = []
    with pytest.raises(ConfigError, match="feature set"):
        cfg.validate()


@pytest.mark.parametrize("doc, needle", [
    ({"detectors": [{"kind": "bm_pca", "variance_target": 0.5},
                    {"kind": "bm_pca", "variance_target": 0.99}],
      "feature_sets": ["vib1d", "vib1d"]}, "detector kind BM_PCA"),
    ({"detectors": ["dnn", "bm_iqr", "DNN"]}, "detector kind DNN"),
    ({"detectors": ["bm_iqr"], "feature_sets": "vib1d,audio,vib1d"},
     "feature set VIB1D"),
], ids=["kind-and-feature-set", "kind", "feature-set"])
def test_repeated_detector_kind_or_feature_set_is_a_config_error(tmp_path, doc,
                                                                 needle):
    # two combinations of one name would share an artifact directory and a
    # timeline file, and the second fit would overwrite the first
    outdir = tmp_path / "out"
    cfg = config_from_dict({"dataset": {"generate": {}}, "output_dir": str(outdir),
                            **doc})
    with pytest.raises(ConfigError, match=f"{needle} is listed more than once"):
        cfg.validate()
    with pytest.raises(ConfigError, match=needle):
        run_experiment(cfg)
    assert not outdir.exists()


@pytest.mark.parametrize("slot, value, name", [
    ("split", SplitSpec(train_frac=math.nan), "train_frac"),
    ("generate", GeneratorConfig(noise_std=math.nan), "noise_std"),
    ("generate", GeneratorConfig(base_amplitude=math.inf), "base_amplitude"),
    ("train", TrainConfig(learning_rate=math.nan), "learning_rate"),
    ("detectors", DetectorSpec(kind=DetectorKind.BM_PCA, variance_target=math.nan),
     "variance_target"),
], ids=["split-nan", "generate-nan", "generate-inf", "train-nan", "detector-nan"])
def test_non_finite_config_numbers_are_config_errors(tmp_path, slot, value, name):
    with pytest.raises(ConfigError, match=f"{name} must be a finite number"):
        value.validate()
    outdir = tmp_path / "out"
    cfg = dataclasses.replace(_one_detector_config(outdir, GeneratorConfig()),
                              **{slot: [value] if slot == "detectors" else value})
    with pytest.raises(ConfigError, match=name):
        run_experiment(cfg)
    assert not outdir.exists()  # refused before any dataset or model


def _python_configs():
    yield "defaults", ExperimentConfig(generate=GeneratorConfig(),
                                       detectors=[DetectorSpec(kind=DetectorKind.DNN)])
    yield "ints-for-floats", ExperimentConfig(
        generate=GeneratorConfig(anomaly_fraction=1, base_amplitude=2, noise_std=0,
                                 anomaly_harmonic_gain=3, anomaly_noise_gain=1),
        split=SplitSpec(train_frac=0.5, threshold_frac=0.25), split_seed=9,
        feature_sets=[FeatureSetId.AUDIO, FeatureSetId.FFT_VIB3D],
        detectors=[DetectorSpec(kind=DetectorKind.DNN, n=80,
                                train=TrainConfig(learning_rate=0, max_epochs=3)),
                   DetectorSpec(kind=DetectorKind.BM_PCA, variance_target=1),
                   DetectorSpec(kind=DetectorKind.CNN, cnn_bottleneck=8),
                   DetectorSpec(kind=DetectorKind.BM_IQR)],
        train=TrainConfig(learning_rate=1), output_dir="results")
    yield "load", ExperimentConfig(load="pumps.jsonl",
                                   detectors=[DetectorSpec(kind=DetectorKind.LSTM, n=16)])


@pytest.mark.parametrize("cfg", [pytest.param(cfg, id=name) for name, cfg in _python_configs()])
def test_python_config_round_trips_through_its_echo(cfg):
    # validate stores an int given for a float as a float, so the echo
    # reads 2.0 where the config said 2, as its own reload does
    cfg.validate()
    text = json.dumps(resolved_config_dict(cfg), sort_keys=True)
    again = config_from_dict(json.loads(text))
    again.validate()
    assert json.dumps(resolved_config_dict(again), sort_keys=True) == text


@pytest.mark.parametrize("slot, value, needle", [
    ("detectors", DetectorSpec(kind=DetectorKind.DNN, n=64.7),
     "n must be an integer, got 64.7"),
    ("train", TrainConfig(max_epochs=True), "max_epochs must be an integer, got True"),
    ("train", TrainConfig(batch_size=2.5), "batch_size must be an integer, got 2.5"),
    ("split", SplitSpec(threshold_frac="0.2"), "threshold_frac must be a number"),
    ("split_seed", 1.5, "split_seed must be an integer, got 1.5"),
    ("load", 5, "load must be a string or None, got 5"),
    ("output_dir", 5, "output_dir must be a string, got 5"),
    ("feature_sets", ["vib1d"], r"feature_sets must be a list of FeatureSetId, got \['vib1d'\]"),
    ("detectors", "dnn", r"detectors must be a list of DetectorSpec, got \['dnn'\]"),
    ("generate", {"seed": 1}, "generate must be a GeneratorConfig or None, got {'seed': 1}"),
    ("split", {"train_frac": 0.7}, "split must be a SplitSpec, got {'train_frac': 0.7}"),
    ("train", None, "train must be a TrainConfig, got None"),
    ("detectors", DetectorSpec(kind="dnn"), "kind must be a DetectorKind, got 'dnn'"),
    ("detectors", DetectorSpec(kind=DetectorKind.DNN, train={"max_epochs": 2}),
     "train must be a TrainConfig or None, got {'max_epochs': 2}"),
], ids=["dnn-float-n", "bool-max-epochs", "float-batch-size", "string-fraction",
        "float-split-seed", "int-load", "int-output-dir", "string-feature-set",
        "string-detector", "dict-generate", "dict-split", "none-train", "string-kind",
        "dict-detector-train"])
def test_wrong_typed_python_config_is_a_config_error(tmp_path, slot, value, needle):
    # the JSON and CLI paths checked types; a config built in Python ran,
    # echoed a value --config refuses, or died with a TypeError
    outdir = tmp_path / "out"
    cfg = dataclasses.replace(_one_detector_config(outdir, GeneratorConfig()),
                              **{slot: [value] if slot == "detectors" else value})
    with pytest.raises(ConfigError, match=needle):
        cfg.validate()
    with pytest.raises(ConfigError, match=needle):
        run_experiment(cfg)
    assert not outdir.exists()


@pytest.mark.parametrize("detector, needle", [
    ({"kind": "dnn", "n": 300}, r"DNN n must be in \[64, 200\], got 300"),
    ({"kind": "dnn", "n": 63}, "DNN n must be in"),
    ({"kind": "lstm", "n": 8}, "LSTM n must be >= 16, got 8"),
    ({"kind": "cnn", "cnn_bottleneck": 0}, "cnn_bottleneck must be >= 1, got 0"),
    ({"kind": "bm_pca", "variance_target": 1.5}, r"variance_target must be in \(0, 1\]"),
    ({"kind": "bm_pca", "variance_target": 0.0}, "variance_target must be in"),
], ids=["dnn-n-high", "dnn-n-low", "lstm-n", "cnn-bottleneck", "pca-target-high",
        "pca-target-zero"])
def test_detector_sizes_are_checked_by_validate(tmp_path, detector, needle):
    # a bad size used to surface only when its combination was built, after
    # the earlier combinations had been fitted and written
    outdir = tmp_path / "out"
    cfg = config_from_dict({"dataset": {"generate": {"n_samples_per_condition": 4}},
                            "detectors": ["bm_iqr", detector],
                            "feature_sets": ["vib1d", "audio"],
                            "output_dir": str(outdir)})
    with pytest.raises(ConfigError, match=needle):
        cfg.validate()
    with pytest.raises(ConfigError, match=needle):
        run_experiment(cfg)
    assert not outdir.exists()


def test_detector_spec_refuses_other_kinds_fields():
    # a field its kind does not read is refused, as a config file refuses
    # the key, and a size check bounds only its own kind
    for spec in (DetectorSpec(kind=DetectorKind.BM_IQR, n=1, cnn_bottleneck=0,
                              variance_target=5.0),
                 DetectorSpec(kind=DetectorKind.CNN, n=1, variance_target=0.0),
                 DetectorSpec(kind=DetectorKind.LSTM, n=500, cnn_bottleneck=0)):
        with pytest.raises(ConfigError, match=f"unknown keys .* in detector {spec.kind.name};"):
            spec.validate()
    for kind in set(DetectorKind) - {DetectorKind.BM_PCA}:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="variance_target"):
                DetectorSpec(kind=kind, variance_target=bad).validate()
    DetectorSpec(kind=DetectorKind.BM_IQR).validate()
    DetectorSpec(kind=DetectorKind.CNN, cnn_bottleneck=16).validate()
    DetectorSpec(kind=DetectorKind.LSTM, n=500).validate()  # above DNN's bound of 200


def _saved_with_key(obj, path, entry=None):
    """``path`` after ``obj.save(path)``, with the key "stray" added to its
    JSON object, or to the first value of its ``entry`` object."""
    obj.save(path)
    doc = json.loads(path.read_text())
    (next(iter(doc[entry].values())) if entry else doc)["stray"] = 1
    path.write_text(json.dumps(doc))
    return path


def _dataset_with_header_key(path):
    save_dataset(generate_synthetic(GeneratorConfig(n_samples_per_condition=2)), path)
    header, rows = path.read_text().split("\n", 1)
    path.write_text(header[:-1] + ',"provenence":"rig 7"}\n' + rows)
    return path


_ROWS = np.random.default_rng(5).normal(size=(20, 4))
_FOREIGN_FIELDS = [(DetectorSpec(kind=DetectorKind.DNN, cnn_bottleneck=16), "cnn_bottleneck"),
                   (DetectorSpec(kind=DetectorKind.LSTM, variance_target=0.5), "variance_target"),
                   (DetectorSpec(kind=DetectorKind.CNN, n=64), "n"),
                   (DetectorSpec(kind=DetectorKind.BM_PCA, train=TrainConfig()), "train"),
                   (DetectorSpec(kind=DetectorKind.BM_IQR, n=7), "n")]


def _report_with(path, row=(), doc=()):
    """``path`` holding a one-row report.json whose row and document carry
    the given keys beside those ``run`` writes."""
    path.write_text(json.dumps({
        "config": {}, **dict(doc),
        "rows": [{"detector": "DNN", "feature_set": "VIB1D",
                  "metrics": dataclasses.asdict(detect.Metrics(1.0, 1.0, 1.0, 1.0, 1, 0, 1, 0)),
                  "threshold": dataclasses.asdict(detect.Threshold(1.0, 0.5, 0.5, 3)),
                  **dict(row)}]}))
    return path


def _checkpoint_with_layer_key(path):
    build_dnn(64, 64).network.save(path)
    doc = json.loads(path.read_text())
    doc["layers"][0]["stray"] = 1
    path.write_text(json.dumps(doc))
    return path


def _artifact_case(name, load, obj, entry=None, where=""):
    return pytest.param(lambda tmp: load(_saved_with_key(obj, tmp / name, entry)), UsageError,
                        f"unknown keys ['stray'] in {where}{{tmp}}/{name};",
                        id=name.replace(".json", "") + ("-tensor" if entry else ""))


@pytest.mark.parametrize("reader, error, needle", [
    pytest.param(lambda tmp: config_from_dict({"stray": 1}), ConfigError,
                 "unknown keys ['stray'] in the config; known keys are ['dataset', 'detectors',",
                 id="config-file"),
    pytest.param(lambda tmp: config_from_dict({"dataset": {"generate": {}, "stray": 1}}),
                 ConfigError,
                 "unknown keys ['stray'] in dataset; known keys are ['generate', 'load']",
                 id="config-file-dataset"),
    pytest.param(lambda tmp: config_from_dict({"detectors": [{"kind": "bm_iqr", "n": 7}]}),
                 ConfigError, "unknown keys ['n'] in detector BM_IQR; known keys are ['kind']",
                 id="config-file-detector"),
    *[pytest.param(lambda tmp, spec=spec: spec.validate(), ConfigError,
                   f"unknown keys ['{key}'] in detector {spec.kind.name};",
                   id=f"python-{spec.kind.name}") for spec, key in _FOREIGN_FIELDS],
    _artifact_case("threshold.json", detect.Threshold.load, detect.Threshold(1.0, 0.5, 0.5, 3)),
    _artifact_case("normalizer.json", Normalizer.load,
                   Normalizer(np.zeros(1), np.ones(1), "VIB1D")),
    _artifact_case("pca.json", baseline.PcaModel.load, baseline.pca_fit(_ROWS)),
    _artifact_case("iqr.json", baseline.IqrModel.load, baseline.iqr_fit(_ROWS)),
    _artifact_case("model.json", Network.load, build_dnn(64, 64).network),
    _artifact_case("model.json", Network.load, build_dnn(64, 64).network, entry="params",
                   where="tensor L0.W of "),
    pytest.param(lambda tmp: Network.load(_checkpoint_with_layer_key(tmp / "model.json")),
                 UsageError, "unknown keys ['stray'] in Dense layer 0 of {tmp}/model.json;",
                 id="model-layer"),
    pytest.param(lambda tmp: load_dataset(_dataset_with_header_key(tmp / "pumps.jsonl")),
                 DatasetFormatError, "line 1: unknown keys ['provenence'] in the header;",
                 id="dataset-header"),
    pytest.param(lambda tmp: load_report(_report_with(tmp / "report.json", doc={"stray": 1})),
                 UsageError, "unknown keys ['stray'] in {tmp}/report.json;", id="report"),
    pytest.param(lambda tmp: load_report(_report_with(tmp / "report.json", row={"stray": 1})),
                 UsageError, "unknown keys ['stray'] in row 0 of {tmp}/report.json;",
                 id="report-row"),
    pytest.param(lambda tmp: load_report(_report_with(tmp / "report.json", row={"detector": 5})),
                 UsageError, "detector in row 0 of {tmp}/report.json must be a string, got 5",
                 id="report-row-numeric-detector"),
])
def test_each_reader_refuses_a_key_it_does_not_read(tmp_path, reader, error, needle):
    # config files always did; artifact files and report.json skipped such
    # a key, a Python DetectorSpec kept it unechoed, a checkpoint or dataset
    # header never looked, and a layer spec's surfaced as a TypeError; a
    # report row's detector 5 was a KeyError
    with pytest.raises(error, match=re.escape(needle.format(tmp=tmp_path))):
        reader(tmp_path)


def test_an_artifact_that_repeats_a_key_is_refused_naming_it(tmp_path):
    # plain json keeps the last value, which would load this threshold as 0.0
    path = tmp_path / "threshold.json"
    detect.Threshold(1.0, 0.5, 0.5, 3).save(path)
    path.write_text(path.read_text().replace("{", '{"value": 0.0,', 1))
    with pytest.raises(UsageError, match=re.escape(f"{path} is not valid JSON: repeated key "
                                                   "'value'")):
        detect.Threshold.load(path)


def test_parse_feature_sets():
    assert parse_feature_sets("all") == list(FEATURE_SET_ORDER)
    assert parse_feature_sets(["vib3d", "audio"]) == [FeatureSetId.VIB3D,
                                                     FeatureSetId.AUDIO]
    with pytest.raises(ConfigError, match="vib9d"):
        parse_feature_sets("vib9d")


def test_parse_detector():
    spec = parse_detector("cnn")
    assert spec.kind is DetectorKind.CNN
    assert spec.cnn_bottleneck == 32
    spec = parse_detector({"kind": "bm_pca", "variance_target": 0.9})
    assert spec.variance_target == 0.9
    with pytest.raises(ConfigError, match="svm"):
        parse_detector("svm")


# each detector holds every key its kind reads, and no other
@pytest.mark.parametrize("detector", [
    {"kind": "dnn", "n": 80, "train": {"max_epochs": 3}},
    {"kind": "lstm", "n": 96, "train": {"batch_size": 8}},
    {"kind": "cnn", "cnn_bottleneck": 8, "train": {"seed": 3}},
    {"kind": "bm_pca", "variance_target": 0.5},
    {"kind": "bm_iqr"},
], ids=lambda d: d["kind"])
def test_resolved_config_round_trips(detector):
    cfg = config_from_dict({
        "dataset": {"generate": {"n_samples_per_condition": 6}},
        "detectors": [detector],
        "feature_sets": ["audio"],
    })
    resolved = resolved_config_dict(cfg)
    assert resolved_config_dict(config_from_dict(resolved)) == resolved
    assert sorted(resolved["detectors"][0]) == sorted(detector)


def test_detector_table_has_one_row_per_kind():
    assert list(DETECTORS) == list(DetectorKind)
    fields = {f.name for f in dataclasses.fields(DetectorSpec)} - {"kind"}
    for kind, row in DETECTORS.items():
        assert set(row.keys) <= fields, kind
    assert {kind.name: row.artifact for kind, row in DETECTORS.items()} == {
        "DNN": "model.json", "LSTM": "model.json", "CNN": "model.json",
        "BM_PCA": "pca.json", "BM_IQR": "iqr.json"}


# -------------------------------------------------------- pipeline outputs

def test_run_writes_expected_files(experiment):
    _, _, outdir = experiment
    for name in ("config_resolved.json", "runtimes.json", "report.json",
                 "report.txt", "report.csv"):
        assert (outdir / name).is_file(), name
    for fs in ("vib1d", "fft_audio"):
        assert (outdir / "artifacts" / fs / "normalizer.json").is_file()
        for tag, artifact in (("dnn", "model.json"), ("bm_pca", "pca.json"),
                              ("bm_iqr", "iqr.json")):
            combo = outdir / "artifacts" / f"{tag}_{fs}"
            assert (combo / artifact).is_file()
            assert (combo / "threshold.json").is_file()
            assert (outdir / f"timeline_{tag}_{fs}.csv").is_file()


def test_report_covers_the_grid(experiment):
    cfg, rows, _ = experiment
    combos = [(r.detector.kind, r.feature_set) for r in rows]
    assert len(combos) == len(set(combos)) == 6
    for det in cfg.detectors:
        for fs in cfg.feature_sets:
            assert (det.kind, fs) in combos


def test_runtimes_sidecar_covers_the_grid(experiment):
    cfg, _, outdir = experiment
    doc = json.loads((outdir / "runtimes.json").read_text())
    assert sorted(doc) == sorted(f"{d.kind.name}/{fs.name}"
                                 for d in cfg.detectors
                                 for fs in cfg.feature_sets)
    assert all(v >= 0 for v in doc.values())


@pytest.mark.parametrize("tag", ["dnn", "bm_pca", "bm_iqr"])
def test_threshold_matches_calibration_protocol(experiment, small_dataset, tag):
    """Recompute the threshold from reloaded artifacts and the split."""
    cfg, _, outdir = experiment
    parts = split_dataset(small_dataset, cfg.split, cfg.split_seed)
    fs = FeatureSetId.VIB1D
    nz = Normalizer.load(outdir / "artifacts" / fs.value / "normalizer.json")
    wins = window(apply_normalizer(nz, assemble_features(parts[1], fs)))
    combo = outdir / "artifacts" / f"{tag}_{fs.value}"
    row = DETECTORS[DetectorKind(tag)]
    model = row.load(combo / row.artifact)
    want = detect.calibrate_threshold(model.window_errors(wins))
    got = detect.Threshold.load(combo / "threshold.json")
    assert got == want


def test_timeline_covers_every_sample_in_time_order(experiment, small_dataset):
    _, rows, _ = experiment
    for timeline in [r.timeline for r in rows]:
        assert sorted(timeline["sample_id"].tolist()) == \
            sorted(s.sample_id for s in small_dataset)
        stamps = timeline["timestamp"].tolist()
        assert stamps == sorted(stamps)
        assert set(timeline["split"].tolist()) == {"train", "threshold", "eval"}


def test_timeline_truth_matches_dataset(experiment, small_dataset):
    _, rows, _ = experiment
    truth = {s.sample_id: s.is_anomaly for s in small_dataset}
    for timeline in [r.timeline for r in rows]:
        for sample_id, is_anomaly in zip(timeline["sample_id"].tolist(),
                                         timeline["truth"].tolist()):
            assert is_anomaly == truth[sample_id]


def test_report_metrics_recomputable_from_timeline(experiment):
    _, rows, _ = experiment
    for row in rows:
        timeline = row.timeline
        ev = timeline["split"] == "eval"
        got = detect.evaluate(timeline["flagged"][ev], timeline["truth"][ev])
        assert got == row.metrics


def test_timeline_csv_round_trips(experiment):
    _, rows, outdir = experiment
    row, = [r for r in rows
            if (r.detector.kind, r.feature_set) == (DetectorKind.BM_IQR, FeatureSetId.VIB1D)]
    timeline, threshold = row.timeline, row.threshold.value
    lines = (outdir / "timeline_bm_iqr_vib1d.csv").read_text().splitlines()
    assert lines[0] == "sample_id,timestamp,score,threshold,flagged,truth,split"
    assert len(lines) == len(timeline["sample_id"]) + 1
    for i, line in enumerate(lines[1:]):
        sid, ts, score, th, flagged, truth, part = line.split(",")
        assert int(sid) == timeline["sample_id"][i]
        assert float(ts) == timeline["timestamp"][i]  # repr floats reparse exactly
        assert float(score) == timeline["score"][i]
        assert float(th) == threshold
        assert flagged == str(timeline["flagged"][i]).lower()
        assert truth == str(timeline["truth"][i]).lower()
        assert part == timeline["split"][i]


def test_artifacts_contain_no_non_finite_numbers(experiment):
    _, _, outdir = experiment

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, float):
            assert math.isfinite(node)

    for path in outdir.rglob("*.json"):
        walk(json.loads(path.read_text()))


def test_train_then_evaluate_reproduces_run(small_dataset, tmp_path):
    # every file run writes, byte for byte at the same path, but runtimes.json
    outdir = tmp_path / "out"
    cfg = _experiment_config(outdir)

    def files():
        return {p.relative_to(outdir): p.read_bytes() for p in outdir.rglob("*")
                if p.is_file() and p.name != "runtimes.json"}

    run_rows = run_experiment(cfg, small_dataset)
    ran = files()
    shutil.rmtree(outdir)
    train_experiment(cfg, small_dataset)
    assert not (outdir / "report.txt").exists()
    eval_rows = evaluate_experiment(cfg, small_dataset)
    evaluated = files()
    assert evaluated.keys() == ran.keys()
    for rel, data in ran.items():
        assert evaluated[rel] == data, rel
    for a, b in zip(run_rows, eval_rows):
        assert (a.detector.kind, a.feature_set) == (b.detector.kind, b.feature_set)
        assert a.metrics == b.metrics
        assert a.threshold == b.threshold


def test_evaluate_without_artifacts_fails(tmp_path, tiny_dataset):
    cfg = _experiment_config(tmp_path / "empty")
    with pytest.raises(UsageError, match="normalizer"):
        evaluate_experiment(cfg, tiny_dataset)
    assert not (tmp_path / "empty" / "artifacts").exists()


def _tree(root):
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def test_evaluate_of_an_untrained_combination_leaves_the_tree_unchanged(
        tmp_path, small_dataset):
    cfg = _one_detector_config(tmp_path / "out", GeneratorConfig())
    train_experiment(cfg, small_dataset)
    shutil.rmtree(tmp_path / "out" / "artifacts" / "bm_iqr_vib1d")
    before = _tree(tmp_path / "out")
    with pytest.raises(UsageError, match="bm_iqr_vib1d"):
        evaluate_experiment(cfg, small_dataset)
    assert _tree(tmp_path / "out") == before


@pytest.mark.parametrize("kind", list(DetectorKind))
def test_every_detector_round_trips_through_save_and_load(tmp_path, small_dataset,
                                                          kind):
    # VIB3D has three channels: the loaded network must carry them
    fs = FeatureSetId.VIB3D
    det = DetectorSpec(kind=kind, n=16 if kind is DetectorKind.LSTM else 64,
                       cnn_bottleneck=16)
    train, threshold, _ = split_dataset(small_dataset, SplitSpec(), 0)
    nz = fit_normalizer(assemble_features(train, fs))
    train_w, threshold_w = (window(apply_normalizer(nz, assemble_features(part, fs)))
                            for part in (train, threshold))
    row = DETECTORS[kind]
    model = row.fit(det, train_w, TrainConfig(max_epochs=1), 0)
    model.save(tmp_path / row.artifact)
    loaded = row.load(tmp_path / row.artifact)
    assert type(loaded) is type(model)
    if isinstance(model, Autoencoder):
        assert model.kind is loaded.kind is kind
    assert np.array_equal(loaded.window_errors(threshold_w),
                          model.window_errors(threshold_w))


@pytest.fixture(scope="module")
def vib3d_windows(small_dataset):
    """The 640 three-channel windows of the small dataset's 40 samples."""
    feats = assemble_features(small_dataset, FeatureSetId.VIB3D)
    return window(apply_normalizer(fit_normalizer(feats), feats))


def _scoring_model(kind, windows):
    flat = baseline.flat_windows(windows[:320])
    return {DetectorKind.BM_PCA: lambda: baseline.pca_fit(flat),
            DetectorKind.BM_IQR: lambda: baseline.iqr_fit(flat),
            DetectorKind.DNN: lambda: build_dnn(flat.shape[1], 64, seed=1),
            DetectorKind.LSTM: lambda: build_lstm(16, channels=3, seed=2),
            DetectorKind.CNN: lambda: build_cnn(channels=3, bottleneck=8, seed=3)}[kind]()


@pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 513])
@pytest.mark.parametrize("kind", list(DetectorKind), ids=lambda k: k.name)
def test_chunked_scoring_matches_whole_array_window_errors(vib3d_windows, kind, count):
    model = _scoring_model(kind, vib3d_windows)
    w = vib3d_windows[:count]
    chunked = by_chunks(model.window_errors, w)  # the score stage's loop
    whole = model.window_errors(w)
    if kind is DetectorKind.BM_PCA and count > PREDICT_ROWS:
        # How OpenBLAS rounds a row of a product depends on the product's
        # row count (a one-row tail is a matrix-vector product, a short one
        # takes a small-matrix kernel), so PCA scores past one chunk match
        # the whole-array product to rounding only.  The autoencoders'
        # predict already ran in these chunks, and IQR is elementwise.
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=0)
    else:
        assert chunked.shape == whole.shape == (count,)
        assert np.array_equal(chunked.view(np.int64), whole.view(np.int64))


def test_pca_scoring_holds_less_than_one_windows_array():
    windows = np.random.default_rng(6).normal(size=(8 * PREDICT_ROWS, 3, 64))
    model = baseline.pca_fit(baseline.flat_windows(windows[:512]))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        errors = harness._score(model, FeatureSetId.VIB3D, {"eval": windows})
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert errors["eval"].shape == (8 * PREDICT_ROWS // 16, 16)
    assert peak < windows.nbytes


def _one_detector_config(outdir, gen, fs=FeatureSetId.VIB1D):
    return ExperimentConfig(generate=gen, feature_sets=[fs],
                            detectors=[DetectorSpec(kind=DetectorKind.BM_IQR)],
                            output_dir=str(outdir))


def test_channel_length_mismatch_names_the_sample(small_dataset):
    # in-memory datasets are not validated, but their rows must stack
    samples = list(small_dataset)
    bad = samples[11]
    samples[11] = dataclasses.replace(bad, vib_z=bad.vib_z[:1000])
    with pytest.raises(ShapeError, match=f"sample {bad.sample_id}: channel vib_z"):
        Dataset(samples=samples, provenance=small_dataset.provenance)


def test_bm_iqr_flags_every_nan_sample(tmp_path, small_dataset):
    # in-memory datasets are not validated, so NaN recordings reach scoring
    nan = np.full(1024, np.nan)
    poisoned = Dataset(
        samples=[dataclasses.replace(s, audio=nan, vib_x=nan, vib_y=nan, vib_z=nan)
                 if s.is_anomaly else s for s in small_dataset],
        provenance=small_dataset.provenance)
    cfg = _one_detector_config(tmp_path / "out", GeneratorConfig(
        n_samples_per_condition=8, seed=7))
    (row,) = run_experiment(cfg, poisoned)
    timeline = row.timeline
    nan_rows = timeline["truth"]
    assert nan_rows.any() and timeline["flagged"][nan_rows].all()
    assert (timeline["score"][nan_rows] == 1.0).all()


@pytest.mark.parametrize("block", [1000, 8], ids=["one-timestamp", "blocks-of-8"])
def test_timeline_breaks_timestamp_ties_by_sample_id(tmp_path, small_dataset, block):
    # Timestamps fall as sample ids rise, and each block of ids shares one
    # timestamp, so neither key alone, nor the order of the splits, gives
    # the (timestamp, sample_id) order.
    samples = [dataclasses.replace(s, timestamp=1e9 - 60.0 * (i // block))
               for i, s in enumerate(small_dataset)]
    stamped = Dataset(samples=samples, provenance=small_dataset.provenance)
    cfg = _one_detector_config(tmp_path / "out", GeneratorConfig(
        n_samples_per_condition=8, seed=7))
    (row,) = run_experiment(cfg, stamped)
    want = [s.sample_id for s in sorted(samples, key=lambda s: (s.timestamp, s.sample_id))]
    timeline = row.timeline
    assert timeline["sample_id"].tolist() == want
    lines = (tmp_path / "out" / "timeline_bm_iqr_vib1d.csv").read_text().splitlines()
    assert [int(line.split(",")[0]) for line in lines[1:]] == want


def test_train_experiment_builds_no_eval_features(tmp_path, small_dataset,
                                                  monkeypatch):
    cfg = _one_detector_config(tmp_path / "run", GeneratorConfig(
        n_samples_per_condition=8, seed=7))
    run_experiment(cfg, small_dataset)
    built = []
    real = harness.assemble_features
    monkeypatch.setattr(harness, "assemble_features",
                        lambda samples, fs: built.append(len(samples)) or real(samples, fs))
    train_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path / "train")),
                     small_dataset)
    train, threshold, _ = split_dataset(small_dataset, cfg.split, cfg.split_seed)
    assert built == [len(train), len(threshold)]
    artifacts = sorted((tmp_path / "run" / "artifacts").rglob("*.json"))
    assert len(artifacts) == 3  # normalizer, iqr and threshold
    for path in artifacts:
        rel = path.relative_to(tmp_path / "run")
        assert path.read_bytes() == (tmp_path / "train" / rel).read_bytes(), rel


def test_train_experiment_returns_its_fitted_rows(tmp_path, small_dataset):
    # the fitted models come back to a Python caller as they were written
    outdir = tmp_path / "out"
    cfg = dataclasses.replace(_experiment_config(outdir),
                              detectors=[DetectorSpec(kind=DetectorKind.BM_PCA),
                                         DetectorSpec(kind=DetectorKind.BM_IQR)])
    rows = train_experiment(cfg, small_dataset)
    assert [(r.detector.kind, r.feature_set) for r in rows] == \
        [(d.kind, fs) for fs in cfg.feature_sets for d in cfg.detectors]
    for row in rows:
        assert row.metrics is None and row.timeline is None
        assert row.normalizer.feature_set == row.feature_set.name
        combo = outdir / "artifacts" / f"{row.detector.kind.value}_{row.feature_set.value}"
        assert row.threshold == detect.Threshold.load(combo / "threshold.json")
        artifact = DETECTORS[row.detector.kind].artifact
        row.model.save(tmp_path / artifact)
        assert (tmp_path / artifact).read_bytes() == (combo / artifact).read_bytes()


def test_empty_threshold_split_is_a_calibration_error(tmp_path):
    # two healthy samples per condition: one trains, none is left to calibrate
    gen = GeneratorConfig(n_samples_per_condition=2, anomaly_fraction=0.0, seed=1)
    assert len(split_dataset(generate_synthetic(gen), SplitSpec(), 0)[1]) == 0
    for entry in (run_experiment, train_experiment):
        with pytest.raises(CalibrationError, match="BM_IQR on VIB1D"):
            entry(_one_detector_config(tmp_path / entry.__name__, gen))


def test_empty_eval_split_is_a_usage_error(tmp_path):
    # three healthy samples per condition and no anomalies: eval gets none
    gen = GeneratorConfig(n_samples_per_condition=3, anomaly_fraction=0.0, seed=1)
    assert len(split_dataset(generate_synthetic(gen), SplitSpec(), 0)[2]) == 0
    cfg = _one_detector_config(tmp_path / "out", gen)
    with pytest.raises(UsageError, match="at least one pair"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()  # a failing run writes nothing
    train_experiment(cfg)  # train never reads the eval split
    with pytest.raises(UsageError, match="at least one pair"):
        evaluate_experiment(cfg)


def test_eval_split_without_a_healthy_sample_warns(tmp_path, small_dataset):
    # 0.7 and 0.25 of each condition's 4 healthy rows round to 3 and 1, so
    # no false positive can lower precision; the CLI raises the warning
    cfg = dataclasses.replace(_one_detector_config(tmp_path / "out", GeneratorConfig()),
                              split=SplitSpec(train_frac=0.7, threshold_frac=0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        train_experiment(cfg, small_dataset)  # train never reads the eval split
    for entry in (run_experiment, evaluate_experiment):
        with pytest.warns(EvalSplitWarning, match="train 15, threshold 5, eval 0"):
            (row,) = entry(cfg, small_dataset)
        assert row.metrics.tn + row.metrics.fp == 0


def test_a_failing_combination_is_named_and_keeps_its_error(tmp_path, small_dataset,
                                                           monkeypatch):
    # the prefix names the combination; type, attributes and cause stay
    gen = GeneratorConfig(n_samples_per_condition=8, seed=7)
    cfg = dataclasses.replace(_one_detector_config(tmp_path / "out", gen),
                              detectors=[DetectorSpec(kind=DetectorKind.DNN, n=64)],
                              train=TrainConfig(learning_rate=1e300, max_epochs=2))
    with pytest.raises(TrainingError, match="^DNN on VIB1D: epoch 0: ") as info, \
            np.errstate(over="ignore", invalid="ignore"):  # the loss diverges on purpose
        run_experiment(cfg, small_dataset)
    assert info.value.epoch == 0

    cause = ValueError("unreadable")

    def fail(errors):
        raise DatasetFormatError("bad row", line_number=3) from cause

    monkeypatch.setattr(detect, "calibrate_threshold", fail)
    with pytest.raises(DatasetFormatError, match="^BM_IQR on VIB1D: line 3: bad row$") as info:
        run_experiment(_one_detector_config(tmp_path / "out", gen), small_dataset)
    assert info.value.line_number == 3 and info.value.__cause__ is cause


def test_identical_configs_reproduce_output_bytes(tmp_path, small_dataset):
    """Everything except the runtimes sidecar must be byte-identical."""
    outdir = tmp_path / "out"

    def go():
        cfg = ExperimentConfig(
            generate=GeneratorConfig(n_samples_per_condition=8, seed=7),
            feature_sets=[FeatureSetId.VIB1D],
            detectors=[DetectorSpec(kind=DetectorKind.DNN, n=64),
                       DetectorSpec(kind=DetectorKind.BM_IQR)],
            train=TrainConfig(max_epochs=2),
            output_dir=str(outdir))
        run_experiment(cfg, small_dataset)

    go()
    snapshot = {p.relative_to(outdir): p.read_bytes()
                for p in outdir.rglob("*")
                if p.is_file() and p.name != "runtimes.json"}
    assert snapshot
    go()
    for rel, data in snapshot.items():
        assert (outdir / rel).read_bytes() == data, rel


# -------------------------------------------------------- rendering

def _one_row_report(metrics):
    return [Combination(detector=DetectorSpec(kind=DetectorKind.DNN),
                        feature_set=FeatureSetId.VIB1D, metrics=metrics,
                        threshold=detect.Threshold(1.0, 0.5, 0.25, 10))]


def test_fmt2_rounds_half_up():
    assert harness._fmt2(0.125) == "0.13"
    assert harness._fmt2(0.005) == "0.01"
    assert harness._fmt2(2 / 3) == "0.67"
    assert harness._fmt2(1.0) == "1.00"
    assert harness._fmt2(0.0) == "0.00"
    assert harness._fmt2(float("nan")) == "nan"


def test_render_formats_metrics_to_two_decimals():
    metrics = detect.Metrics(accuracy=0.475, precision=0.465, recall=0.935,
                             f1=0.625, tp=0, fp=0, tn=0, fn=0)
    text, csv_text = render_tables(_one_row_report(metrics))
    assert "== DNN ==" in text
    row_line = next(l for l in text.splitlines() if l.startswith("Vibrations 1D"))
    assert row_line.split() == ["Vibrations", "1D", "0.48", "0.63", "0.47", "0.94"]
    assert csv_text.splitlines() == [
        "detector,feature_set,accuracy,f1,precision,recall",
        "DNN,Vibrations 1D,0.48,0.63,0.47,0.94",
    ]


def test_render_shows_perfect_scores_as_one_point_zero_zero():
    metrics = detect.Metrics(accuracy=1.0, precision=1.0, recall=1.0, f1=1.0,
                             tp=4, fp=0, tn=4, fn=0)
    text, _ = render_tables(_one_row_report(metrics))
    row_line = next(l for l in text.splitlines() if l.startswith("Vibrations 1D"))
    assert row_line.split()[-4:] == ["1.00", "1.00", "1.00", "1.00"]


def test_render_orders_rows_canonically():
    metrics = detect.Metrics(1.0, 1.0, 1.0, 1.0, 1, 0, 1, 0)
    rows = [Combination(detector=DetectorSpec(kind=DetectorKind.CNN),
                        feature_set=fs, metrics=metrics,
                        threshold=detect.Threshold(1.0, 0.5, 0.25, 10))
            for fs in (FeatureSetId.FFT_VIB1D, FeatureSetId.VIB1D)]
    text, _ = render_tables(rows)
    lines = text.splitlines()
    first = next(i for i, l in enumerate(lines) if l.startswith("Vibrations 1D"))
    second = next(i for i, l in enumerate(lines) if l.startswith("FFT Vibrations 1D"))
    assert first < second


def test_render_groups_by_detector(experiment):
    _, _, outdir = experiment
    text = (outdir / "report.txt").read_text()
    for label in ("== DNN ==", "== BM PCA ==", "== BM IQR =="):
        assert label in text
    assert text.count("Vibrations 1D") == 3 and text.count("FFT Audio") == 3


def test_render_empty_report_is_an_error():
    with pytest.raises(UsageError):
        render_tables([])


def test_load_report_round_trips_rendering(experiment):
    _, _, outdir = experiment
    text, csv_text = render_tables(load_report(outdir / "report.json"))
    assert text == (outdir / "report.txt").read_text()
    assert csv_text == (outdir / "report.csv").read_text()

