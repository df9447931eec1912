"""End-to-end experiment pipeline: dataset -> features -> detectors -> report.

One experiment runs a grid of (detector, feature set) combinations over a
single dataset split.  Per feature set the normalizer is fitted on the
healthy train split only and the windows are computed once, shared by all
detectors.  Per combination the detector is fitted on train windows, the
vote threshold is calibrated on the held-out healthy threshold split, and
metrics are computed on the eval split.

Three entry points share the pipeline: ``run_experiment`` does everything,
``train_experiment`` stops after writing the fitted artifacts, and
``evaluate_experiment`` loads previously written artifacts instead of
fitting, then scores and reports.  Every fitted model scores windows with
``window_errors`` and round-trips through ``save``/``load``; the detector
kind the config names, not the artifact file, decides which class loads
it.  Only fitting creates directories under artifacts/.

Everything written to the output directory is byte-deterministic for a
given config except runtimes.json, which holds the measured wall-clock
seconds per combination and is deliberately kept out of the report files.

Output layout:
    config_resolved.json            full config echo
    report.json / report.txt / report.csv
    runtimes.json                   wall clock per combination (not deterministic)
    timeline_{detector}_{featureset}.csv
    artifacts/{featureset}/normalizer.json
    artifacts/{detector}_{featureset}/threshold.json plus model.json (DNN,
        LSTM, CNN), pca.json (mean, components, k, explained_variance_ratio)
        or iqr.json (means, iqrs)
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import baseline, detect
from .dataset import (Dataset, GeneratorConfig, SplitSpec, generate_synthetic,
                      load_dataset, split)
from .errors import ConfigError, PumpwatchError, UsageError
from .models import (Autoencoder, DetectorKind, build_cnn, build_dnn, build_lstm,
                     check_cnn_bottleneck, check_dnn_n, check_lstm_n)
from .nn.train import TrainConfig
from .rng import derive_seed
from .signal import (FEATURE_SET_ORDER, WINDOW_SIZE, FeatureSetId, Normalizer,
                     apply_normalizer, assemble_features, channel_count,
                     fit_normalizer, window)
from .util import check_finite, dataclass_from_dict, read_json, typed_value, write_json


@dataclass
class DetectorSpec:
    kind: DetectorKind
    n: int = 150
    cnn_bottleneck: int = 32
    variance_target: float = 0.95
    train: Optional[TrainConfig] = None

    def validate(self):
        check_finite(self)
        if self.kind is DetectorKind.DNN:
            check_dnn_n(self.n)
        elif self.kind is DetectorKind.LSTM:
            check_lstm_n(self.n)
        elif self.kind is DetectorKind.CNN:
            check_cnn_bottleneck(self.cnn_bottleneck)
        elif self.kind is DetectorKind.BM_PCA:
            baseline.check_variance_target(self.variance_target, ConfigError)
        if self.train is not None:
            self.train.validate()


@dataclass
class ExperimentConfig:
    generate: Optional[GeneratorConfig] = None
    load: Optional[str] = None
    split: SplitSpec = field(default_factory=SplitSpec)
    split_seed: int = 0
    feature_sets: List[FeatureSetId] = field(default_factory=lambda: list(FEATURE_SET_ORDER))
    detectors: List[DetectorSpec] = field(default_factory=list)
    train: TrainConfig = field(default_factory=TrainConfig)
    output_dir: str = "out"

    def validate(self):
        if (self.generate is None) == (self.load is None):
            raise ConfigError("exactly one of generate/load must be set")
        if not self.feature_sets:
            raise ConfigError("at least one feature set is required")
        if not self.detectors:
            raise ConfigError("at least one detector is required")
        # A repeated kind or feature set would share, and overwrite, one
        # artifact directory and one timeline.
        for what, names in (("detector kind", [d.kind.name for d in self.detectors]),
                             ("feature set", [fs.name for fs in self.feature_sets])):
            repeated = [name for i, name in enumerate(names) if name in names[:i]]
            if repeated:
                raise ConfigError(f"{what} {repeated[0]} is listed more than once; "
                                  "each may appear once")
        if self.generate is not None:
            self.generate.validate()
        self.split.validate()
        self.train.validate()
        for det in self.detectors:
            det.validate()


@dataclass
class TimelineEntry:
    sample_id: int
    timestamp: float
    score: float
    threshold: float
    flagged: bool
    truth: bool
    split: str


@dataclass
class ReportRow:
    detector: DetectorSpec
    feature_set: FeatureSetId
    metrics: detect.Metrics
    threshold: detect.Threshold


@dataclass
class ExperimentReport:
    rows: List[ReportRow]
    timelines: Dict[Tuple[str, str], List[TimelineEntry]]
    config: dict


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from the JSON config-file schema."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    cfg = ExperimentConfig()
    known = {"dataset", "split", "feature_sets", "detectors", "train", "output_dir"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")

    dsrc = typed_value(doc.get("dataset", {}), dict, "dataset")
    extra = set(dsrc) - {"generate", "load"}
    if extra:
        raise ConfigError(f"unknown dataset keys {sorted(extra)}; "
                          "it holds generate or load")
    if "generate" in dsrc:
        cfg.generate = dataclass_from_dict(GeneratorConfig, dsrc["generate"],
                                           "dataset.generate")
    if "load" in dsrc:
        cfg.load = typed_value(dsrc["load"], str, "dataset.load")

    sp = doc.get("split", {})
    cfg.split = dataclass_from_dict(SplitSpec, sp, "split", skip=("seed",))
    cfg.split_seed = typed_value(sp.get("seed", 0), int, "split.seed")

    cfg.feature_sets = parse_feature_sets(doc.get("feature_sets", "all"))

    cfg.detectors = [parse_detector(d)
                     for d in typed_value(doc.get("detectors", []), list, "detectors")]
    cfg.train = dataclass_from_dict(TrainConfig, doc.get("train", {}), "train")
    cfg.output_dir = typed_value(doc.get("output_dir", "out"), str, "output_dir")
    return cfg


def parse_feature_sets(value) -> List[FeatureSetId]:
    if value == "all":
        return list(FEATURE_SET_ORDER)
    if isinstance(value, str):
        value = [v.strip() for v in value.split(",") if v.strip()]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f'feature_sets must be "all", a string or a list of '
                          f"strings, got {value!r:.40}")
    out = []
    for name in value:
        try:
            out.append(FeatureSetId[name.upper()])
        except KeyError:
            raise ConfigError(f"unknown feature set {name!r}; choose from "
                              f"{[fs.name for fs in FEATURE_SET_ORDER]}")
    return out


def parse_detector(value) -> DetectorSpec:
    """A detector from its kind name or from an object of DetectorSpec keys."""
    doc = {"kind": value} if isinstance(value, str) else value
    if not isinstance(doc, dict):
        raise ConfigError(f"a detector must be a name or an object, got {value!r:.40}")
    name = doc.get("kind")
    if not isinstance(name, str) or name.upper() not in DetectorKind.__members__:
        raise ConfigError(f"unknown detector kind {name!r}; choose from "
                          f"{[d.name for d in DetectorKind]}")
    kind = DetectorKind[name.upper()]
    train = doc.get("train")
    if train is not None:
        train = dataclass_from_dict(TrainConfig, train, f"train of detector {kind.name}")
    return dataclass_from_dict(DetectorSpec, doc, f"detector {kind.name}",
                               kind=kind, train=train)


def resolved_config_dict(cfg: ExperimentConfig) -> dict:
    return {
        "dataset": ({"generate": dataclasses.asdict(cfg.generate)}
                    if cfg.generate is not None else {"load": cfg.load}),
        "split": {**dataclasses.asdict(cfg.split), "seed": cfg.split_seed},
        "feature_sets": [fs.name for fs in cfg.feature_sets],
        "detectors": [{**dataclasses.asdict(d), "kind": d.kind.name}
                      for d in cfg.detectors],
        "train": dataclasses.asdict(cfg.train),
        "output_dir": str(cfg.output_dir),
    }


def _fit_detector(det: DetectorSpec, fs: FeatureSetId, train: np.ndarray,
                  traincfg: TrainConfig):
    """Fit one detector on the train windows; returns the fitted model."""
    if det.kind is DetectorKind.BM_PCA:
        return baseline.pca_fit(baseline.flat_windows(train),
                                variance_target=det.variance_target)
    if det.kind is DetectorKind.BM_IQR:
        return baseline.iqr_fit(baseline.flat_windows(train))
    combo_seed = derive_seed(traincfg.seed, det.kind.name, fs.name)
    channels, seed = channel_count(fs), derive_seed(combo_seed, "init")
    if det.kind is DetectorKind.DNN:
        ae = build_dnn(WINDOW_SIZE * channels, det.n, seed=seed)
    elif det.kind is DetectorKind.LSTM:
        ae = build_lstm(det.n, channels=channels, seed=seed)
    else:
        ae = build_cnn(channels=channels, bottleneck=det.cnn_bottleneck, seed=seed)
    ae.fit(train, dataclasses.replace(traincfg, seed=derive_seed(combo_seed, "train")))
    return ae


def _load_detector(kind: DetectorKind, fs: FeatureSetId, combo_dir: Path):
    """The model ``_fit_detector`` saved in ``combo_dir``."""
    path = combo_dir / kind.artifact
    if kind is DetectorKind.BM_PCA:
        return baseline.PcaModel.load(path)
    if kind is DetectorKind.BM_IQR:
        return baseline.IqrModel.load(path)
    return Autoencoder.load(path, kind, channel_count(fs))


def run_experiment(cfg: ExperimentConfig, dataset: Dataset = None) -> ExperimentReport:
    """Fit, evaluate and report the whole grid.

    ``dataset`` overrides the config's dataset source when given (used by
    tests that need to hand in an in-memory dataset).
    """
    return _pipeline(cfg, dataset, do_fit=True, do_eval=True)


def train_experiment(cfg: ExperimentConfig, dataset: Dataset = None) -> None:
    """Fit all combinations and write artifacts; no evaluation or report."""
    _pipeline(cfg, dataset, do_fit=True, do_eval=False)


def evaluate_experiment(cfg: ExperimentConfig, dataset: Dataset = None) -> ExperimentReport:
    """Score and report using artifacts a previous train/run left behind."""
    return _pipeline(cfg, dataset, do_fit=False, do_eval=True)


def _pipeline(cfg, dataset, do_fit, do_eval):
    cfg.validate()
    if dataset is not None:
        ds = dataset
    elif cfg.load is not None:
        ds = load_dataset(cfg.load)
    else:
        ds = generate_synthetic(cfg.generate)
    splits = dict(zip(("train", "threshold", "eval"),
                      split(ds, cfg.split, cfg.split_seed)))

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    resolved = resolved_config_dict(cfg)
    write_json(resolved, outdir / "config_resolved.json")

    # Only the splits this entry point fits on or scores: train_experiment
    # never touches the eval split.
    used = list(splits) if do_eval else ["train", "threshold"]
    rows = []
    timelines = {}
    runtimes = {}
    for fs in cfg.feature_sets:
        feats = {name: assemble_features(splits[name], fs) for name in used}
        fs_dir = outdir / "artifacts" / fs.value
        if do_fit:
            nz = fit_normalizer(feats["train"])
            fs_dir.mkdir(parents=True, exist_ok=True)
            nz.save(fs_dir / "normalizer.json", feature_set=fs.name)
        else:
            nz = Normalizer.load(fs_dir / "normalizer.json")
        arrays = {name: window(apply_normalizer(nz, values))
                  for name, values in feats.items()}

        for det in cfg.detectors:
            started = time.perf_counter()
            combo_tag = f"{det.kind.value}_{fs.value}"
            combo_dir = outdir / "artifacts" / combo_tag
            try:
                if do_fit:
                    model = _fit_detector(det, fs, arrays["train"],
                                          det.train or cfg.train)
                    combo_dir.mkdir(exist_ok=True)
                    model.save(combo_dir / det.kind.artifact)
                else:
                    model = _load_detector(det.kind, fs, combo_dir)
                    th = detect.Threshold.load(combo_dir / "threshold.json")
                scores = {name: model.window_errors(arrays[name])
                          for name in (splits if do_eval else ["threshold"])}
                if do_fit:
                    th = detect.calibrate_threshold(scores["threshold"])
                    th.save(combo_dir / "threshold.json")
            except PumpwatchError as e:
                raise type(e)(f"{det.kind.name} on {fs.name}: {e}")
            if not do_eval:
                runtimes[f"{det.kind.name}/{fs.name}"] = time.perf_counter() - started
                continue

            flags = {}
            entries = []
            for name, part in splits.items():
                flags[name] = []
                if not len(part):
                    continue
                # One row of window errors per sample, in split order.
                errs = scores[name].reshape(len(part), -1)
                sample_scores = detect.make_score(errs).tolist()
                for sample, row, score in zip(part, errs, sample_scores):
                    # One vote per sample: the traced benchmark counts
                    # detect.classify calls as classified samples.
                    flagged = bool(detect.classify(row, th)[1])
                    flags[name].append(flagged)
                    entries.append(TimelineEntry(
                        sample_id=sample.sample_id, timestamp=sample.timestamp,
                        score=score, threshold=th.value, flagged=flagged,
                        truth=sample.is_anomaly, split=name))
            entries.sort(key=lambda e: (e.timestamp, e.sample_id))
            metrics = detect.evaluate(flags["eval"],
                                      [s.is_anomaly for s in splits["eval"]])

            runtimes[f"{det.kind.name}/{fs.name}"] = time.perf_counter() - started
            timelines[(det.kind.name, fs.name)] = entries
            rows.append(ReportRow(detector=det, feature_set=fs, metrics=metrics,
                                  threshold=th))
            _write_timeline_csv(entries, outdir / f"timeline_{combo_tag}.csv")

    write_json(runtimes, outdir / "runtimes.json")
    if not do_eval:
        return None
    report = ExperimentReport(rows=rows, timelines=timelines, config=resolved)
    text, csv_text = render_tables(report)
    (outdir / "report.txt").write_text(text)
    (outdir / "report.csv").write_text(csv_text)
    write_json(_report_dict(report), outdir / "report.json")
    return report


def _report_dict(report: ExperimentReport) -> dict:
    return {"config": report.config,
            "rows": [{"detector": r.detector.kind.name,
                      "feature_set": r.feature_set.name,
                      "metrics": dataclasses.asdict(r.metrics),
                      "threshold": dataclasses.asdict(r.threshold)}
                     for r in report.rows]}


def load_report(path) -> ExperimentReport:
    """Rebuild a renderable report from a saved report.json."""
    doc = read_json(path)
    try:
        rows = [ReportRow(detector=DetectorSpec(kind=DetectorKind[r["detector"]]),
                          feature_set=FeatureSetId[r["feature_set"]],
                          metrics=dataclass_from_dict(
                              detect.Metrics, r["metrics"],
                              f"metrics of row {i} in {path}", error=UsageError),
                          threshold=dataclass_from_dict(
                              detect.Threshold, r["threshold"],
                              f"threshold of row {i} in {path}", error=UsageError))
                for i, r in enumerate(doc["rows"])]
    except (KeyError, TypeError) as e:
        raise UsageError(f"{path} is a malformed report: {e!r}")
    return ExperimentReport(rows=rows, timelines={}, config=doc.get("config", {}))


def _fmt2(v) -> str:
    """Two decimals, ties rounded half up (0.125 -> 0.13)."""
    if not np.isfinite(v):
        return "nan"
    return str(Decimal(repr(float(v))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def render_tables(report: ExperimentReport):
    """Aligned text tables plus CSV, one block per detector.

    Rows follow the canonical feature-set order; metric columns are Acc.,
    F1, P, R rounded to two decimals half-up, matching the precision used
    in the comparison tables this layout mirrors.
    """
    if not report.rows:
        raise UsageError("cannot render an empty report")
    by_detector = {}
    for row in report.rows:
        by_detector.setdefault(row.detector.kind, []).append(row)

    width = max(len(fs.label) for fs in FEATURE_SET_ORDER) + 2
    text_lines = ["Results of anomaly prediction per feature set and model",
                  "(eval split; accuracy, F1, precision, recall)", ""]
    csv_lines = ["detector,feature_set,accuracy,f1,precision,recall"]
    for kind, rows in by_detector.items():
        ordered = [r for fs in FEATURE_SET_ORDER for r in rows if r.feature_set is fs]
        text_lines.append(f"== {kind.label} ==")
        text_lines.append(f"{'Feature set':<{width}}{'Acc.':>6}{'F1':>6}{'P':>6}{'R':>6}")
        for r in ordered:
            m = r.metrics
            text_lines.append(f"{r.feature_set.label:<{width}}{_fmt2(m.accuracy):>6}"
                              f"{_fmt2(m.f1):>6}{_fmt2(m.precision):>6}{_fmt2(m.recall):>6}")
            csv_lines.append(f"{kind.label},{r.feature_set.label},{_fmt2(m.accuracy)},"
                             f"{_fmt2(m.f1)},{_fmt2(m.precision)},{_fmt2(m.recall)}")
        text_lines.append("")
    return "\n".join(text_lines), "\n".join(csv_lines) + "\n"


def _fmt_float(v) -> str:
    return repr(float(v))


def _write_timeline_csv(entries, path):
    lines = ["sample_id,timestamp,score,threshold,flagged,truth,split"]
    for e in entries:
        lines.append(f"{e.sample_id},{_fmt_float(e.timestamp)},{_fmt_float(e.score)},"
                     f"{_fmt_float(e.threshold)},{str(e.flagged).lower()},"
                     f"{str(e.truth).lower()},{e.split}")
    Path(path).write_text("\n".join(lines) + "\n")

