"""End-to-end experiment pipeline: dataset -> features -> detectors -> report.

An experiment runs a grid of (detector, feature set) combinations over one
dataset split, in stages that return values:

- prepare: the dataset's train, threshold and eval splits; an eval split
  with rows but no healthy one gives an ``EvalSplitWarning`` before
  anything is fitted, which the CLI raises as an error;
- features: per feature set, each split's normalized windows, shared by all
  detectors; the normalizer is fitted on the healthy train split or loaded.
  One split's features are built at a time and dropped once windowed;
- fit or load: per combination, ``_fit`` fits a model on the train windows,
  scores the splits it is given and calibrates the threshold on the healthy
  threshold split's error matrix; or the model and threshold are loaded;
- score: one (samples, windows) error matrix per split, each scored once,
  ``PREDICT_ROWS`` windows at a time into one preallocated vector;
- decide: each sample's majority-vote flag from its (1, windows) row, and
  the timeline: one array per column over all splits, in (timestamp,
  sample_id) order; the metrics of its eval rows, from two boolean arrays;
- write: the only stage that writes files.  It runs once every combination
  is done, so a failing call writes nothing.

``run_experiment`` fits (scoring every split) and decides, ``train_experiment``
fits (scoring the threshold split only), and ``evaluate_experiment`` loads and decides.
Each combination yields one ``Combination`` record, its report row; the
write stage reads nothing else, and each call returns the records it wrote:
``model`` and ``normalizer`` if the call fitted them, ``metrics`` and
``timeline`` if it decided, and ``seconds`` from fit or load to decide.  A
model is loaded by the kind the config names.  Every file but runtimes.json
is byte-deterministic.  A config, artifact or report.json is read back
through ``util.typed_fields``, the one reader of keys and types.

Output files, and the records they are written from:
    config_resolved.json, runtimes.json     every call; each record's seconds
    report.json / report.txt / report.csv   decided records
    timeline_{detector}_{featureset}.csv    a decided record's timeline
    artifacts/{featureset}/normalizer.json  a fitted normalizer
    artifacts/{detector}_{featureset}/      a fitted record: threshold.json
        and the model file that its row of ``models.DETECTORS`` names
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from dataclasses import dataclass, field, fields
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import detect
from .dataset import (Dataset, GeneratorConfig, SplitSpec, generate_synthetic,
                      load_dataset, split)
from .errors import ConfigError, EvalSplitWarning, PumpwatchError, UsageError
from .models import DETECTORS, DetectorKind
from .nn.network import by_chunks
from .nn.train import TrainConfig
from .rng import derive_seed
from .signal import (FEATURE_SET_ORDER, WINDOW_SIZE, FeatureSetId, Normalizer,
                     apply_normalizer, assemble_features, channel_count,
                     feature_length, fit_normalizer, window)
from .util import (check_keys, check_types_and_finiteness, dataclass_from_dict, field_types,
                   read_json, typed_fields, write_json)


@dataclass
class DetectorSpec:
    kind: DetectorKind
    n: int = 150
    cnn_bottleneck: int = 32
    variance_target: float = 0.95
    train: Optional[TrainConfig] = None

    def validate(self):
        check_types_and_finiteness(self)
        check_keys([f.name for f in fields(self) if getattr(self, f.name) != f.default],
                   ("kind", *DETECTORS[self.kind].keys), f"detector {self.kind.name}")
        DETECTORS[self.kind].check(self)
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
        check_types_and_finiteness(self)
        if (self.generate is None) == (self.load is None):
            raise ConfigError("exactly one of generate/load must be set")
        if not self.feature_sets:
            raise ConfigError("at least one feature set is required")
        if not self.detectors:
            raise ConfigError("at least one detector is required")
        for det in self.detectors:
            det.validate()
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


# A timeline's columns, one array each; the CSV adds the threshold after score.
TIMELINE_COLUMNS = ("sample_id", "timestamp", "score", "flagged", "truth", "split")


@dataclass
class Combination:
    """What one (detector, feature set) combination did; see the module docstring."""
    detector: DetectorSpec
    feature_set: FeatureSetId
    threshold: detect.Threshold
    metrics: Optional[detect.Metrics] = None
    model: object = None
    normalizer: Optional[Normalizer] = None
    timeline: Optional[Dict[str, np.ndarray]] = None
    seconds: float = 0.0


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from the JSON config-file schema."""
    doc = typed_fields(doc, {"dataset": dict, "split": dict, "feature_sets": object,
                             "detectors": list, "train": dict, "output_dir": str}, "the config")
    dsrc = typed_fields(doc.get("dataset", {}), {"generate": dict, "load": str}, "dataset")
    sp = typed_fields(doc.get("split", {}), {**field_types(SplitSpec), "seed": int}, "split")
    return ExperimentConfig(
        generate=(dataclass_from_dict(GeneratorConfig, dsrc["generate"], "dataset.generate")
                  if "generate" in dsrc else None),
        load=dsrc.get("load"),
        split=SplitSpec(**{key: value for key, value in sp.items() if key != "seed"}),
        split_seed=sp.get("seed", 0),
        feature_sets=parse_feature_sets(doc.get("feature_sets", "all")),
        detectors=[parse_detector(d) for d in doc.get("detectors", [])],
        train=dataclass_from_dict(TrainConfig, doc.get("train", {}), "train"),
        output_dir=doc.get("output_dir", "out"))


def parse_feature_sets(value) -> List[FeatureSetId]:
    if value == "all":
        return list(FEATURE_SET_ORDER)
    if isinstance(value, str):
        value = [v.strip() for v in value.split(",") if v.strip()]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f'feature_sets must be "all", a string or a list of '
                          f"strings, got {value!r:.40}")
    unknown = [name for name in value if name.upper() not in FeatureSetId.__members__]
    if unknown:
        raise ConfigError(f"unknown feature set {unknown[0]!r}; choose from "
                          f"{[fs.name for fs in FEATURE_SET_ORDER]}")
    return [FeatureSetId[name.upper()] for name in value]


def parse_detector(value) -> DetectorSpec:
    """A detector from its kind name or from an object of the keys its kind reads."""
    doc = {"kind": value} if isinstance(value, str) else value
    if not isinstance(doc, dict):
        raise ConfigError(f"a detector must be a name or an object, got {value!r:.40}")
    name = doc.get("kind")
    if not isinstance(name, str) or name.upper() not in DetectorKind.__members__:
        raise ConfigError(f"unknown detector kind {name!r}; choose from "
                          f"{[d.name for d in DetectorKind]}")
    kind = DetectorKind[name.upper()]
    what = f"detector {kind.name}"
    types = {**field_types(DetectorSpec), "kind": str, "train": object}
    values = typed_fields(doc, {k: types[k] for k in ("kind", *DETECTORS[kind].keys)}, what)
    if values.get("train") is not None:  # the config echo writes null for no train
        values["train"] = dataclass_from_dict(TrainConfig, values["train"], f"train of {what}")
    return DetectorSpec(**{**values, "kind": kind})


def resolved_config_dict(cfg: ExperimentConfig) -> dict:
    return {
        "dataset": ({"generate": dataclasses.asdict(cfg.generate)}
                    if cfg.generate is not None else {"load": cfg.load}),
        "split": {**dataclasses.asdict(cfg.split), "seed": cfg.split_seed},
        "feature_sets": [fs.name for fs in cfg.feature_sets],
        "detectors": [{"kind": d.kind.name, **{k: dataclasses.asdict(d)[k]
                                               for k in DETECTORS[d.kind].keys}}
                      for d in cfg.detectors],
        "train": dataclasses.asdict(cfg.train),
        "output_dir": cfg.output_dir,
    }


def _prepare(cfg: ExperimentConfig, dataset: Optional[Dataset], decide=True):
    """Prepare stage: the train and threshold splits of the dataset, and its
    eval split if the call decides; an eval split with rows but no healthy
    one gives an ``EvalSplitWarning``."""
    cfg.validate()
    if dataset is None:
        dataset = (load_dataset(cfg.load) if cfg.load is not None
                   else generate_synthetic(cfg.generate))
    splits = dict(zip(("train", "threshold", "eval"),
                      split(dataset, cfg.split, cfg.split_seed)))
    if not decide:
        del splits["eval"]  # no eval features are built
    elif len(splits["eval"]) and splits["eval"].is_anomaly.all():
        healthy = ", ".join(f"{name} {int((~part.is_anomaly).sum())}"
                            for name, part in splits.items())
        warnings.warn(EvalSplitWarning(
            f"the eval split holds no healthy sample, so no false positive can lower "
            f"its precision (healthy samples: {healthy}); lower train_frac or "
            f"threshold_frac"),
            stacklevel=3)
    return splits


def _features(fs: FeatureSetId, splits, normalizer):
    """Features stage: ``normalizer(fs, train features)`` and each split's windows.

    The splits start with train.  One split's features are built at a time:
    the raw copy is dropped once normalized and the normalized copy once
    windowed, so at most two arrays of one split are alive beside the
    windows.
    """
    nz, windows = None, {}
    for name, part in splits.items():
        values = assemble_features(part, fs)
        if name == "train":
            nz = normalizer(fs, values)
        values = apply_normalizer(nz, values)
        windows[name] = window(values)
        del values
    return nz, windows


def _score(model, fs: FeatureSetId, windows) -> Dict[str, np.ndarray]:
    """Score stage: each split's (samples, windows) matrix of window errors.

    ``window_errors`` runs on ``PREDICT_ROWS`` windows at a time, so no
    detector holds a temporary the size of a whole split.
    """
    per_sample = feature_length(fs) // WINDOW_SIZE
    return {name: by_chunks(model.window_errors, w).reshape(-1, per_sample)
            for name, w in windows.items()}


def _fit(cfg: ExperimentConfig, scored, det: DetectorSpec, fs: FeatureSetId, nz, windows):
    """Fit stage: a model fitted on the train windows, scored on the ``scored``
    splits and calibrated on the threshold split's errors: (``Combination``, errors)."""
    traincfg = det.train or cfg.train
    combo_seed = derive_seed(traincfg.seed, det.kind.name, fs.name)
    model = DETECTORS[det.kind].fit(det, windows["train"], dataclasses.replace(
        traincfg, seed=derive_seed(combo_seed, "train")), derive_seed(combo_seed, "init"))
    errors = _score(model, fs, {name: windows[name] for name in scored})
    th = detect.calibrate_threshold(errors["threshold"])
    return Combination(det, fs, th, model=model, normalizer=nz), errors


def _decide(combo: Combination, errors, splits) -> Combination:
    """Decide stage: the ``TIMELINE_COLUMNS`` in (timestamp, sample_id) order,
    and the metrics of their eval rows."""
    columns = [(part.sample_id, part.timestamp, detect.make_score(errors[name]),
                # One classify call per sample: the traced benchmark counts the calls.
                np.array([detect.classify(row[None], combo.threshold)[1][0]
                          for row in errors[name]], dtype=bool),
                part.is_anomaly, np.full(len(part), name))
               for name, part in splits.items()]
    timeline = dict(zip(TIMELINE_COLUMNS, map(np.concatenate, zip(*columns))))
    order = np.lexsort((timeline["sample_id"], timeline["timestamp"]))
    timeline = {name: values[order] for name, values in timeline.items()}
    ev = timeline["split"] == "eval"
    metrics = detect.evaluate(timeline["flagged"][ev], timeline["truth"][ev])
    return dataclasses.replace(combo, metrics=metrics, timeline=timeline)


def _grid(cfg: ExperimentConfig, splits, normalizer, combination) -> List[Combination]:
    """Each ``combination(det, fs, normalizer, windows)``, timed and named."""
    combos = []
    for fs in cfg.feature_sets:
        nz, windows = _features(fs, splits, normalizer)
        for det in cfg.detectors:
            started = time.perf_counter()
            try:
                combo = combination(det, fs, nz, windows)
            except PumpwatchError as e:
                # Named in place, so its type, attributes and cause stay.
                e.args = (f"{det.kind.name} on {fs.name}: {e}",)
                raise
            combos.append(dataclasses.replace(combo, seconds=time.perf_counter() - started))
        del windows  # freed before the next feature set's windows are built
    return combos


def run_experiment(cfg: ExperimentConfig, dataset: Dataset = None) -> List[Combination]:
    """Fit, evaluate and report the whole grid; the decided rows."""
    splits = _prepare(cfg, dataset)
    return _write(cfg, _grid(cfg, splits, lambda fs, train: fit_normalizer(train, fs.name),
                             lambda *args: _decide(*_fit(cfg, splits, *args), splits)))


def train_experiment(cfg: ExperimentConfig, dataset: Dataset = None) -> List[Combination]:
    """Fit all combinations and write artifacts; the fitted rows, with no
    metrics or timeline."""
    splits = _prepare(cfg, dataset, decide=False)
    return _write(cfg, _grid(cfg, splits, lambda fs, train: fit_normalizer(train, fs.name),
                             lambda *args: _fit(cfg, ["threshold"], *args)[0]))


def evaluate_experiment(cfg: ExperimentConfig, dataset: Dataset = None) -> List[Combination]:
    """Score and report using artifacts a previous train/run left behind; the
    decided rows."""
    splits = _prepare(cfg, dataset)
    artifacts = Path(cfg.output_dir) / "artifacts"

    def normalizer(fs, _):
        path = artifacts / fs.value / "normalizer.json"
        nz = Normalizer.load(path)
        if len(nz.mins) != channel_count(fs):
            raise UsageError(f"{path} holds {len(nz.mins)} channels, feature set "
                             f"{fs.name} has {channel_count(fs)}")
        if nz.feature_set != fs.name:
            raise UsageError(f"{path} was fitted on feature set {nz.feature_set!r}, "
                             f"not {fs.name}")
        return nz

    def combination(det, fs, nz, windows):
        combo_dir = artifacts / f"{det.kind.value}_{fs.value}"
        model = DETECTORS[det.kind].load(combo_dir / DETECTORS[det.kind].artifact)
        th = detect.Threshold.load(combo_dir / "threshold.json")
        return _decide(Combination(det, fs, th), _score(model, fs, windows), splits)

    return _write(cfg, _grid(cfg, splits, normalizer, combination))


def _write(cfg: ExperimentConfig, combos: List[Combination]) -> List[Combination]:
    """Write stage: every file of the output directory, from the records
    alone; the records."""
    outdir = Path(cfg.output_dir)
    artifacts = outdir / "artifacts"
    outdir.mkdir(parents=True, exist_ok=True)
    resolved = resolved_config_dict(cfg)
    write_json(resolved, outdir / "config_resolved.json")
    fitted = {c.feature_set: c.normalizer for c in combos if c.normalizer is not None}
    for fs, nz in fitted.items():
        (artifacts / fs.value).mkdir(parents=True, exist_ok=True)
        nz.save(artifacts / fs.value / "normalizer.json")
    for c in combos:
        tag = f"{c.detector.kind.value}_{c.feature_set.value}"
        if c.model is not None:
            (artifacts / tag).mkdir(exist_ok=True)
            c.model.save(artifacts / tag / DETECTORS[c.detector.kind].artifact)
            c.threshold.save(artifacts / tag / "threshold.json")
        if c.metrics is not None:
            th = repr(float(c.threshold.value))
            rows = zip(*(c.timeline[name].tolist() for name in TIMELINE_COLUMNS))
            (outdir / f"timeline_{tag}.csv").write_text("".join(
                ["sample_id,timestamp,score,threshold,flagged,truth,split\n"]
                + [f"{i},{t!r},{score!r},{th},{str(flagged).lower()},{str(truth).lower()},{part}\n"
                   for i, t, score, flagged, truth, part in rows]))
    write_json({f"{c.detector.kind.name}/{c.feature_set.name}": c.seconds for c in combos},
               outdir / "runtimes.json")
    if all(c.metrics is not None for c in combos):
        text, csv_text = render_tables(combos)
        (outdir / "report.txt").write_text(text)
        (outdir / "report.csv").write_text(csv_text)
        write_json({"config": resolved,
                    "rows": [{"detector": c.detector.kind.name,
                              "feature_set": c.feature_set.name,
                              "metrics": dataclasses.asdict(c.metrics),
                              "threshold": dataclasses.asdict(c.threshold)}
                             for c in combos]}, outdir / "report.json")
    return combos


_REPORT_ROW = {"detector": str, "feature_set": str, "metrics": dict, "threshold": dict}


def load_report(path) -> List[Combination]:
    """The rows of a saved report.json, as ``_write`` writes it, for ``render_tables``."""
    doc = typed_fields(read_json(path), {"config": dict, "rows": list}, str(path), UsageError,
                       required=("rows",))
    rows = [typed_fields(r, _REPORT_ROW, f"row {i} of {path}", UsageError, required=_REPORT_ROW)
            for i, r in enumerate(doc["rows"])]
    try:
        return [Combination(DetectorSpec(DetectorKind[r["detector"]]),
                            FeatureSetId[r["feature_set"]],
                            dataclass_from_dict(detect.Threshold, r["threshold"],
                                                f"threshold of row {i} of {path}", UsageError),
                            dataclass_from_dict(detect.Metrics, r["metrics"],
                                                f"metrics of row {i} of {path}", UsageError))
                for i, r in enumerate(rows)]
    except KeyError as e:
        raise UsageError(f"{path} names an unknown detector or feature set: {e}")


def _fmt2(v) -> str:
    """Two decimals, ties rounded half up (0.125 -> 0.13)."""
    if not np.isfinite(v):
        return "nan"
    return str(Decimal(repr(float(v))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def render_tables(rows: List[Combination]):
    """Aligned text tables plus CSV, one block per detector.

    Rows follow the canonical feature-set order; metric columns are Acc.,
    F1, P, R rounded to two decimals half-up, as in the tables mirrored.
    """
    if not rows:
        raise UsageError("cannot render an empty report")
    ordered = sorted(rows, key=lambda r: FEATURE_SET_ORDER.index(r.feature_set))
    width = max(len(fs.label) for fs in FEATURE_SET_ORDER) + 2
    text_lines = ["Results of anomaly prediction per feature set and model",
                  "(eval split; accuracy, F1, precision, recall)", ""]
    csv_lines = ["detector,feature_set,accuracy,f1,precision,recall"]
    for kind in dict.fromkeys(r.detector.kind for r in rows):
        text_lines.append(f"== {kind.label} ==")
        text_lines.append(f"{'Feature set':<{width}}{'Acc.':>6}{'F1':>6}{'P':>6}{'R':>6}")
        for r in [row for row in ordered if row.detector.kind is kind]:
            m = r.metrics
            text_lines.append(f"{r.feature_set.label:<{width}}{_fmt2(m.accuracy):>6}"
                              f"{_fmt2(m.f1):>6}{_fmt2(m.precision):>6}{_fmt2(m.recall):>6}")
            csv_lines.append(f"{kind.label},{r.feature_set.label},{_fmt2(m.accuracy)},"
                             f"{_fmt2(m.f1)},{_fmt2(m.precision)},{_fmt2(m.recall)}")
        text_lines.append("")
    return "\n".join(text_lines), "\n".join(csv_lines) + "\n"

