"""The benchmark's workloads: set-up, the timed pipeline call, output checks.

Every workload draws its dataset from one synthetic generator config, with
the workload seed as the generator seed; only the anomaly noise gain is set
per workload.  The gain decides what F1 can catch.  Loud anomalies are
found by their energy alone, so a model that barely trained still scores
F1 = 1.0: at 1.7, a zeroed LSTM or Conv1D backward left F1 at 1.0.  The two
training workloads therefore use 1.4, where those broken gradients drop
F1 by 13% and more while the correct code stays near 1.0 on every seed.
``score_saved`` trains nothing in its timed call and keeps 1.7: lower gains
left its PCA combinations between 0.16 and 0.84 depending on the seed, too
spread for a metric compared across seeds.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List

from pumpwatch import dataset, harness
from pumpwatch.dataset import GeneratorConfig
from pumpwatch.harness import DetectorKind, DetectorSpec, ExperimentConfig
from pumpwatch.nn.train import TrainConfig
from pumpwatch.signal import FEATURE_SET_ORDER, FeatureSetId

GENERATOR = dict(base_amplitude=0.25, noise_std=0.5, anomaly_harmonic_gain=1.05)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MiB", "f1_mean": "ratio", "f1_min": "ratio"}

TIMELINE_HEADER = ["sample_id", "timestamp", "score", "threshold", "flagged",
                   "truth", "split"]


@dataclass
class Workload:
    name: str
    entry: str  # "run_experiment" or "evaluate_experiment" in harness
    samples_per_condition: int
    anomaly_noise_gain: float
    feature_sets: List[FeatureSetId]
    detectors: List[DetectorSpec]
    # Span names the traced run must record; a silent one means a probe
    # was bound where the pipeline does not look the name up.
    exercised: List[str]

    def call(self, cfg: ExperimentConfig):
        # Looked up on the module at call time, like every pumpwatch name the
        # benchmark calls, so that a traced run sees its own wrappers.
        return getattr(harness, self.entry)(cfg)

    @property
    def combos(self):
        return [(d.kind.name, fs.name) for fs in self.feature_sets
                for d in self.detectors]

    def generator(self, seed) -> GeneratorConfig:
        return GeneratorConfig(n_samples_per_condition=self.samples_per_condition,
                               anomaly_noise_gain=self.anomaly_noise_gain,
                               seed=seed, **GENERATOR)

    def setup(self, workdir: Path, seed: int) -> Prepared:
        """Prepare the timed call: its config and what its outputs must hold.

        The dataset is generated and split here so that the checks know
        every sample id and the eval size.  ``score_saved`` also writes the
        dataset file and pre-trains the artifacts its evaluate call loads.
        """
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        out = str(workdir / "out")
        gen = self.generator(seed)
        ds = dataset.generate_synthetic(gen)
        cfg = ExperimentConfig(generate=gen, feature_sets=self.feature_sets,
                               detectors=self.detectors, output_dir=out)
        n_eval = len(dataset.split(ds, cfg.split, cfg.split_seed)[2])
        if self.entry == "evaluate_experiment":
            path = workdir / "pumps.jsonl"
            dataset.save_dataset(ds, path)
            harness.train_experiment(cfg, dataset=ds)
            cfg = replace(cfg, generate=None, load=str(path))
        return Prepared(cfg, [s.sample_id for s in ds], n_eval)

    def check(self, prep: Prepared) -> List[str]:
        """Names of the combinations whose written outputs are wrong.

        A combination is wrong when it is missing from report.json, when its
        timeline lacks a row for some sample or holds a non-finite score or
        threshold, or when its confusion counts do not sum to the eval size.
        """
        outdir = Path(prep.cfg.output_dir)
        report = json.loads((outdir / "report.json").read_text())
        rows = {(r["detector"], r["feature_set"]): r for r in report["rows"]}
        bad = []
        for det, fs in self.combos:
            row = rows.get((det, fs))
            path = outdir / f"timeline_{det.lower()}_{fs.lower()}.csv"
            if row is None or not _timeline_ok(path, prep, row):
                bad.append(f"{det}/{fs}")
        return bad


@dataclass
class Prepared:
    cfg: ExperimentConfig
    sample_ids: List[int]
    n_eval: int


def _timeline_ok(path: Path, prep: Prepared, row: dict) -> bool:
    if not path.exists():
        return False
    with open(path, newline="") as f:
        lines = list(csv.reader(f))
    if lines[0] != TIMELINE_HEADER:
        return False
    body = lines[1:]
    if sorted(int(r[0]) for r in body) != prep.sample_ids:
        return False
    if not all(math.isfinite(float(r[2])) and math.isfinite(float(r[3])) for r in body):
        return False
    m = row["metrics"]
    return (m["tp"] + m["fp"] + m["tn"] + m["fn"] == prep.n_eval
            == sum(1 for r in body if r[6] == "eval")
            and math.isfinite(row["threshold"]["value"]) and math.isfinite(m["f1"]))


def _layers(*kinds):
    return [f"nn.layers.{k}.{d}" for k in kinds for d in ("forward", "backward")]


_FIT = ["dataset.generate", "signal.features", "signal.normalize", "signal.window",
        "rng.permutation", "nn.optim.adam_step", "nn.network.predict",
        "nn.network.save", "nn.train.fit", "models.window_errors",
        "detect.calibrate", "detect.make_score", "detect.classify", "detect.evaluate"]

WORKLOADS = {w.name: w for w in (
    # The recurrent step loop does almost all the work, about 40% of it in
    # forward-only scoring.  Three epochs, not two, to steady F1 across seeds:
    # at gain 1.4, F1 read 1.0 on six of ten seeds after two epochs and on
    # eight of ten after three.
    Workload(
        name="train_recurrent",
        entry="run_experiment", samples_per_condition=8, anomaly_noise_gain=1.4,
        feature_sets=[FeatureSetId.VIB3D],
        detectors=[DetectorSpec(kind=DetectorKind.LSTM, n=64,
                                train=TrainConfig(batch_size=64, max_epochs=3))],
        exercised=_FIT + _layers("LSTM", "Dense")),
    # Hundreds of small training steps: per-call overhead in Adam, the
    # shuffle, Conv1D, pooling and Dense dominates.  VIB1D_AUDIO, not an FFT
    # set, because the CNN at 5 epochs flags no sample on FFT features
    # (F1 = 0 on every seed tried).
    Workload(
        name="train_conv_dense",
        entry="run_experiment", samples_per_condition=8, anomaly_noise_gain=1.4,
        feature_sets=[FeatureSetId.VIB3D, FeatureSetId.VIB1D_AUDIO],
        # Patience 40 keeps early stopping from cutting the work by seed.
        detectors=[DetectorSpec(kind=DetectorKind.DNN, n=150,
                                train=TrainConfig(max_epochs=40,
                                                  early_stop_patience=40)),
                   DetectorSpec(kind=DetectorKind.CNN,
                                train=TrainConfig(batch_size=32, max_epochs=5))],
        exercised=_FIT + _layers("Conv1D", "MaxPool1D", "Upsample1D", "Dense",
                                 "Tanh")),
    # The monitoring path: load a dataset file and score it against saved
    # artifacts on every feature set; nothing trains.
    Workload(
        name="score_saved",
        entry="evaluate_experiment", samples_per_condition=60, anomaly_noise_gain=1.7,
        feature_sets=list(FEATURE_SET_ORDER),
        detectors=[DetectorSpec(kind=DetectorKind.DNN, n=150,
                                train=TrainConfig(max_epochs=3)),
                   DetectorSpec(kind=DetectorKind.BM_PCA),
                   DetectorSpec(kind=DetectorKind.BM_IQR)],
        exercised=["dataset.save", "baseline.pca_fit", "baseline.iqr_fit",
                   "dataset.load", "signal.features", "signal.normalize",
                   "signal.window", "nn.network.load", "nn.network.predict",
                   "models.window_errors", "baseline.pca_scores",
                   "baseline.outlier_ratios", "detect.make_score",
                   "detect.classify", "detect.evaluate",
                   "nn.layers.Dense.forward", "nn.layers.Tanh.forward"]),
)}


def all_combos():
    """Every workload's (detector, feature set) pairs, each once, in order."""
    seen = []
    for wl in WORKLOADS.values():
        seen += [c for c in wl.combos if c not in seen]
    return seen
