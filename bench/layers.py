"""Which pumpwatch callables the traced run wraps, and the per-layer metrics.

A layer is a pumpwatch module.  ``nn.gradcheck`` (test-only) and ``cli``
(argument parsing in front of ``harness``) are not probed.  Layer kinds
without a probe (Flatten, Reshape, RepeatLast) count towards the self time
of the span that called them.
"""

from __future__ import annotations

import os
import statistics

from tracing import COUNT, END, NAME, PARENT, START, Probe, self_times

LAYER_KINDS = ("LSTM", "Conv1D", "MaxPool1D", "Upsample1D", "Dense", "Tanh")


def _window_count(args, kwargs, result):
    return len(args[1])


PROBES = [
    Probe("pumpwatch.dataset:generate_synthetic", "dataset.generate"),
    Probe("pumpwatch.dataset:save_dataset", "dataset.save"),
    Probe("pumpwatch.dataset:load_dataset", "dataset.load",
          lambda args, kwargs, result: os.path.getsize(args[0])),
    Probe("pumpwatch.signal:assemble_features", "signal.features"),
    Probe("pumpwatch.signal:fit_normalizer", "signal.normalize"),
    Probe("pumpwatch.signal:apply_normalizer", "signal.normalize"),
    Probe("pumpwatch.signal:window", "signal.window",
          lambda args, kwargs, result: len(result)),
    Probe("pumpwatch.rng:SplitMix64.permutation", "rng.permutation"),
    *[Probe(f"pumpwatch.nn.layers:{kind}.{direction}",
            f"nn.layers.{kind}.{direction}")
      for kind in LAYER_KINDS for direction in ("forward", "backward")],
    Probe("pumpwatch.nn.optim:Adam.step", "nn.optim.adam_step"),
    Probe("pumpwatch.nn.network:Network.predict", "nn.network.predict",
          _window_count),
    Probe("pumpwatch.nn.network:Network.save", "nn.network.save"),
    Probe("pumpwatch.nn.network:Network.load", "nn.network.load"),
    Probe("pumpwatch.nn.train:train", "nn.train.fit",
          lambda args, kwargs, result: result.epochs_run),
    Probe("pumpwatch.models:Autoencoder.window_errors", "models.window_errors",
          _window_count),
    Probe("pumpwatch.baseline:pca_fit", "baseline.pca_fit"),
    Probe("pumpwatch.baseline:pca_scores", "baseline.pca_scores"),
    Probe("pumpwatch.baseline:iqr_fit", "baseline.iqr_fit"),
    Probe("pumpwatch.baseline:outlier_ratios", "baseline.outlier_ratios"),
    Probe("pumpwatch.detect:calibrate_threshold", "detect.calibrate"),
    Probe("pumpwatch.detect:make_score", "detect.make_score"),
    Probe("pumpwatch.detect:classify", "detect.classify"),
    Probe("pumpwatch.detect:evaluate", "detect.evaluate"),
]

# Functions that run only in set-up: their metric is taken from the traced
# set-up instead of the traced call (score_saved writes its dataset file and
# fits its baselines there).
SETUP_SPANS = ("dataset.save", "baseline.pca_fit", "baseline.iqr_fit")

# metric name -> (span name, what to take, unit)
_SPAN_METRICS = {
    "dataset.generate_s": ("dataset.generate", "time", "s"),
    "dataset.save_s": ("dataset.save", "time", "s"),
    "dataset.load_s": ("dataset.load", "time", "s"),
    "dataset.load_bytes": ("dataset.load", "count", "bytes"),
    "signal.features_s": ("signal.features", "time", "s"),
    "signal.normalize_s": ("signal.normalize", "time", "s"),
    "signal.window_s": ("signal.window", "time", "s"),
    "signal.windows": ("signal.window", "count", "count"),
    "rng.permutation_s": ("rng.permutation", "time", "s"),
    "rng.permutation_calls": ("rng.permutation", "calls", "count"),
    **{f"nn.layers.{kind}.{name}": (f"nn.layers.{kind}.{direction}", what, unit)
       for kind in LAYER_KINDS
       for name, direction, what, unit in (
           ("forward_s", "forward", "time", "s"),
           ("backward_s", "backward", "time", "s"),
           ("forward_ms_p50", "forward", "p50_ms", "ms"),
           ("backward_ms_p50", "backward", "p50_ms", "ms"))},
    "nn.optim.adam_step_s": ("nn.optim.adam_step", "time", "s"),
    "nn.optim.adam_steps": ("nn.optim.adam_step", "calls", "count"),
    "nn.network.predict_s": ("nn.network.predict", "time", "s"),
    "nn.network.predict_windows": ("nn.network.predict", "count", "count"),
    "nn.network.save_s": ("nn.network.save", "time", "s"),
    "nn.network.load_s": ("nn.network.load", "time", "s"),
    "nn.train.fit_s": ("nn.train.fit", "time", "s"),
    "nn.train.epochs_run": ("nn.train.fit", "count", "count"),
    "models.window_errors_s": ("models.window_errors", "time", "s"),
    "models.windows_scored": ("models.window_errors", "count", "count"),
    "baseline.pca_fit_s": ("baseline.pca_fit", "time", "s"),
    "baseline.pca_scores_s": ("baseline.pca_scores", "time", "s"),
    "baseline.iqr_fit_s": ("baseline.iqr_fit", "time", "s"),
    "baseline.outlier_ratios_s": ("baseline.outlier_ratios", "time", "s"),
    "detect.calibrate_s": ("detect.calibrate", "time", "s"),
    "detect.make_score_s": ("detect.make_score", "time", "s"),
    "detect.classify_s": ("detect.classify", "time", "s"),
    "detect.classify_calls": ("detect.classify", "calls", "count"),
    "detect.evaluate_s": ("detect.evaluate", "time", "s"),
}


def metric_units(combos):
    """Every per-layer metric name with its unit, in report order."""
    units = {name: unit for name, (_, _, unit) in _SPAN_METRICS.items()}
    for kind in LAYER_KINDS:
        units[f"nn.layers.{kind}.calls"] = "count"
    units["nn.train.steps"] = "count"
    units["harness.self_s"] = "s"
    for det, fs in combos:
        units[f"harness.combo_s.{det}.{fs}"] = "s"
    units["trace_overhead_ratio"] = "ratio"
    return units


def _summaries(spans):
    by_name = {}
    for s in spans:
        entry = by_name.setdefault(s[NAME], {"time": 0.0, "count": 0, "calls": 0,
                                             "durations": []})
        entry["time"] += s[END] - s[START]
        entry["count"] += s[COUNT]
        entry["calls"] += 1
        entry["durations"].append(s[END] - s[START])
    for entry in by_name.values():
        entry["p50_ms"] = 1000.0 * statistics.median(entry["durations"])
    return by_name


def layer_values(call_spans, setup_spans):
    """Per-layer values from one traced call (root span first) and set-up."""
    call, setup = _summaries(call_spans), _summaries(setup_spans)
    out = {}
    for metric, (span, what, _) in _SPAN_METRICS.items():
        entry = (setup if span in SETUP_SPANS else call).get(span)
        out[metric] = entry[what] if entry else 0
    for kind in LAYER_KINDS:
        out[f"nn.layers.{kind}.calls"] = sum(
            call.get(f"nn.layers.{kind}.{d}", {}).get("calls", 0)
            for d in ("forward", "backward"))
    fits = {i for i, s in enumerate(call_spans) if s[NAME] == "nn.train.fit"}
    out["nn.train.steps"] = sum(1 for s in call_spans
                                if s[NAME] == "nn.optim.adam_step" and s[PARENT] in fits)
    out["harness.self_s"] = self_times(call_spans)[0]
    return out


def silent(call_spans, setup_spans, expected):
    """Names in ``expected`` that recorded no span where their metric is read."""
    seen = ({s[NAME] for s in call_spans}
            | ({s[NAME] for s in setup_spans} & set(SETUP_SPANS)))
    return [name for name in expected if name not in seen]
