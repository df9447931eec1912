"""Tests for the benchmark's own code: spans, probe installation, checks."""

import json
import sys
from pathlib import Path

from pumpwatch import signal
from pumpwatch.dataset import GeneratorConfig
from pumpwatch.harness import (DetectorKind, DetectorSpec, ExperimentConfig,
                               run_experiment)
from pumpwatch.signal import FeatureSetId

from layers import PROBES, layer_values, metric_units, silent
from tracing import Tracer, install, self_times
from workloads import END_TO_END_UNITS, Workload, all_combos


def _tiny_config(outdir):
    return ExperimentConfig(
        generate=GeneratorConfig(n_samples_per_condition=6, seed=3),
        feature_sets=[FeatureSetId.VIB1D],
        detectors=[DetectorSpec(kind=DetectorKind.BM_IQR)],
        output_dir=str(outdir))


def _bindings():
    """Every attribute of every pumpwatch module and class, by identity."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("pumpwatch"):
            continue
        for attr, value in vars(mod).items():
            seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for meth, raw in vars(value).items():
                    seen[(name, attr, meth)] = raw
    return seen


def test_self_time_on_nested_spans():
    # root [0, 10] > a [1, 6] > b [2, 5]; root > c [7, 9]
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def a():
        tracer.call("b", lambda: None, (), {})

    with tracer.region("root"):
        tracer.call("a", a, (), {})
        tracer.call("c", lambda: None, (), {})
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("root", -1), ("a", 0), ("b", 1), ("c", 0)]
    assert self_times(tracer.spans) == [3.0, 2.0, 3.0, 2.0]


def test_tracer_records_parent_and_count():
    tracer = Tracer()
    with tracer.region("root"):
        tracer.call("inner", lambda xs: xs[::-1], ([1, 2, 3],), {},
                    count=lambda args, kwargs, result: len(result))
    root, inner = tracer.spans
    assert root[3] == -1 and inner[3] == 0 and inner[4] == 3
    assert root[1] <= inner[1] <= inner[2] <= root[2]


def test_install_records_every_layer_and_restores_originals(tmp_path):
    before = _bindings()
    tracer = Tracer()
    inst = install(tracer, PROBES)
    try:
        assert _bindings() != before
        with tracer.region("harness.run_experiment"):
            run_experiment(_tiny_config(tmp_path))
    finally:
        inst.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    expected = ["dataset.generate", "signal.features", "signal.normalize",
                "signal.window", "baseline.iqr_fit", "baseline.outlier_ratios",
                "detect.calibrate", "detect.make_score", "detect.classify",
                "detect.evaluate"]
    assert silent(tracer.spans, tracer.spans, expected) == []
    values = layer_values(tracer.spans, tracer.spans)
    assert values["signal.windows"] == 30 * 16
    assert values["detect.classify_calls"] == 30
    assert 0.0 < values["harness.self_s"] < tracer.spans[0][2] - tracer.spans[0][1]


def test_wrapping_only_the_defining_module_is_caught_as_silent(tmp_path):
    # harness did ``from .signal import window``: rebinding signal.window
    # alone leaves the harness calling the original.
    tracer = Tracer()
    original = signal.window
    signal.window = lambda *a, **k: tracer.call("signal.window", original, a, k)
    try:
        with tracer.region("harness.run_experiment"):
            run_experiment(_tiny_config(tmp_path))
    finally:
        signal.window = original
    assert silent(tracer.spans, [], ["signal.window"]) == ["signal.window"]


def test_output_checks_flag_a_missing_timeline_row(tmp_path):
    wl = Workload(name="tiny", entry="run_experiment",
                  samples_per_condition=6, anomaly_noise_gain=2.0,
                  feature_sets=[FeatureSetId.VIB1D],
                  detectors=[DetectorSpec(kind=DetectorKind.BM_IQR)], exercised=[])
    prep = wl.setup(tmp_path / "work", seed=3)
    wl.call(prep.cfg)
    assert wl.check(prep) == []

    timeline = tmp_path / "work" / "out" / "timeline_bm_iqr_vib1d.csv"
    lines = timeline.read_text().splitlines()
    timeline.write_text("\n".join(lines[:-1]) + "\n")
    assert wl.check(prep) == ["BM_IQR/VIB1D"]


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())

    def listed(key):
        return {m["name"]: m["unit"] for m in spec[key]}

    assert listed("end_to_end") == END_TO_END_UNITS
    assert listed("per_layer") == metric_units(all_combos())
