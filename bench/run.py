"""Run one pumpwatch benchmark workload and print its metrics.

    python3 bench/run.py --workload train_recurrent --seed 1 --seconds 20 --trace 0

The workload is set up ``SETUP_REPEATS`` times and its pipeline call
(``harness.run_experiment`` or ``harness.evaluate_experiment``) runs once
untimed to warm up; then the call repeats until ``--seconds`` have passed.
With ``--trace 0`` the last stdout line holds the end-to-end metrics,
medians over the calls; with ``--trace 1`` untraced and traced calls
alternate and it holds the per-layer metrics.  The line before it records
the environment and the SHA-256 of report.json.  Every run also writes
``bench/results/<workload>-seed<n>-trace<t>.json``, plus the spans of a
traced run.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Benchmark the package in this checkout, never an installed copy.
sys.path.insert(0, str(ROOT / "src"))
# One BLAS thread: with the default of one per core, a second busy process
# on a 2-core machine made a train_recurrent call 14x slower.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pumpwatch  # noqa: E402

if Path(pumpwatch.__file__).resolve().parent != ROOT / "src" / "pumpwatch":
    raise SystemExit(f"pumpwatch imported from {pumpwatch.__file__}, "
                     f"not from {ROOT / 'src'}")

from layers import PROBES, layer_values, metric_units, silent  # noqa: E402
from tracing import END, START, Tracer, install  # noqa: E402
from workloads import END_TO_END_UNITS, WORKLOADS, all_combos  # noqa: E402

SETUP_REPEATS = 3
WORKDIR = Path("bench") / ".work"  # relative, so report.json is location-free
RESULTS = BENCH / "results"


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_name,
            "blas_threads": {k: os.environ[k] for k in BLAS_THREAD_VARS},
            "seed": seed}


class Outcome:
    """Operation counts and outputs across every pipeline call of a run."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.digests = set()
        self.f1 = []
        self.problems = []
        self.raised = False

    def call(self, prep, trace=None):
        """One timed pipeline call; returns (wall seconds, CPU seconds)."""
        self.attempted += len(self.wl.combos)
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            if trace is None:
                self.wl.call(prep.cfg)
            else:
                with trace.region(f"harness.{self.wl.entry}"):
                    self.wl.call(prep.cfg)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += len(self.wl.combos)
            self.problems.append("pipeline call raised")
            self.raised = True
            return time.perf_counter() - t0, time.process_time() - cpu0
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        try:
            bad = self.wl.check(prep)
            raw = (Path(prep.cfg.output_dir) / "report.json").read_bytes()
        except (OSError, ValueError, KeyError, IndexError):
            traceback.print_exc(file=sys.stderr)
            bad = [f"{d}/{f}" for d, f in self.wl.combos]
            raw = b""
        self.failed += len(bad)
        if bad:
            self.problems.append(f"output checks failed for {bad}")
        self.digests.add(hashlib.sha256(raw).hexdigest())
        self.f1 = [r["metrics"]["f1"] for r in json.loads(raw)["rows"]] if raw else []
        return wall, cpu


def combo_seconds(prep):
    """Per-combination wall seconds from the last call's runtimes.json."""
    path = Path(prep.cfg.output_dir) / "runtimes.json"
    runtimes = json.loads(path.read_text()) if path.exists() else {}
    return {f"harness.combo_s.{k.replace('/', '.')}": v for k, v in runtimes.items()}


def end_to_end(wl, args, workdir, outcome):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        prep = wl.setup(workdir, args.seed)
        setups.append(time.perf_counter() - t0)
    outcome.call(prep)
    walls, cpus = [], []
    deadline = time.perf_counter() + args.seconds
    while not walls or (not outcome.raised and time.perf_counter() < deadline):
        wall, cpu = outcome.call(prep)
        walls.append(wall)
        cpus.append(cpu)
    values = {"setup_s": statistics.median(setups),
              "wall_s": statistics.median(walls),
              "cpu_s": statistics.median(cpus),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "f1_mean": statistics.fmean(outcome.f1) if outcome.f1 else 0.0,
              "f1_min": min(outcome.f1) if outcome.f1 else 0.0}
    record = {"setup_s": setups, "wall_s": walls, "cpu_s": cpus}
    return values, END_TO_END_UNITS, record, None


def per_layer(wl, args, workdir, outcome):
    setup_trace = Tracer()
    inst = install(setup_trace, PROBES)
    try:
        with setup_trace.region("setup"):
            prep = wl.setup(workdir, args.seed)
    finally:
        inst.restore()
    plain_walls, traced_walls, samples, combo_s = [], [], [], []
    first_spans = None
    outcome.call(prep)
    deadline = time.perf_counter() + args.seconds
    while not traced_walls or (not outcome.raised and time.perf_counter() < deadline):
        plain_walls.append(outcome.call(prep)[0])
        combo_s.append(combo_seconds(prep))
        trace = Tracer()
        inst = install(trace, PROBES)
        try:
            outcome.call(prep, trace)
        finally:
            inst.restore()
        spans = trace.spans
        first_spans = first_spans or spans
        root = spans[0][END] - spans[0][START]
        traced_walls.append(root)
        missing = silent(spans, setup_trace.spans, wl.exercised)
        if missing:
            outcome.problems.append(f"probes recorded nothing: {missing}")
        samples.append(layer_values(spans, setup_trace.spans))
    units = metric_units(all_combos())
    values = {}
    for name in units:
        series = [s[name] for s in samples + combo_s if name in s] or [0]
        values[name] = statistics.median(series)
    values["trace_overhead_ratio"] = (statistics.median(traced_walls)
                                      / statistics.median(plain_walls))
    record = {"untraced_wall_s": plain_walls, "traced_wall_s": traced_walls}
    spans = {"setup": setup_trace.spans, "call": first_spans}
    return values, units, record, spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    os.chdir(ROOT)
    wl = WORKLOADS[args.workload]
    workdir = WORKDIR / wl.name
    outcome = Outcome(wl)
    measure = per_layer if args.trace else end_to_end
    try:
        values, units, record, spans = measure(wl, args, workdir, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(outcome.digests) > 1:
        outcome.problems.append("report.json differs between calls of one seed")
    correct = outcome.failed == 0 and not outcome.problems
    for problem in outcome.problems:
        print(f"bench: {problem}", file=sys.stderr)

    env = environment(args.seed)
    digest = next(iter(outcome.digests)) if len(outcome.digests) == 1 else None
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(stem.with_suffix(".json"), "w") as f:
        json.dump({"workload": wl.name, "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "report_sha256": digest,
                   "problems": outcome.problems, "runs": record, "metrics": values},
                  f, indent=1, sort_keys=True)
    if spans is not None:
        with gzip.open(stem.with_suffix(".spans.json.gz"), "wt") as f:
            json.dump(spans, f)

    print(json.dumps({"environment": env, "report_sha256": digest}))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))


if __name__ == "__main__":
    main()
