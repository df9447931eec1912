"""Command-line interface.

Subcommands:
    generate   write a synthetic dataset file
    run        end to end: fit, evaluate, report
    train      fit detectors and write artifacts only
    evaluate   score a dataset against previously trained artifacts
    report     render the tables from a saved report.json

Experiment subcommands read a JSON config file (--config); every flag
mirrors a config key and overrides it.  Exit code 0 on success, 2 on any
toolkit error (a diagnostic goes to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings
from pathlib import Path

from .dataset import GeneratorConfig, SplitSpec, generate_synthetic, save_dataset
from .errors import ConfigError, EvalSplitWarning, PumpwatchError
from .harness import (ExperimentConfig, config_from_dict, evaluate_experiment,
                      load_report, parse_detector, parse_feature_sets,
                      render_tables, run_experiment, train_experiment)
from .nn.train import TrainConfig
from .util import dataclass_from_dict, field_types, read_json


# Flag names that are not their field's: --seed is the generator's.
_RENAMED = {(TrainConfig, "seed"): "train_seed"}


def _dest(cls, name):
    return _RENAMED.get((cls, name), name)


def _add_field_flags(p, cls):
    """One flag per field of the config dataclass ``cls``, typed by its annotation."""
    for f in dataclasses.fields(cls):
        p.add_argument("--" + _dest(cls, f.name).replace("_", "-"),
                       type=field_types(cls)[f.name])


def _with_flags(obj, args):
    """``obj`` with each field whose flag was given set to the flag's value."""
    given = {f.name: getattr(args, _dest(type(obj), f.name))
             for f in dataclasses.fields(obj)}
    return dataclasses.replace(obj, **{k: v for k, v in given.items() if v is not None})


def _add_experiment_flags(p):
    p.add_argument("--config", help="experiment config JSON file")
    p.add_argument("--dataset", help="dataset file to load (overrides config)")
    p.add_argument("--output-dir")
    p.add_argument("--feature-sets",
                   help="comma-separated feature set names, or 'all'")
    p.add_argument("--detectors",
                   help="comma-separated detector names (DNN,LSTM,CNN,BM_PCA,BM_IQR)")
    p.add_argument("--split-seed", type=int)
    _add_field_flags(p, SplitSpec)
    _add_field_flags(p, TrainConfig)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pumpwatch",
        description="Autoencoder anomaly detection for pump sensor recordings")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset file")
    g.add_argument("--out", required=True, help="output dataset path")
    g.add_argument("--gen-config", help="generator config JSON file")
    _add_field_flags(g, GeneratorConfig)

    for name, help_text in (("run", "fit, evaluate and report"),
                            ("train", "fit detectors and write artifacts"),
                            ("evaluate", "score against existing artifacts")):
        p = sub.add_parser(name, help=help_text)
        _add_experiment_flags(p)

    r = sub.add_parser("report", help="render tables from a saved report")
    r.add_argument("--report", help="path to report.json")
    r.add_argument("--output-dir", help="experiment directory holding report.json")
    return parser


def _generator_config(args) -> GeneratorConfig:
    doc = read_json(args.gen_config) if args.gen_config else {}
    cfg = dataclass_from_dict(GeneratorConfig, doc, f"generator config {args.gen_config}")
    return _with_flags(cfg, args)


def _experiment_config(args) -> ExperimentConfig:
    cfg = config_from_dict(read_json(args.config) if args.config else {})
    if args.dataset is not None:
        cfg.load = args.dataset
        cfg.generate = None
    if args.output_dir is not None:
        cfg.output_dir = args.output_dir
    if args.feature_sets is not None:
        cfg.feature_sets = parse_feature_sets(args.feature_sets)
    if args.detectors is not None:
        cfg.detectors = [parse_detector(d.strip())
                         for d in args.detectors.split(",") if d.strip()]
    if args.split_seed is not None:
        cfg.split_seed = args.split_seed
    cfg.split = _with_flags(cfg.split, args)
    cfg.train = _with_flags(cfg.train, args)
    return cfg


def _command(args) -> str:
    """Run one subcommand and return what it prints; its errors reach ``main``."""
    if args.command == "generate":
        ds = generate_synthetic(_generator_config(args))
        save_dataset(ds, args.out)
        return f"wrote {len(ds)} samples to {args.out}"
    if args.command == "run":
        return render_tables(run_experiment(_experiment_config(args)))[0]
    if args.command == "train":
        cfg = _experiment_config(args)
        train_experiment(cfg)
        return f"artifacts written to {Path(cfg.output_dir) / 'artifacts'}"
    if args.command == "evaluate":
        return render_tables(evaluate_experiment(_experiment_config(args)))[0]
    if not args.report and not args.output_dir:
        raise ConfigError("report needs --report or --output-dir")
    path = args.report or str(Path(args.output_dir) / "report.json")
    return render_tables(load_report(path))[0]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            # A report whose eval split has no healthy sample is refused here.
            warnings.simplefilter("error", EvalSplitWarning)
            text = _command(args)
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # Every file is written: a reader that closed stdout early is no
            # failure.  Point stdout at devnull so the flush at exit is quiet.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    except (PumpwatchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
