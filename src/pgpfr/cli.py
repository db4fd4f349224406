"""Command-line front end.

Subcommands:
    run      execute an experiment from a JSON config, write metrics.jsonl
             and summary.csv to the output directory
    synth    generate a synthetic Gaussian-mixture dataset file
    inspect  print header fields and class/split histograms of a dataset

Exit codes: 0 success, 1 runtime/validation failure, divergence or a size
too large to allocate, 2 bad config (unknown key, wrong value type) or flags.
Either failure prints one line to stderr. All randomness comes from seeds in
the config/flags, so identical inputs produce byte-identical outputs. The
config file and its `--set` overrides are the only inputs of a run; no
environment variable is read.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .dataio import (Dataset, class_order_for, load_csv, load_dataset,
                     save_dataset, synth_gaussian)
from .engine import TaskSchedule, TrainConfig, run_experiment
from .errors import (ConfigError, DatasetFormatError, DatasetValidationError,
                     InvalidArgumentError, InvalidStateError)
from .extractor import ExtractorSpec
from .losses import LossConfig
from .metrics import record_fields, summarize

# The config's keys and expected value types; a nested table is a section.
# Drives both the unknown-key check and the type check.
_SCHEMA = {
    "dataset": str,
    "output_dir": str,
    "synth": {"classes": int, "dim": int, "per_class_train": int,
              "per_class_test": int, "separation": float, "seed": int},
    "schedule": {"k": int, "d": int, "n_tasks": int, "class_order_seed": int},
    "train": {"epochs_task0": int, "epochs_incremental": int, "batch_size": int,
              "lr": float, "seed": int},
    "losses": {"R": float, "gamma": float, "enable_P": bool, "enable_V": bool,
               "enable_T": bool, "enable_batch_proto": bool},
    "extractor": {"kind": str, "feature_dim": int, "hidden_dim": int, "seed": int},
}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string"}


def _typed(value, expected):
    """The value as its schema type, or None when it is not one. A number
    becomes a float here, once, so no later check meets a JSON integer too
    large for int64 or a float."""
    if isinstance(value, bool):  # JSON true/false is a Python int; never a number here
        return value if expected is bool else None
    if expected is float and isinstance(value, (int, float)):
        try:
            value = float(value)
        except OverflowError:
            return None
        return value if math.isfinite(value) else None  # JSON NaN and Infinity
    return value if isinstance(value, expected) else None


def _check_section(section: dict, schema: dict, prefix: str = "") -> None:
    """Reject unknown keys and wrongly typed values, descending into sections;
    store each number as a float."""
    unknown = set(section) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {prefix[:-1] or 'config'}")
    for key, value in section.items():
        expected, path = schema[key], prefix + key
        if isinstance(expected, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path} must be an object, got {value!r}")
            _check_section(value, expected, path + ".")
        else:
            typed = _typed(value, expected)
            if typed is None:
                raise ConfigError(f"{path} must be {_TYPE_NAMES[expected]}, got {value!r}")
            section[key] = typed


def _require(section: dict, keys: tuple, where: str) -> None:
    missing = [k for k in keys if k not in section]
    if missing:
        raise ConfigError(f"missing key(s) {missing} in {where}")


def load_config(path: str, overrides: list[str] | None = None) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, value = item.split("=", 1)
        keys = dotted.split(".")
        try:
            value = json.loads(value)
        except (ValueError, RecursionError):
            pass  # leave it as a string
        node = raw
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {dotted!r} crosses a non-object")
        node[keys[-1]] = value

    _check_section(raw, _SCHEMA)
    if ("dataset" in raw) == ("synth" in raw):
        raise ConfigError("config needs exactly one of 'dataset' or 'synth'")
    _require(raw, ("schedule", "train", "output_dir"), "config")
    _require(raw["schedule"], ("k", "d", "n_tasks"), "schedule")
    if "synth" in raw:
        _require(raw["synth"], ("classes", "dim"), "synth")
    return raw


def _build_dataset(cfg: dict) -> Dataset:
    if "dataset" in cfg:
        path = cfg["dataset"]
        if str(path).endswith(".csv"):
            return load_csv(path)
        return load_dataset(path)
    return synth_gaussian(**cfg["synth"])


def _build_extractor_spec(cfg: dict, ds: Dataset) -> ExtractorSpec:
    ex = {"kind": "identity", "feature_dim": ds.dim, **cfg.get("extractor", {})}
    return ExtractorSpec(input_dim=ds.dim, **ex)


def _fmt(v: float) -> str:
    return "" if math.isnan(v) else repr(v)


def write_outputs(records, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "metrics.jsonl", "w") as fh:
        for r in records:
            fh.write(json.dumps(record_fields(r), sort_keys=True) + "\n")
    summary = summarize(records)
    lines = ["task,global_acc,local_acc,ifm,old_acc,new_acc"]
    for r in records:
        lines.append(",".join([
            str(r.task_index), _fmt(r.global_acc), _fmt(r.local_acc),
            _fmt(r.ifm), _fmt(r.old_acc), _fmt(r.new_acc)]))
    mean_ifm = summary["mean_ifm"]
    lines.append(",".join([
        "mean", _fmt(summary["mean_global_acc"]),
        "", "" if mean_ifm is None else _fmt(mean_ifm), "", ""]))
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")


def cmd_run(config_path: str, overrides: list[str] | None = None) -> int:
    try:
        cfg = load_config(config_path, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # an overflow in training is reported by the step-loss, head and feature
    # checks as "task N diverged"; numpy's warnings would only repeat it
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ds = _build_dataset(cfg)
            sched_cfg = cfg["schedule"]
            order = class_order_for(ds, sched_cfg.get("class_order_seed"))
            schedule = TaskSchedule(
                total_classes=len(order), k=sched_cfg["k"], d=sched_cfg["d"],
                n_tasks=sched_cfg["n_tasks"], class_order=order)
            train_cfg = TrainConfig(**cfg["train"], loss_cfg=LossConfig(**cfg.get("losses", {})))
            records = run_experiment(train_cfg, schedule, ds, _build_extractor_spec(cfg, ds))
        write_outputs(records, Path(cfg["output_dir"]))
    except (InvalidArgumentError, InvalidStateError, DatasetFormatError,
            DatasetValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in records:
        print(f"task {r.task_index}: G={r.global_acc:.4f} L={r.local_acc:.4f} "
              f"IFM={r.ifm:.2f}")
    return 0


def cmd_synth(args) -> int:
    try:
        ds = synth_gaussian(**{k: v for k, v in vars(args).items()
                               if k not in ("command", "out")})
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    save_dataset(ds, args.out)
    print(f"wrote {ds.n_samples} samples ({args.classes} classes, dim {args.dim}) "
          f"to {args.out}")
    return 0


def cmd_inspect(path: str) -> int:
    try:
        ds = load_dataset(path)
    except (DatasetFormatError, DatasetValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"samples: {ds.n_samples}")
    print(f"dim: {ds.dim}")
    print(f"train: {int((ds.split == 0).sum())}  test: {int((ds.split == 1).sum())}")
    print("class  train  test")
    for cid in ds.class_ids:
        sel = ds.labels == cid
        n_tr = int((sel & (ds.split == 0)).sum())
        n_te = int((sel & (ds.split == 1)).sum())
        print(f"{cid:5d}  {n_tr:5d}  {n_te:4d}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgpfr",
        description="Class-incremental learning experiments with "
                    "prototype-guided pseudo-feature replay")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override a config value (repeatable)")

    # a flag left out is not passed on, so synth_gaussian's default applies
    p_synth = sub.add_parser("synth", help="generate a synthetic dataset file",
                             argument_default=argparse.SUPPRESS)
    p_synth.add_argument("--classes", type=int, default=10)
    p_synth.add_argument("--dim", type=int, default=16)
    p_synth.add_argument("--per-class-train", type=int)
    p_synth.add_argument("--per-class-test", type=int)
    p_synth.add_argument("--separation", type=float)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--out", required=True)

    p_inspect = sub.add_parser("inspect", help="print dataset header and histogram")
    p_inspect.add_argument("path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.overrides)
        if args.command == "synth":
            return cmd_synth(args)
        return cmd_inspect(args.path)
    except (OSError, MemoryError) as exc:
        # MemoryError: an array larger than the machine can hold, e.g.
        # `synth --dim 10000000000000`
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
