"""Command-line front end.

Subcommands:
    run      execute an experiment from a JSON config, write metrics.jsonl
             and summary.csv to the output directory
    synth    generate a synthetic Gaussian-mixture dataset file
    inspect  print header fields and class/split histograms of a dataset

Exit codes: 0 success, 1 runtime/validation failure or divergence, 2 bad
config (unknown key, wrong value type) or flags.
All randomness comes from seeds in the config/flags, so identical inputs
produce byte-identical outputs. The PGPFR_OUTPUT_DIR environment variable
overrides the config's output directory (nothing else is overridable by
environment).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .dataio import (Dataset, class_order_for, load_csv, load_dataset,
                     save_dataset, synth_gaussian)
from .engine import TaskSchedule, TrainConfig, run_experiment
from .errors import (ConfigError, DatasetFormatError, DatasetValidationError,
                     InvalidArgumentError, InvalidStateError)
from .extractor import ExtractorSpec
from .losses import LossConfig
from .metrics import record_fields, summarize

OUTPUT_DIR_ENV = "PGPFR_OUTPUT_DIR"

_INT_OR_NULL = (int, type(None))

# The config's keys and expected value types; a nested table is a section.
# Drives both the unknown-key check and the type check.
_SCHEMA = {
    "dataset": str,
    "output_dir": str,
    "synth": {"classes": int, "dim": int, "per_class_train": int,
              "per_class_test": int, "separation": float, "seed": int},
    "schedule": {"k": int, "d": int, "n_tasks": int, "class_order_seed": _INT_OR_NULL},
    "train": {"epochs_task0": int, "epochs_incremental": int, "batch_size": int,
              "lr": float, "seed": int},
    "losses": {"R": float, "gamma": float, "enable_P": bool, "enable_V": bool,
               "enable_T": bool, "enable_sharpening": bool, "enable_batch_proto": bool},
    "extractor": {"kind": str, "input_dim": int, "feature_dim": int,
                  "hidden_dim": int, "seed": int},
}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", _INT_OR_NULL: "an integer or null"}


def _type_ok(value, expected) -> bool:
    if isinstance(value, bool):  # JSON true/false is a Python int; never a number here
        return expected is bool
    if expected is float:  # JSON NaN and Infinity parse as floats
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, expected)


def _check_section(section: dict, schema: dict, prefix: str = "") -> None:
    """Reject unknown keys and wrongly typed values, descending into sections."""
    unknown = set(section) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {prefix[:-1] or 'config'}")
    for key, value in section.items():
        expected, path = schema[key], prefix + key
        if isinstance(expected, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path} must be an object, got {value!r}")
            _check_section(value, expected, path + ".")
        elif not _type_ok(value, expected):
            raise ConfigError(f"{path} must be {_TYPE_NAMES[expected]}, got {value!r}")


def _require(section: dict, keys: tuple, where: str) -> None:
    missing = [k for k in keys if k not in section]
    if missing:
        raise ConfigError(f"missing key(s) {missing} in {where}")


def load_config(path: str, overrides: list[str] | None = None) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
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
        except json.JSONDecodeError:
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
    return raw


def _build_dataset(cfg: dict) -> Dataset:
    if "dataset" in cfg:
        path = cfg["dataset"]
        if str(path).endswith(".csv"):
            return load_csv(path)
        return load_dataset(path)
    s = dict(cfg["synth"])
    _require(s, ("classes", "dim"), "synth")
    return synth_gaussian(
        classes=s["classes"], dim=s["dim"],
        per_class_train=s.get("per_class_train", 100),
        per_class_test=s.get("per_class_test", 25),
        separation=s.get("separation", 10.0),
        seed=s.get("seed", 0))


def _build_loss_config(cfg: dict) -> LossConfig:
    ls = cfg.get("losses", {})
    return LossConfig(
        temperature_R=ls.get("R", 0.3),
        gamma=ls.get("gamma", 1.0),
        enable_P=ls.get("enable_P", True),
        enable_V=ls.get("enable_V", True),
        enable_T=ls.get("enable_T", True),
        enable_sharpening=ls.get("enable_sharpening", True),
        enable_batch_proto=ls.get("enable_batch_proto", True))


def _build_extractor_spec(cfg: dict, ds: Dataset) -> ExtractorSpec:
    ex = cfg.get("extractor", {})
    kind = ex.get("kind", "identity")
    input_dim = ex.get("input_dim", ds.dim)
    feature_dim = ex.get("feature_dim", input_dim if kind == "identity" else ds.dim)
    return ExtractorSpec(
        kind=kind, input_dim=input_dim, feature_dim=feature_dim,
        hidden_dim=ex.get("hidden_dim", 0), seed=ex.get("seed", 0))


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
    try:
        ds = _build_dataset(cfg)
        sched_cfg = cfg["schedule"]
        order = class_order_for(ds, sched_cfg.get("class_order_seed"))
        schedule = TaskSchedule(
            total_classes=len(order), k=sched_cfg["k"], d=sched_cfg["d"],
            n_tasks=sched_cfg["n_tasks"], class_order=order)
        tr = cfg["train"]
        train_cfg = TrainConfig(
            epochs_task0=tr.get("epochs_task0", 150),
            epochs_incremental=tr.get("epochs_incremental", 100),
            batch_size=tr.get("batch_size", 32),
            lr=tr.get("lr", 0.001),
            seed=tr.get("seed", 0),
            loss_cfg=_build_loss_config(cfg))
        spec = _build_extractor_spec(cfg, ds)
        records = run_experiment(train_cfg, schedule, ds, spec)
        out_dir = Path(os.environ.get(OUTPUT_DIR_ENV, cfg["output_dir"]))
        write_outputs(records, out_dir)
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
        ds = synth_gaussian(args.classes, args.dim, args.per_class_train,
                            args.per_class_test, args.separation, args.seed)
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

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset file")
    p_synth.add_argument("--classes", type=int, default=10)
    p_synth.add_argument("--dim", type=int, default=16)
    p_synth.add_argument("--per-class-train", type=int, default=200)
    p_synth.add_argument("--per-class-test", type=int, default=50)
    p_synth.add_argument("--separation", type=float, default=10.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)

    p_inspect = sub.add_parser("inspect", help="print dataset header and histogram")
    p_inspect.add_argument("path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.overrides)
    if args.command == "synth":
        try:
            return cmd_synth(args)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return cmd_inspect(args.path)


if __name__ == "__main__":
    sys.exit(main())
