"""Dataset persistence, task splitting, deterministic batching, and the
synthetic Gaussian-mixture generator.

Binary format (little-endian):
    magic "PGFR" | version u32 = 1 | n_samples u64 | dim u32
    then per sample, packed: label u32 | split u8 (0 = train, 1 = test) | dim x f32

Features are kept as float32 in memory so a save/load round trip is
bitwise lossless; numerics upcast to float64 at the point of use.

All randomness flows through numpy SeedSequence keyed by (seed, purpose
tag, ...) so identical configs reproduce across platforms.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (DatasetFormatError, DatasetValidationError,
                     InvalidArgumentError, InvalidStateError)

MAGIC = b"PGFR"
VERSION = 1
TRAIN, TEST = 0, 1

# SeedSequence purpose tags; classifier/extractor init use tags 0-2
_TAG_SYNTH_MEANS = 10
_TAG_SYNTH_SAMPLES = 11
_TAG_BATCHES = 12
_TAG_CLASS_ORDER = 13


@dataclass
class Dataset:
    features: np.ndarray   # (N, D) float32
    labels: np.ndarray     # (N,) int64, values fit in u32
    split: np.ndarray      # (N,) uint8, TRAIN or TEST

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def class_ids(self) -> list[int]:
        return sorted(int(c) for c in np.unique(self.labels))

    def validate(self) -> None:
        if not np.all(np.isfinite(self.features)):
            bad = int(np.argwhere(~np.isfinite(self.features).all(axis=1))[0, 0])
            raise DatasetValidationError(f"non-finite feature value at sample {bad}")
        for cid in self.class_ids:
            sel = self.split[self.labels == cid]
            if not (sel == TRAIN).any() or not (sel == TEST).any():
                raise DatasetValidationError(
                    f"class {cid} lacks a train or test sample")


@dataclass
class TaskDataset:
    task_index: int
    class_ids: tuple[int, ...]
    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray


def _record_dtype(dim: int) -> np.dtype:
    """One packed sample record: label u32 | split u8 | dim x f32."""
    return np.dtype([("label", "<u4"), ("split", "u1"), ("features", "<f4", (dim,))])


def save_dataset(ds: Dataset, path) -> None:
    """Write ds in the binary format; labels must fit in u32 and split bytes
    be TRAIN or TEST, checked before the file is opened."""
    if ds.labels.size and (ds.labels.min() < 0 or ds.labels.max() >= 2 ** 32):
        raise InvalidArgumentError("labels must lie in [0, 2**32)")
    if not np.isin(ds.split, (TRAIN, TEST)).all():
        raise InvalidArgumentError(f"split bytes must be {TRAIN} (train) or {TEST} (test)")
    records = np.empty(ds.n_samples, dtype=_record_dtype(ds.dim))
    records["label"] = ds.labels
    records["split"] = ds.split
    records["features"] = ds.features
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQI", VERSION, ds.n_samples, ds.dim))
        fh.write(records)


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise DatasetFormatError("bad magic (expected 'PGFR')", 0)
    if len(raw) < 20:
        raise DatasetFormatError("truncated header", len(raw))
    version, n, dim = struct.unpack_from("<IQI", raw, 4)
    if version != VERSION:
        raise DatasetFormatError(f"unsupported version {version}", 4)
    rec = _record_dtype(dim)
    expected = 20 + n * rec.itemsize
    if len(raw) != expected:
        raise DatasetFormatError(
            f"truncated or oversized payload (expected {expected} bytes)", len(raw))
    records = np.frombuffer(raw, dtype=rec, count=n, offset=20)
    split = records["split"].copy()
    if not np.isin(split, (TRAIN, TEST)).all():
        bad = int(np.argwhere(~np.isin(split, (TRAIN, TEST)))[0, 0])
        raise DatasetFormatError(f"bad split byte at sample {bad}", 20 + bad * rec.itemsize + 4)
    ds = Dataset(records["features"].copy(), records["label"].astype(np.int64), split)
    ds.validate()
    return ds


def load_csv(path) -> Dataset:
    """Convenience import: header `label,split,f0..f{D-1}`; split may be a
    0/1 integer or the strings train/test."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 3 or header[0] != "label" or header[1] != "split":
            raise DatasetValidationError("CSV header must be label,split,f0..")
        dim = len(header) - 2
        for line in reader:
            if len(line) != dim + 2:
                raise DatasetValidationError(f"CSV row has {len(line)} fields, expected {dim + 2}")
            rows.append(line)
    if not rows:
        raise DatasetValidationError("CSV has no data rows")
    split_map = {"train": TRAIN, "test": TEST, "0": TRAIN, "1": TEST}
    labels = np.array([int(r[0]) for r in rows], dtype=np.int64)
    try:
        split = np.array([split_map[r[1].strip()] for r in rows], dtype=np.uint8)
    except KeyError as exc:
        raise DatasetValidationError(f"bad split value {exc}") from exc
    feats = np.array([[float(v) for v in r[2:]] for r in rows], dtype=np.float32)
    ds = Dataset(feats, labels, split)
    ds.validate()
    return ds


def split_schedule(ds: Dataset, schedule) -> list[TaskDataset]:
    """Carve the dataset into per-task views following schedule.class_order:
    task 0 takes the first k classes, each later task the next d."""
    order = list(schedule.class_order)
    needed = schedule.k + (schedule.n_tasks - 1) * schedule.d
    if len(order) < needed:
        raise InvalidArgumentError(
            f"schedule needs {needed} classes, class_order has {len(order)}")
    present = set(ds.class_ids)
    missing = [c for c in order[:needed] if c not in present]
    if missing:
        raise InvalidArgumentError(f"dataset is missing scheduled classes {missing}")

    tasks = []
    pos = 0
    for ti in range(schedule.n_tasks):
        size = schedule.k if ti == 0 else schedule.d
        cids = tuple(order[pos:pos + size])
        pos += size
        sel = np.isin(ds.labels, cids)
        tr = sel & (ds.split == TRAIN)
        te = sel & (ds.split == TEST)
        tasks.append(TaskDataset(
            task_index=ti, class_ids=cids,
            train_features=ds.features[tr], train_labels=ds.labels[tr],
            test_features=ds.features[te], test_labels=ds.labels[te]))
    return tasks


def batches(td: TaskDataset, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Seeded permutation of the train indices, chunked; the final short
    batch is kept. Keyed by (seed, task, epoch)."""
    if batch_size < 1:
        raise InvalidArgumentError(f"batch_size must be >= 1, got {batch_size}")
    n = td.train_features.shape[0]
    if n == 0:
        raise InvalidStateError(f"task {td.task_index} has an empty train split")
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, _TAG_BATCHES, td.task_index, epoch]))
    perm = rng.permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]


def synth_gaussian(classes: int, dim: int, per_class_train: int, per_class_test: int,
                   separation: float, seed: int) -> Dataset:
    """Gaussian-mixture benchmark: class means on the radius-`separation`
    sphere, unit isotropic noise, train/test drawn independently."""
    if classes < 1 or dim < 1 or per_class_train < 1 or per_class_test < 1:
        raise InvalidArgumentError("synth_gaussian requires positive counts and dims")
    if separation < 0:
        raise InvalidArgumentError(f"separation must be >= 0, got {separation}")

    mean_rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_SYNTH_MEANS]))
    means = mean_rng.normal(size=(classes, dim))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = means / norms * separation

    feats, labels, split = [], [], []
    for cid in range(classes):
        for split_tag, count in ((TRAIN, per_class_train), (TEST, per_class_test)):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, _TAG_SYNTH_SAMPLES, cid, split_tag]))
            feats.append(means[cid] + rng.normal(size=(count, dim)))
            labels.append(np.full(count, cid, dtype=np.int64))
            split.append(np.full(count, split_tag, dtype=np.uint8))
    return Dataset(np.vstack(feats).astype(np.float32),
                   np.concatenate(labels), np.concatenate(split))


def class_order_for(ds: Dataset, seed: int | None) -> list[int]:
    """Ascending class ids, or a seeded permutation when a seed is given."""
    ids = ds.class_ids
    if seed is None:
        return ids
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_CLASS_ORDER]))
    return [ids[i] for i in rng.permutation(len(ids))]
