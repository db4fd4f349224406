"""Dataset persistence, task splitting, deterministic batching, and the
synthetic Gaussian-mixture generator.

Binary format (little-endian):
    magic "PGFR" | version u32 = 1 | n_samples u64 | dim u32
    then per sample, packed: label u32 | split u8 (0 = train, 1 = test) | dim x f32

Features are kept as float32 in memory so a save/load round trip is
bitwise lossless, and every full-size array exists once, in its storage
dtype: the synthetic generator casts each class block into one float32
array, and the loader reads fixed-size record blocks straight into the
float32, int64 and uint8 arrays; the writer packs and writes one record
block at a time. Features stay float32 until the backbone embeds them into
float64 (see `extractor`).

All randomness flows through numpy SeedSequence keyed by (seed, purpose
tag, ...) so identical configs reproduce across platforms.
"""

from __future__ import annotations

import csv
import io
import os
import stat
import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (DatasetFormatError, DatasetValidationError,
                     InvalidArgumentError, InvalidStateError)
from .numerics import check_addressable

MAGIC = b"PGFR"
VERSION = 1
TRAIN, TEST = 0, 1

# SeedSequence purpose tags; classifier/extractor init use tags 0-2
_TAG_SYNTH_MEANS = 10
_TAG_SYNTH_SAMPLES = 11
_TAG_BATCHES = 12
_TAG_CLASS_ORDER = 13

HEADER_BYTES = 20
# bytes of records save_dataset packs and load_dataset reads per block; a
# block holds at least one record
READ_BLOCK_BYTES = 1 << 20


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
        """Every feature is finite and every class has a train and a test
        sample; split bytes other than TRAIN and TEST count as neither."""
        f = self.features
        # min or max is non-finite when any entry is, and neither needs an (N, D) mask
        if f.size and not (np.isfinite(f.min()) and np.isfinite(f.max())):
            bad = int(np.argwhere(~np.isfinite(f).all(axis=1))[0, 0])
            raise DatasetValidationError(f"non-finite feature value at sample {bad}")
        ids, inv = np.unique(self.labels, return_inverse=True)
        known = (self.split == TRAIN) | (self.split == TEST)
        seen = np.zeros((len(ids), 2), dtype=bool)   # columns TRAIN, TEST
        seen[inv[known], self.split[known]] = True
        lacking = np.flatnonzero(~seen.all(axis=1))
        if lacking.size:
            raise DatasetValidationError(
                f"class {int(ids[lacking[0]])} lacks a train or test sample")


@dataclass
class TaskDataset:
    """One task's split: `class_ids` are the dataset's ids, the labels head
    rows, each class's position in the class order. A row is found through
    the label's rank among the sorted class ids, as labels reach 2**32 - 1."""
    task_index: int
    class_ids: tuple[int, ...]
    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray


def _record_dtype(dim: int) -> np.dtype:
    """One packed sample record: label u32 | split u8 | dim x f32."""
    return np.dtype([("label", "<u4"), ("split", "u1"), ("features", "<f4", (dim,))])


def _block_rows(n: int, rec: np.dtype) -> int:
    """Records per block of about READ_BLOCK_BYTES, at least one."""
    return max(1, min(n, READ_BLOCK_BYTES // rec.itemsize))


def save_dataset(ds: Dataset, path) -> None:
    """Write ds in the binary format. Features must be 2-D with one label and
    one split byte per row, labels must fit in u32 and split bytes be TRAIN
    or TEST, all checked before the file is opened. Records are packed and
    written one block of about READ_BLOCK_BYTES at a time."""
    if ds.features.ndim != 2:
        raise InvalidArgumentError(f"features must be 2-D, got shape {ds.features.shape}")
    if not ds.labels.shape == ds.split.shape == (ds.n_samples,):
        raise InvalidArgumentError(
            f"features have {ds.n_samples} rows, labels shape {ds.labels.shape} "
            f"and split shape {ds.split.shape}; each needs one entry per row")
    if ds.labels.size and (ds.labels.min() < 0 or ds.labels.max() >= 2 ** 32):
        raise InvalidArgumentError("labels must lie in [0, 2**32)")
    if not np.isin(ds.split, (TRAIN, TEST)).all():
        raise InvalidArgumentError(f"split bytes must be {TRAIN} (train) or {TEST} (test)")
    n = ds.n_samples
    rec = _record_dtype(ds.dim)
    per_block = _block_rows(n, rec)
    buf = np.empty(min(n, per_block), dtype=rec)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQI", VERSION, n, ds.dim))
        for lo in range(0, n, per_block):
            hi = min(lo + per_block, n)
            block = buf[:hi - lo]
            block["label"] = ds.labels[lo:hi]
            block["split"] = ds.split[lo:hi]
            block["features"] = ds.features[lo:hi]
            fh.write(block)


def load_dataset(path) -> Dataset:
    """Read and validate a binary dataset. The file size is checked against
    the header before any record is read; records are then read in blocks of
    about READ_BLOCK_BYTES straight into the returned arrays, checking each
    block's split bytes. Errors name the sample and its byte offset."""
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            return _read_records(fh, st.st_size)
        raw = fh.read()   # a pipe has no size to check: read it whole first
    return _read_records(io.BytesIO(raw), len(raw))


def _read_records(fh, size: int) -> Dataset:
    """Parse the binary stream fh, whose total length is `size` bytes."""
    head = fh.read(HEADER_BYTES)
    if len(head) < 4 or head[:4] != MAGIC:
        raise DatasetFormatError("bad magic (expected 'PGFR')", 0)
    if len(head) < HEADER_BYTES:
        raise DatasetFormatError("truncated header", len(head))
    version, n, dim = struct.unpack_from("<IQI", head, 4)
    if version != VERSION:
        raise DatasetFormatError(f"unsupported version {version}", 4)
    try:
        rec = _record_dtype(dim)
    except ValueError:  # the record's byte size must fit in a C int
        raise DatasetFormatError(f"feature dim {dim} too large for a record", 16) from None
    expected = HEADER_BYTES + n * rec.itemsize
    if size != expected:
        raise DatasetFormatError(
            f"truncated or oversized payload (expected {expected} bytes)", size)

    ds = Dataset(np.empty((n, dim), dtype=np.float32), np.empty(n, dtype=np.int64),
                 np.empty(n, dtype=np.uint8))
    per_block = _block_rows(n, rec)
    buf = np.empty(per_block * rec.itemsize, dtype=np.uint8)
    for lo in range(0, n, per_block):
        hi = min(lo + per_block, n)
        raw = buf[:(hi - lo) * rec.itemsize]
        got = fh.readinto(raw)
        if got != raw.size:   # the file shrank after the size check
            raise DatasetFormatError(
                f"truncated or oversized payload (expected {expected} bytes)",
                HEADER_BYTES + lo * rec.itemsize + got)
        block = raw.view(rec)
        bad = np.flatnonzero((block["split"] != TRAIN) & (block["split"] != TEST))
        if bad.size:
            at = lo + int(bad[0])
            raise DatasetFormatError(f"bad split byte at sample {at}",
                                     HEADER_BYTES + at * rec.itemsize + 4)
        ds.features[lo:hi] = block["features"]
        ds.labels[lo:hi] = block["label"]
        ds.split[lo:hi] = block["split"]
    ds.validate()
    return ds


def load_csv(path) -> Dataset:
    """Convenience import: UTF-8 text with header `label,split,f0..f{D-1}`;
    labels must lie in [0, 2**32), as in the binary format, and features be
    finite in float32; split may be a 0/1 integer or the strings train/test.
    A rejected row is named by its CSV line."""
    split_map = {"train": TRAIN, "test": TEST, "0": TRAIN, "1": TEST}
    labels, split, feats = [], [], []
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    reader = csv.reader(line.decode("utf-8") for line in lines)
    try:
        header = next(reader, None)
        if header is None or len(header) < 3 or header[0] != "label" or header[1] != "split":
            raise DatasetValidationError("CSV header must be label,split,f0..")
        dim = len(header) - 2
        for line in reader:
            where = f"CSV line {reader.line_num}"
            if len(line) != dim + 2:
                raise DatasetValidationError(f"{where} has {len(line)} fields, expected {dim + 2}")
            if line[1].strip() not in split_map:
                raise DatasetValidationError(f"{where}: bad split value {line[1]!r}")
            try:
                labels.append(int(line[0]))
                feats.append([float(v) for v in line[2:]])
            except ValueError as exc:
                raise DatasetValidationError(f"{where}: {exc}") from None
            if not 0 <= labels[-1] < 2 ** 32:
                raise DatasetValidationError(f"{where}: label {labels[-1]} outside [0, 2**32)")
            # float32 rounds every magnitude from 2**128 - 2**103 up to inf
            bad = [v for v in feats[-1] if not abs(v) < 2.0 ** 128 - 2.0 ** 103]
            if bad:
                raise DatasetValidationError(f"{where}: feature {bad[0]!r} is not a finite float32")
            split.append(split_map[line[1].strip()])
    except UnicodeDecodeError:
        # the reader counts a line once it is decoded
        raise DatasetValidationError(f"CSV line {reader.line_num + 1} is not UTF-8") from None
    if not labels:
        raise DatasetValidationError("CSV has no data rows")
    ds = Dataset(np.array(feats, dtype=np.float32), np.array(labels, dtype=np.int64),
                 np.array(split, dtype=np.uint8))
    ds.validate()
    return ds


def split_schedule(ds: Dataset, schedule) -> Iterator[TaskDataset]:
    """Check that the dataset holds every scheduled class, then return an
    iterator that cuts each task's split only when that task is asked for:
    task 0 takes the first k classes of schedule.class_order, each later
    task the next d."""
    order = list(schedule.class_order)
    needed = schedule.k + (schedule.n_tasks - 1) * schedule.d
    if len(order) < needed:
        raise InvalidArgumentError(
            f"schedule needs {needed} classes, class_order has {len(order)}")
    ids, rank = np.unique(ds.labels, return_inverse=True)
    present = set(ids.tolist())
    missing = [c for c in order[:needed] if c not in present]
    if missing:
        raise InvalidArgumentError(f"dataset is missing scheduled classes {missing}")
    # head row by rank, -1 for a class the schedule leaves out
    row_of_rank = np.full(len(ids), -1, dtype=np.int64)
    row_of_rank[np.searchsorted(ids, order[:needed])] = np.arange(needed)
    rows = row_of_rank[rank]
    bounds = [0] + [schedule.k + ti * schedule.d for ti in range(schedule.n_tasks)]

    def tasks():
        for ti, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            sel = (rows >= lo) & (rows < hi)
            tr = sel & (ds.split == TRAIN)
            te = sel & (ds.split == TEST)
            yield TaskDataset(ti, tuple(order[lo:hi]), ds.features[tr], rows[tr],
                              ds.features[te], rows[te])
    return tasks()


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


def synth_gaussian(classes: int, dim: int, per_class_train: int = 200,
                   per_class_test: int = 50, separation: float = 10.0,
                   seed: int = 0) -> Dataset:
    """Gaussian-mixture benchmark: class means on the radius-`separation`
    sphere, unit isotropic noise, train/test drawn independently. `pgpfr
    synth` flags and a config's `synth` keys left out take these defaults."""
    if classes < 1 or dim < 1 or per_class_train < 1 or per_class_test < 1:
        raise InvalidArgumentError("synth_gaussian requires positive counts and dims")
    if not (separation >= 0 and np.isfinite(separation)):
        raise InvalidArgumentError(f"separation must be finite and >= 0, got {separation}")
    if seed < 0:
        raise InvalidArgumentError(f"synth seed must be >= 0, got {seed}")

    n = classes * (per_class_train + per_class_test)
    check_addressable((n, dim))   # bounds every array below, the float64 draws too
    mean_rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_SYNTH_MEANS]))
    means = mean_rng.normal(size=(classes, dim))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = means / norms * separation

    ds = Dataset(np.empty((n, dim), dtype=np.float32), np.empty(n, dtype=np.int64),
                 np.empty(n, dtype=np.uint8))
    # each class's train block, then its test block, drawn in float64 and
    # cast into the float32 array one block at a time
    lo = 0
    for cid in range(classes):
        for split_tag, count in ((TRAIN, per_class_train), (TEST, per_class_test)):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, _TAG_SYNTH_SAMPLES, cid, split_tag]))
            hi = lo + count
            with np.errstate(over="ignore"):
                ds.features[lo:hi] = means[cid] + rng.normal(size=(count, dim))
            ds.labels[lo:hi] = cid
            ds.split[lo:hi] = split_tag
            lo = hi
    # min or max is infinite when any entry is, and neither needs an (N, D) mask
    if not (np.isfinite(ds.features.min()) and np.isfinite(ds.features.max())):
        raise InvalidArgumentError(f"separation {separation} overflows the float32 feature range")
    return ds


def class_order_for(ds: Dataset, seed: int | None) -> list[int]:
    """Ascending class ids, or a seeded permutation when a seed is given."""
    ids = ds.class_ids
    if seed is None:
        return ids
    if seed < 0:
        raise InvalidArgumentError(f"class order seed must be >= 0, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_CLASS_ORDER]))
    return [ids[i] for i in rng.permutation(len(ids))]
