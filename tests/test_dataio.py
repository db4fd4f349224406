import hashlib
import os
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from pgpfr import dataio
from pgpfr.dataio import (TEST, TRAIN, Dataset, batches, class_order_for, load_csv,
                          load_dataset, save_dataset, split_schedule,
                          synth_gaussian)
from pgpfr.engine import TaskSchedule
from pgpfr.errors import (DatasetFormatError, DatasetValidationError,
                          InvalidArgumentError, InvalidStateError)


class TestSaveLoadRoundTrip:
    def test_bitwise_lossless(self, tmp_path):
        ds = synth_gaussian(3, 5, 4, 2, 2.0, seed=1)
        p1, p2 = tmp_path / "a.pgfr", tmp_path / "b.pgfr"
        save_dataset(ds, p1)
        loaded = load_dataset(p1)
        save_dataset(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.labels.dtype == np.int64
        for a in (loaded.features, loaded.labels, loaded.split):
            assert a.flags.c_contiguous and a.flags.writeable

    @pytest.mark.parametrize("label, split", [(-1, 0), (2 ** 32, 0), (0, 2)])
    def test_out_of_range_record_rejected_before_writing(self, tmp_path, label, split):
        ds = synth_gaussian(2, 3, 2, 1, 1.0, seed=0)
        ds.labels[1], ds.split[1] = label, split
        p = tmp_path / "bad.pgfr"
        with pytest.raises(InvalidArgumentError):
            save_dataset(ds, p)
        assert not p.exists()

    def test_truncated_file_rejected(self, tmp_path):
        ds = synth_gaussian(2, 3, 2, 1, 1.0, seed=0)
        p = tmp_path / "t.pgfr"
        save_dataset(ds, p)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(DatasetFormatError) as exc:
            load_dataset(p)
        assert exc.value.offset > 0

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.pgfr"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DatasetFormatError) as exc:
            load_dataset(p)
        assert exc.value.offset == 0

    def test_bad_version_rejected(self, tmp_path):
        p = tmp_path / "v.pgfr"
        p.write_bytes(b"PGFR" + struct.pack("<IQI", 9, 0, 1))
        with pytest.raises(DatasetFormatError):
            load_dataset(p)

    @pytest.mark.parametrize("dim", [2 ** 29, 2 ** 31, 2 ** 32 - 1])
    def test_record_too_large_rejected(self, tmp_path, dim):
        # a 20-byte header whose record size does not fit in a C int
        p = tmp_path / "huge.pgfr"
        p.write_bytes(b"PGFR" + struct.pack("<IQI", 1, 0, dim))
        with pytest.raises(DatasetFormatError, match=f"feature dim {dim} too large") as exc:
            load_dataset(p)
        assert exc.value.offset == 16

    def test_nan_payload_rejected(self, tmp_path):
        ds = synth_gaussian(2, 3, 2, 1, 1.0, seed=0)
        feats = ds.features.copy()
        feats[2, 1] = np.nan
        p = tmp_path / "nan.pgfr"
        save_dataset(Dataset(feats, ds.labels, ds.split), p)
        with pytest.raises(DatasetValidationError) as exc:
            load_dataset(p)
        assert "sample 2" in str(exc.value)

    def test_missing_split_rejected(self, tmp_path):
        feats = np.ones((2, 2), dtype=np.float32)
        ds = Dataset(feats, np.array([0, 0]), np.array([0, 0], dtype=np.uint8))
        p = tmp_path / "nosplit.pgfr"
        save_dataset(ds, p)
        with pytest.raises(DatasetValidationError):
            load_dataset(p)

    @pytest.mark.parametrize("n_feats, n_labels, n_split", [(3, 2, 3), (3, 3, 2), (2, 3, 3)])
    def test_unequal_row_counts_rejected_before_writing(self, tmp_path, n_feats, n_labels, n_split):
        ds = Dataset(np.zeros((n_feats, 2), dtype=np.float32), np.zeros(n_labels, dtype=np.int64),
                     np.zeros(n_split, dtype=np.uint8))
        p = tmp_path / "short.pgfr"
        with pytest.raises(InvalidArgumentError, match="one entry per row"):
            save_dataset(ds, p)
        assert not p.exists()

    def test_features_not_2d_rejected_before_writing(self, tmp_path):
        ds = Dataset(np.zeros(3, dtype=np.float32), np.zeros(3, dtype=np.int64),
                     np.zeros(3, dtype=np.uint8))
        p = tmp_path / "flat.pgfr"
        with pytest.raises(InvalidArgumentError, match="features must be 2-D"):
            save_dataset(ds, p)
        assert not p.exists()


def _record_bytes(dim: int) -> int:
    return 4 + 1 + 4 * dim   # label u32 | split u8 | dim x f32


def _packed_at_once(ds: Dataset) -> bytes:
    """The file as one packed array of every record writes it."""
    records = np.empty(ds.n_samples, dtype=dataio._record_dtype(ds.dim))
    records["label"] = ds.labels
    records["split"] = ds.split
    records["features"] = ds.features
    return b"PGFR" + struct.pack("<IQI", 1, ds.n_samples, ds.dim) + records.tobytes()


class TestBlockLoader:
    """save_dataset writes and load_dataset reads records in blocks of
    READ_BLOCK_BYTES; a file of several blocks and a partial tail must equal
    one packed array of every record and load as if read at once."""

    def test_round_trip_longer_than_one_read_block(self, tmp_path):
        # 1,024-wide records: 255 per 1 MiB block, so 600 records end in a 90-record tail
        ds = synth_gaussian(3, 1024, 100, 100, 2.0, seed=4)
        per_block = dataio.READ_BLOCK_BYTES // _record_bytes(1024)
        assert ds.n_samples > 2 * per_block and ds.n_samples % per_block
        p = tmp_path / "big.pgfr"
        save_dataset(ds, p)
        assert p.read_bytes() == _packed_at_once(ds)
        loaded = load_dataset(p)
        for a, b in ((loaded.features, ds.features), (loaded.labels, ds.labels),
                     (loaded.split, ds.split)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("per_block", [1, 4, 7, 24, 25])
    def test_round_trip_at_small_blocks(self, tmp_path, monkeypatch, per_block):
        ds = synth_gaussian(4, 3, 4, 2, 2.0, seed=6)   # 24 records
        monkeypatch.setattr(dataio, "READ_BLOCK_BYTES", per_block * _record_bytes(3))
        p = tmp_path / "d.pgfr"
        save_dataset(ds, p)
        assert p.read_bytes() == _packed_at_once(ds)
        loaded = load_dataset(p)
        assert loaded.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(loaded.labels, ds.labels)
        assert np.array_equal(loaded.split, ds.split)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_loads(self, tmp_path):
        # a pipe has no size, so it is read whole before its records are parsed
        ds = synth_gaussian(3, 4, 5, 2, 2.0, seed=2)
        save_dataset(ds, tmp_path / "d.pgfr")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=((tmp_path / "d.pgfr").read_bytes(),))
        writer.start()
        try:
            loaded = load_dataset(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert loaded.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(loaded.labels, ds.labels) and np.array_equal(loaded.split, ds.split)

    def test_empty_file_loads(self, tmp_path):
        p = tmp_path / "empty.pgfr"
        p.write_bytes(b"PGFR" + struct.pack("<IQI", 1, 0, 3))
        ds = load_dataset(p)
        assert ds.features.shape == (0, 3) and ds.labels.shape == ds.split.shape == (0,)

    def _written(self, tmp_path, monkeypatch):
        """A 24-record file read 5 records per block, and its bytes."""
        monkeypatch.setattr(dataio, "READ_BLOCK_BYTES", 5 * _record_bytes(3))
        p = tmp_path / "d.pgfr"
        save_dataset(synth_gaussian(4, 3, 4, 2, 2.0, seed=6), p)
        return p, bytearray(p.read_bytes())

    @pytest.mark.parametrize("sample", [3, 17, 23])
    def test_bad_split_byte_keeps_its_sample_and_offset(self, tmp_path, monkeypatch, sample):
        p, raw = self._written(tmp_path, monkeypatch)
        offset = 20 + sample * _record_bytes(3) + 4
        raw[offset] = 2
        p.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match=f"bad split byte at sample {sample} ") as exc:
            load_dataset(p)
        assert exc.value.offset == offset

    def test_first_bad_split_byte_wins_over_a_nan(self, tmp_path, monkeypatch):
        # split bytes are checked as each block is read, features after the last
        p, raw = self._written(tmp_path, monkeypatch)
        struct.pack_into("<f", raw, 20 + 2 * _record_bytes(3) + 5, float("nan"))
        raw[20 + 21 * _record_bytes(3) + 4] = 7
        p.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="bad split byte at sample 21 "):
            load_dataset(p)

    @pytest.mark.parametrize("sample", [3, 17, 23])
    def test_nan_feature_keeps_its_sample(self, tmp_path, monkeypatch, sample):
        p, raw = self._written(tmp_path, monkeypatch)
        struct.pack_into("<f", raw, 20 + sample * _record_bytes(3) + 5 + 4, float("nan"))
        p.write_bytes(bytes(raw))
        with pytest.raises(DatasetValidationError, match=f"at sample {sample}$"):
            load_dataset(p)


class TestBlockWriter:
    @pytest.mark.parametrize("n", [0, 15])
    def test_bytes_equal_one_packed_array(self, tmp_path, monkeypatch, n):
        # blocks of 4 records end in a partial one of 3; labels reach the
        # largest u32
        monkeypatch.setattr(dataio, "READ_BLOCK_BYTES", 4 * _record_bytes(3))
        ds = synth_gaussian(5, 3, 2, 1, 2.0, seed=1)
        ids = np.array([0, 7, 2 ** 16, 2 ** 31, 2 ** 32 - 1])
        ds = Dataset(ds.features[:n], ids[ds.labels[:n]], ds.split[:n])
        p = tmp_path / "d.pgfr"
        save_dataset(ds, p)
        assert p.read_bytes() == _packed_at_once(ds)

    def test_allocates_one_block_not_the_records(self, tmp_path):
        # 5,000 records of 1,029 bytes, about 5 blocks; the writer holds one
        # block of them, plus the file object's small buffers
        ds = synth_gaussian(5, 256, 800, 200, 2.0, seed=3)
        p = tmp_path / "d.pgfr"
        save_dataset(ds, p)   # the first call imports modules numpy loads lazily
        tracemalloc.start()
        try:
            save_dataset(ds, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.n_samples * _record_bytes(256) > 4 * dataio.READ_BLOCK_BYTES
        assert peak < 2 * dataio.READ_BLOCK_BYTES


class TestValidate:
    def _ds(self, labels, split):
        n = len(labels)
        return Dataset(np.zeros((n, 2), dtype=np.float32), np.array(labels, dtype=np.int64),
                       np.array(split, dtype=np.uint8))

    def test_names_the_smallest_class_lacking_a_sample(self):
        # class 7 has no test sample, class 3 no train sample, class 5 has both
        ds = self._ds([7, 5, 3, 5, 7], [0, 0, 1, 1, 0])
        with pytest.raises(DatasetValidationError, match="^class 3 lacks a train or test sample$"):
            ds.validate()

    def test_split_bytes_outside_train_and_test_are_ignored(self):
        with pytest.raises(DatasetValidationError, match="^class 1 lacks"):
            self._ds([0, 0, 0, 1, 1], [0, 1, 2, 255, 0]).validate()
        self._ds([0, 0, 0, 1, 1, 1], [0, 1, 2, 255, 0, 1]).validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_its_sample(self, value):
        ds = self._ds([0, 0, 1, 1], [0, 1, 0, 1])
        ds.features[2, 1] = value
        with pytest.raises(DatasetValidationError, match="at sample 2$"):
            ds.validate()


class TestCsvImport:
    def test_round_trip_values(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,split,f0,f1\n"
                     "0,train,1.5,2.5\n0,test,0.5,0.25\n"
                     "1,0,-1.0,3.0\n1,1,0.0,0.0\n")
        ds = load_csv(p)
        assert ds.n_samples == 4 and ds.dim == 2
        assert np.allclose(ds.features[0], [1.5, 2.5])
        assert list(ds.split) == [0, 1, 0, 1]

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DatasetValidationError):
            load_csv(p)

    @pytest.mark.parametrize("row, message", [
        ("0,test,abc", "CSV line 3: could not convert string to float: 'abc'"),
        ("x,test,1.0", "CSV line 3: invalid literal for int() with base 10: 'x'"),
        ("0,valid,1.0", "CSV line 3: bad split value 'valid'"),
        ("0,test", "CSV line 3 has 2 fields, expected 3"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        p = tmp_path / "bad.csv"
        p.write_text(f"label,split,f0\n0,train,1.0\n{row}\n")
        with pytest.raises(DatasetValidationError) as info:
            load_csv(p)
        assert str(info.value) == message

    @pytest.mark.parametrize("label", ["-1", "4294967296", "99999999999999999999"])
    def test_label_outside_u32_names_its_line(self, tmp_path, label):
        p = tmp_path / "bad.csv"
        p.write_text(f"label,split,f0\n0,train,1.0\n{label},test,1.0\n")
        with pytest.raises(DatasetValidationError) as info:
            load_csv(p)
        assert str(info.value) == f"CSV line 3: label {label} outside [0, 2**32)"

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"label,split,f0\n0,train,1.0\n0,train,2.0\n0,te\xffst,1.0\n")
        with pytest.raises(DatasetValidationError) as info:
            load_csv(p)
        assert str(info.value) == "CSV line 4 is not UTF-8"

    @pytest.mark.parametrize("value", ["1e39", "-3.5e38", "1e400", "nan", "-inf"])
    def test_value_not_finite_in_float32_names_its_line(self, tmp_path, value):
        p = tmp_path / "bad.csv"
        p.write_text(f"label,split,f0,f1\n0,train,1.0,2.0\n0,test,0.5,{value}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetValidationError) as info:
                load_csv(p)
        assert str(info.value) == \
            f"CSV line 3: feature {float(value)!r} is not a finite float32"

    def test_largest_float32_value_loads(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,split,f0\n0,train,3.4028234e38\n0,test,-3.4028234e38\n")
        assert np.isfinite(load_csv(p).features).all()

    def test_largest_u32_label_loads(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("label,split,f0\n4294967295,train,1.0\n4294967295,test,2.0\n")
        assert list(load_csv(p).labels) == [2 ** 32 - 1] * 2


class TestSplitSchedule:
    def test_shrec_style(self):
        ds = synth_gaussian(14, 4, 2, 1, 1.0, seed=0)
        sched = TaskSchedule(14, 8, 1, 7, list(range(14)))
        tasks = split_schedule(ds, sched)
        assert [len(t.class_ids) for t in tasks] == [8, 1, 1, 1, 1, 1, 1]

    def test_ten_class_counting(self):
        ds = synth_gaussian(10, 4, 2, 1, 1.0, seed=0)
        tasks = list(split_schedule(ds, TaskSchedule(10, 4, 1, 7, list(range(10)))))
        assert len(tasks) == 7

    def test_single_task(self):
        ds = synth_gaussian(5, 4, 2, 1, 1.0, seed=0)
        tasks = list(split_schedule(ds, TaskSchedule(5, 5, 1, 1, list(range(5)))))
        assert len(tasks) == 1 and tasks[0].class_ids == (0, 1, 2, 3, 4)

    def test_partition_is_exact(self):
        ds = synth_gaussian(10, 4, 2, 1, 1.0, seed=0)
        tasks = split_schedule(ds, TaskSchedule(10, 4, 2, 4, list(range(10))))
        seen = [c for t in tasks for c in t.class_ids]
        assert sorted(seen) == sorted(set(seen)) == list(range(10))

    def test_follows_class_order(self):
        ds = synth_gaussian(6, 4, 2, 1, 1.0, seed=0)
        order = [5, 3, 1, 0, 2, 4]
        tasks = list(split_schedule(ds, TaskSchedule(6, 2, 2, 3, order)))
        assert tasks[0].class_ids == (5, 3)
        assert tasks[2].class_ids == (2, 4)

    def test_missing_classes(self):
        ds = synth_gaussian(4, 4, 2, 1, 1.0, seed=0)
        with pytest.raises(InvalidArgumentError):
            split_schedule(ds, TaskSchedule(10, 4, 1, 7, list(range(10))))

    def test_labels_are_head_rows(self):
        ds = synth_gaussian(6, 4, 2, 1, 1.0, seed=0)
        order = [5, 3, 1, 0, 2, 4]
        for t in split_schedule(ds, TaskSchedule(6, 2, 2, 3, order)):
            for split, feats, labels in ((TRAIN, t.train_features, t.train_labels),
                                         (TEST, t.test_features, t.test_labels)):
                sel = np.isin(ds.labels, t.class_ids) & (ds.split == split)
                assert np.array_equal(feats, ds.features[sel])
                assert labels.dtype == np.int64
                assert labels.tolist() == [order.index(c) for c in ds.labels[sel]]

    def test_labels_up_to_the_largest_u32(self):
        labels = np.array([3, 7, 2 ** 32 - 1] * 2, dtype=np.int64)
        ds = Dataset(np.arange(12, dtype=np.float32).reshape(6, 2), labels,
                     np.repeat(np.array([TRAIN, TEST], dtype=np.uint8), 3))
        tasks = list(split_schedule(ds, TaskSchedule(3, 1, 1, 3, [2 ** 32 - 1, 3, 7])))
        assert [t.class_ids for t in tasks] == [(2 ** 32 - 1,), (3,), (7,)]
        assert [t.train_labels.tolist() for t in tasks] == [[0], [1], [2]]
        assert [t.test_labels.tolist() for t in tasks] == [[0], [1], [2]]

    def test_creating_the_iterator_cuts_no_split(self):
        ds = synth_gaussian(10, 128, 20, 5, 1.0, seed=0)
        sched = TaskSchedule(10, 5, 5, 2, list(range(10)))
        split_schedule(ds, sched)   # the first call imports modules numpy loads lazily
        tracemalloc.start()
        try:
            tasks = split_schedule(ds, sched)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        first = next(iter(tasks))
        assert peak < first.train_features.nbytes + first.test_features.nbytes


class TestBatches:
    def _task(self, n=10):
        ds = synth_gaussian(2, 3, n // 2, 1, 1.0, seed=0)
        return list(split_schedule(ds, TaskSchedule(2, 2, 1, 1, [0, 1])))[0]

    def test_chunk_sizes(self):
        td = self._task(10)
        sizes = [len(b) for b in batches(td, 4, seed=0, epoch=0)]
        assert sizes == [4, 4, 2]

    def test_deterministic(self):
        td = self._task(10)
        a = batches(td, 4, seed=3, epoch=2)
        b = batches(td, 4, seed=3, epoch=2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_epochs_differ(self):
        ds = synth_gaussian(2, 3, 50, 1, 1.0, seed=0)
        td = list(split_schedule(ds, TaskSchedule(2, 2, 1, 1, [0, 1])))[0]
        a = batches(td, 100, seed=0, epoch=0)[0]
        b = batches(td, 100, seed=0, epoch=1)[0]
        assert not np.array_equal(a, b)

    def test_covers_every_index_once(self):
        td = self._task(10)
        idx = np.concatenate(batches(td, 3, seed=1, epoch=0))
        assert sorted(idx) == list(range(10))

    def test_empty_train_split(self):
        td = self._task(10)
        empty = type(td)(0, td.class_ids, td.train_features[:0],
                         td.train_labels[:0], td.test_features, td.test_labels)
        with pytest.raises(InvalidStateError):
            batches(empty, 4, seed=0, epoch=0)

    def test_bad_batch_size(self):
        with pytest.raises(InvalidArgumentError):
            batches(self._task(), 0, seed=0, epoch=0)


class TestSynthGaussian:
    def test_deterministic(self):
        a = synth_gaussian(4, 6, 5, 2, 3.0, seed=9)
        b = synth_gaussian(4, 6, 5, 2, 3.0, seed=9)
        assert a.features.tobytes() == b.features.tobytes()

    def test_bytes_pinned(self):
        # sha256 of features, labels and split, computed before the generator
        # wrote its blocks straight into float32
        ds = synth_gaussian(3, 5, 4, 2, 2.0, seed=1)
        assert (ds.features.dtype, ds.labels.dtype, ds.split.dtype) == \
            (np.float32, np.int64, np.uint8)
        h = hashlib.sha256()
        for a in (ds.features, ds.labels, ds.split):
            h.update(a.tobytes())
        assert h.hexdigest() == \
            "f56721fe0fcbba9d8cef783c1bee4777f4b605bc91956781add5c1ed2b24d71c"

    def test_zero_separation_indistinguishable(self):
        ds = synth_gaussian(4, 8, 50, 20, 0.0, seed=0)
        # shared mean 0: nearest-mean accuracy collapses toward chance
        acc = _nearest_mean_accuracy(ds)
        assert acc < 0.55

    def test_high_separation_nearest_mean_oracle(self):
        ds = synth_gaussian(10, 16, 50, 20, 10.0, seed=0)
        assert _nearest_mean_accuracy(ds) >= 0.99

    def test_invalid_args(self):
        with pytest.raises(InvalidArgumentError):
            synth_gaussian(3, 0, 5, 2, 1.0, seed=0)
        with pytest.raises(InvalidArgumentError):
            synth_gaussian(3, 4, 5, 2, -1.0, seed=0)
        for separation in (float("nan"), float("inf")):
            with pytest.raises(InvalidArgumentError, match="separation must be finite"):
                synth_gaussian(3, 4, 5, 2, separation, seed=0)
        with pytest.raises(InvalidArgumentError, match="synth seed must be >= 0"):
            synth_gaussian(3, 4, 5, 2, 1.0, seed=-1)

    def test_validates(self):
        ds = synth_gaussian(3, 4, 5, 2, 1.0, seed=0)
        ds.validate()

    @pytest.mark.parametrize("separation", [1e39, 1e300])
    def test_float32_overflow_rejected_without_warnings(self, separation):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="separation .* overflows"):
                synth_gaussian(3, 2, 5, 2, separation, seed=0)

    def test_largest_float32_separation_loads(self):
        ds = synth_gaussian(3, 2, 5, 2, 1e38, seed=0)
        ds.validate()
        assert np.isfinite(ds.features).all()


def _nearest_mean_accuracy(ds) -> float:
    train = ds.split == 0
    feats = ds.features.astype(np.float64)
    means = {c: feats[train & (ds.labels == c)].mean(axis=0) for c in ds.class_ids}
    ids = np.array(ds.class_ids)
    centers = np.stack([means[c] for c in ids])
    test = ~train
    d = ((feats[test, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    preds = ids[np.argmin(d, axis=1)]
    return float((preds == ds.labels[test]).mean())


class TestClassOrder:
    def test_default_ascending(self):
        ds = synth_gaussian(5, 4, 2, 1, 1.0, seed=0)
        assert class_order_for(ds, None) == [0, 1, 2, 3, 4]

    def test_seeded_permutation(self):
        ds = synth_gaussian(8, 4, 2, 1, 1.0, seed=0)
        order = class_order_for(ds, 5)
        assert sorted(order) == list(range(8))
        assert class_order_for(ds, 5) == order

    def test_negative_seed_rejected(self):
        ds = synth_gaussian(3, 4, 2, 1, 1.0, seed=0)
        with pytest.raises(InvalidArgumentError, match="class order seed must be >= 0"):
            class_order_for(ds, -1)
