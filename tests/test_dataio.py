import struct

import numpy as np
import pytest

from pgpfr.dataio import (Dataset, batches, class_order_for, load_csv,
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


class TestSplitSchedule:
    def test_shrec_style(self):
        ds = synth_gaussian(14, 4, 2, 1, 1.0, seed=0)
        sched = TaskSchedule(14, 8, 1, 7, list(range(14)))
        tasks = split_schedule(ds, sched)
        assert [len(t.class_ids) for t in tasks] == [8, 1, 1, 1, 1, 1, 1]

    def test_ten_class_counting(self):
        ds = synth_gaussian(10, 4, 2, 1, 1.0, seed=0)
        tasks = split_schedule(ds, TaskSchedule(10, 4, 1, 7, list(range(10))))
        assert len(tasks) == 7

    def test_single_task(self):
        ds = synth_gaussian(5, 4, 2, 1, 1.0, seed=0)
        tasks = split_schedule(ds, TaskSchedule(5, 5, 1, 1, list(range(5))))
        assert len(tasks) == 1 and tasks[0].class_ids == (0, 1, 2, 3, 4)

    def test_partition_is_exact(self):
        ds = synth_gaussian(10, 4, 2, 1, 1.0, seed=0)
        tasks = split_schedule(ds, TaskSchedule(10, 4, 2, 4, list(range(10))))
        seen = [c for t in tasks for c in t.class_ids]
        assert sorted(seen) == sorted(set(seen)) == list(range(10))

    def test_follows_class_order(self):
        ds = synth_gaussian(6, 4, 2, 1, 1.0, seed=0)
        order = [5, 3, 1, 0, 2, 4]
        tasks = split_schedule(ds, TaskSchedule(6, 2, 2, 3, order))
        assert tasks[0].class_ids == (5, 3)
        assert tasks[2].class_ids == (2, 4)

    def test_missing_classes(self):
        ds = synth_gaussian(4, 4, 2, 1, 1.0, seed=0)
        with pytest.raises(InvalidArgumentError):
            split_schedule(ds, TaskSchedule(10, 4, 1, 7, list(range(10))))


class TestBatches:
    def _task(self, n=10):
        ds = synth_gaussian(2, 3, n // 2, 1, 1.0, seed=0)
        return split_schedule(ds, TaskSchedule(2, 2, 1, 1, [0, 1]))[0]

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
        td = split_schedule(ds, TaskSchedule(2, 2, 1, 1, [0, 1]))[0]
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

    def test_validates(self):
        ds = synth_gaussian(3, 4, 5, 2, 1.0, seed=0)
        ds.validate()


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
