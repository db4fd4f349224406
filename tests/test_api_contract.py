"""The error contract of the public API: every name `pgpfr` exports, called
with drawn arguments, either returns, raises a `pgpfr.errors` class, or
raises the MemoryError of `numerics.check_addressable` for a shape numpy
cannot address; it never emits a warning.

Each array argument is drawn with any shape up to 8 per axis (up to 3 axes),
dtype int, float, bool or str, and NaN among its float entries. Each size
argument is at most 8 (negatives included) or at least 2**61, never
addressable but large, so no case allocates much. Many draws are well
formed, so a call also gets past its checks. CASES holds one case per
export; `test_exports` checks that every export has one.
"""

import math
import struct
import warnings
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pgpfr
from pgpfr.classifier import expand
from pgpfr.errors import InvalidArgumentError, PgpfrError
from pgpfr.extractor import init

SIZES = st.integers(-2, 8) | st.integers(2 ** 61, 2 ** 64)
SMALL = st.integers(1, 6)
FLOATS = st.floats(-1e6, 1e6) | st.just(math.nan)
ELEMENTS = {
    "int64": st.integers(-2, 9) | st.integers(-2 ** 63, 2 ** 63 - 1),
    "float64": FLOATS,
    "bool": st.booleans(),
    "<U3": st.text("0123456789.-ae", max_size=3),
}
SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=8)
INDICES = SIZES | FLOATS   # a count or index, or a float standing in for one


def arrays(shape=SHAPES):
    """An array of one of the four dtypes, of a drawn shape or the given one."""
    return st.sampled_from(tuple(ELEMENTS)).flatmap(
        lambda dt: hnp.arrays(np.dtype(dt), shape, elements=ELEMENTS[dt]))


def features(n, dim):
    """(n, dim) floats, finite or with NaN among them, or any array."""
    return (hnp.arrays(np.float64, (n, dim), elements=st.floats(-10, 10))
            | hnp.arrays(np.float64, (n, dim), elements=FLOATS) | arrays())


def labels(n):
    """n labels in [0, 5) half of the time, else any array."""
    return hnp.arrays(np.int64, n, elements=st.integers(0, 4)) | arrays()


def width(a):
    return a.shape[-1] if a.ndim else 0


def rows(a):
    return len(a) if a.ndim else 0


def loss_config(data):
    return pgpfr.LossConfig(*data.draw(st.tuples(
        st.floats(0.05, 2.0), st.floats(0, 10), *[st.booleans()] * 4)))


def classifier(data):
    return pgpfr.new_classifier(data.draw(SMALL), data.draw(SMALL), data.draw(st.integers(0, 3)))


def dataset(data):
    """A small valid synthetic dataset half of the time, else drawn arrays."""
    if data.draw(st.booleans()):
        return pgpfr.synth_gaussian(*data.draw(st.tuples(SMALL, SMALL, SMALL, SMALL)),
                                    seed=data.draw(st.integers(0, 3)))
    n, dim = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    split = hnp.arrays(np.uint8, n, elements=st.integers(0, 2)) | arrays()
    return pgpfr.Dataset(data.draw(arrays(st.just((n, dim))) | arrays()),
                         data.draw(labels(n)), data.draw(split))


def store(data, dim=None):
    """A store fitted to `dim`-wide features half of the time, else one of
    drawn arrays."""
    if data.draw(st.booleans()):
        n = data.draw(SMALL)
        return pgpfr.fit_class_statistics(
            data.draw(hnp.arrays(np.float64, (n, dim or data.draw(SMALL)),
                                 elements=st.floats(-10, 10))),
            data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 4))))
    return pgpfr.PrototypeStore(data.draw(arrays()), data.draw(arrays()), data.draw(arrays()))


def call_load_dataset(data):
    header = b"PGFR" + struct.pack("<IQI", data.draw(st.sampled_from([1, 2])),
                                   data.draw(SIZES) % 2 ** 64, data.draw(SIZES) % 2 ** 32)
    with TemporaryDirectory() as d:
        path = Path(d) / "d.pgfr"
        path.write_bytes(header + data.draw(st.binary(max_size=64)))
        pgpfr.load_dataset(path)


def call_load_csv(data):
    """Drawn cells under a header of their width; half of the time the first
    two columns are labels in [0, 5) and split values."""
    table = np.atleast_2d(data.draw(arrays())).astype(str)
    table = table.reshape(math.prod(table.shape[:-1]), width(table))
    n = len(table)
    if width(table) > 2 and data.draw(st.booleans()):
        table[:, 0] = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 4)))
        table[:, 1] = data.draw(hnp.arrays(np.dtype("<U5"), n,
                                           elements=st.sampled_from(["0", "1", "train", "test"])))
    header = ["label", "split"] + [f"f{i}" for i in range(width(table) - 2)]
    with TemporaryDirectory() as d:
        path = Path(d) / "d.csv"
        path.write_text("\n".join(",".join(r) for r in [header, *table.tolist()]) + "\n")
        pgpfr.load_csv(path)


def call_save_dataset(data):
    with TemporaryDirectory() as d:
        pgpfr.save_dataset(dataset(data), Path(d) / "d.pgfr")


def call_run_experiment(data):
    ds = dataset(data)
    ids = sorted(set(np.ravel(ds.labels).tolist()))
    dim = width(ds.features)
    kind = data.draw(st.sampled_from(["identity", "linear", "mlp1"]))
    if data.draw(st.booleans()):   # a schedule and a backbone that fit the dataset
        order = data.draw(st.permutations(ids))
        k, d = data.draw(st.integers(1, max(len(ids), 1))), data.draw(st.integers(1, 2))
        n_tasks = data.draw(st.integers(1, max((len(ids) - k) // d + 1, 1)))
        schedule = (len(order), k, d, n_tasks, order)
        widths = (dim, dim, dim if kind == "mlp1" else 0)
    else:
        schedule = (*[data.draw(SIZES) for _ in range(4)],
                    data.draw(st.lists(st.integers(-1, 6), max_size=6)))
        widths = [data.draw(SIZES) for _ in range(3)]
    pgpfr.run_experiment(
        pgpfr.TrainConfig(data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)),
                          data.draw(SMALL | SIZES), 0.01, data.draw(st.integers(0, 3)),
                          loss_config(data)),
        pgpfr.TaskSchedule(*schedule), ds,
        pgpfr.ExtractorSpec(kind, *widths, data.draw(st.integers(0, 3))))


def call_task_schedule(data):
    total = data.draw(SIZES)
    order = data.draw((st.permutations(range(total)) if 0 <= total <= 8 else st.just([]))
                      | st.lists(SIZES, max_size=8))
    pgpfr.TaskSchedule(total, *[data.draw(SMALL | SIZES) for _ in range(3)], order)


def call_experiment_state(data):
    spec = pgpfr.ExtractorSpec("identity", *[data.draw(SMALL)] * 2)
    pgpfr.ExperimentState(init(spec), classifier(data), store(data, spec.feature_dim))


def call_summarize(data):
    pgpfr.summarize(data.draw(st.lists(
        st.builds(pgpfr.MetricsRecord, SIZES, *[FLOATS] * 5), max_size=4)))


def call_predict(data):
    clf = classifier(data)
    pgpfr.predict(clf, data.draw(features(data.draw(st.integers(0, 8)), clf.dim)))


def call_prototype_store(data):
    if data.draw(st.booleans()):
        n, r, dim = data.draw(SMALL), data.draw(st.integers(0, 3)), data.draw(SMALL)
        s = pgpfr.PrototypeStore(np.arange(n) * data.draw(SMALL), data.draw(features(n, dim)),
                                 data.draw(features(n * r, dim)))
    else:
        s = pgpfr.PrototypeStore(data.draw(arrays()), data.draw(arrays()), data.draw(arrays()))
    if len(s):
        s.covariances


def call_fit_class_statistics(data):
    feats = data.draw(features(data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))))
    pgpfr.fit_class_statistics(feats, data.draw(labels(rows(feats))))


def call_generate_pseudo_batch(data):
    feats = data.draw(features(data.draw(st.integers(0, 8)), data.draw(SMALL)))
    n = rows(feats)
    sizes = data.draw(st.none() | st.just([n // 2, n - n // 2]) | arrays())
    pgpfr.generate_pseudo_batch(feats, data.draw(labels(n)), store(data, width(feats)), sizes)


def call_replay_ce_loss(data):
    logits = data.draw(features(data.draw(st.integers(0, 8)), data.draw(SMALL)))
    pgpfr.replay_ce_loss(logits, data.draw(labels(rows(logits))),
                         data.draw(st.integers(0, rows(logits)) | INDICES),
                         data.draw(st.integers(0, width(logits)) | INDICES), loss_config(data))


def call_tce_loss(data):
    logits = data.draw(features(data.draw(st.integers(0, 8)), data.draw(SMALL)))
    lo = data.draw(st.integers(0, 2) | INDICES)
    hi = data.draw(st.just(width(logits)) | INDICES)
    pgpfr.tce_loss(logits, data.draw(labels(rows(logits))), (lo, hi))


def call_vpr_loss(data):
    clf = classifier(data)
    pgpfr.vpr_loss(store(data, data.draw(st.just(clf.dim) | SMALL)), clf, loss_config(data))


CASES = {
    "Dataset": lambda data: dataset(data).validate(),
    "load_dataset": call_load_dataset,
    "load_csv": call_load_csv,
    "save_dataset": call_save_dataset,
    "synth_gaussian": lambda data: pgpfr.synth_gaussian(
        *data.draw(st.tuples(*[SMALL | SIZES] * 4, FLOATS, SIZES))),
    "run_experiment": call_run_experiment,
    "TrainConfig": lambda data: pgpfr.TrainConfig(
        *data.draw(st.tuples(SIZES, SIZES, SIZES, FLOATS, SIZES))),
    "TaskSchedule": call_task_schedule,
    "LossConfig": lambda data: pgpfr.LossConfig(
        *data.draw(st.tuples(FLOATS, FLOATS, *[st.booleans()] * 4))),
    "ExtractorSpec": lambda data: pgpfr.ExtractorSpec(
        data.draw(st.sampled_from(["identity", "linear", "mlp1", "mlp2"])),
        *data.draw(st.tuples(SIZES, SIZES, SIZES, SIZES))),
    "ExperimentState": call_experiment_state,
    "MetricsRecord": lambda data: pgpfr.MetricsRecord(
        *data.draw(st.tuples(SIZES, *[FLOATS] * 5))),
    "summarize": call_summarize,
    "new_classifier": lambda data: pgpfr.new_classifier(
        *data.draw(st.tuples(SIZES, SIZES, SIZES))),
    "predict": call_predict,
    "PrototypeStore": call_prototype_store,
    "fit_class_statistics": call_fit_class_statistics,
    "generate_pseudo_batch": call_generate_pseudo_batch,
    "replay_ce_loss": call_replay_ce_loss,
    "tce_loss": call_tce_loss,
    "vpr_loss": call_vpr_loss,
}


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_export_returns_or_raises_a_package_error(name, data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            CASES[name](data)
        except PgpfrError as exc:
            event(f"raises {type(exc).__name__}")
            return
        except MemoryError as exc:
            assert "more bytes than numpy can address" in str(exc), exc
            event("raises MemoryError")
            return
    event("returns")


# Calls that once ended in a raw numpy error or passed without a word.
FEATS = np.arange(12.0).reshape(6, 2)
LOGITS = np.zeros((6, 3))
ZEROS = np.zeros(6, dtype=np.int64)


@pytest.mark.parametrize("call", [
    lambda: pgpfr.replay_ce_loss(LOGITS, np.zeros(6), 0, 2, pgpfr.LossConfig()),
    lambda: pgpfr.replay_ce_loss(LOGITS, ZEROS.astype(bool), 0, 2, pgpfr.LossConfig()),
    lambda: pgpfr.replay_ce_loss(np.zeros(6), ZEROS, 0, 2, pgpfr.LossConfig()),
    lambda: pgpfr.replay_ce_loss(LOGITS, ZEROS, 1.0, 2, pgpfr.LossConfig()),
    lambda: pgpfr.tce_loss(LOGITS, np.full(6, 0.5), (0, 3)),
    lambda: pgpfr.tce_loss(LOGITS, ZEROS.astype(bool), (0, 3)),
    lambda: pgpfr.fit_class_statistics(FEATS, np.full(6, 0.5)),
    lambda: pgpfr.fit_class_statistics(FEATS, ZEROS.astype(bool)),
    lambda: pgpfr.fit_class_statistics(FEATS, ZEROS[:, None]),
    lambda: pgpfr.fit_class_statistics(FEATS.astype(str), ZEROS),
    lambda: pgpfr.fit_class_statistics(np.where(FEATS > 10, np.nan, FEATS), ZEROS),
    lambda: pgpfr.predict(pgpfr.new_classifier(2, 3, 0), FEATS.astype(str)),
    lambda: pgpfr.generate_pseudo_batch(FEATS.astype(str), ZEROS,
                                        pgpfr.fit_class_statistics(FEATS, ZEROS)),
], ids=["replay_ce float labels", "replay_ce bool labels", "replay_ce 1-D logits",
        "replay_ce float n_pseudo", "tce float labels", "tce bool labels",
        "fit float labels", "fit bool labels", "fit (N, 1) labels", "fit str features",
        "fit nan features", "predict str features", "pseudo str features"])
def test_rejected_with_invalid_argument(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError):
            call()


def test_label_shape_is_named():
    with pytest.raises(InvalidArgumentError, match=r"shape \(6, 1\)"):
        pgpfr.generate_pseudo_batch(FEATS, ZEROS[:, None], pgpfr.fit_class_statistics(FEATS, ZEROS))


@pytest.mark.parametrize("call", [
    lambda: pgpfr.new_classifier(10 ** 10, 10 ** 10, 0),
    lambda: expand(pgpfr.new_classifier(2, 3, 0), 10 ** 19, 0),
], ids=["new_classifier", "expand"])
def test_unaddressable_head_raises_memory_error(call):
    with pytest.raises(MemoryError, match="more bytes than numpy can address"):
        call()
