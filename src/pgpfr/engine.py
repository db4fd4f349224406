"""Experiment orchestration for class-incremental training.

Task 0 trains the backbone and head jointly with plain cross-entropy, then
freezes the backbone for good. From then on a sample's feature is a fixed
function of its input, so each task embeds its train set once and its test
set once: the training batches, the class statistics and the evaluation all
read those arrays. The data stay float32 until the backbone embeds them
into float64, one row block at a time (task 0 feeds each float32 mini-batch
to the float32 backbone as it is), and each task's split is cut from the
dataset only when its turn comes. Every later task
expands the head, trains it per batch on merged pseudo+real features with
the configured losses, and registers the new classes' statistics at the
end. A step's batch is two arrays, features and labels, with its pseudo
rows first. It computes its logits once, and the head gradient of every
loss in one product plus VPR's. Labels arrive as head rows (see
`dataio.TaskDataset`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import classifier as clf_mod
from . import extractor as ext_mod
from .dataio import Dataset, TaskDataset, batches, split_schedule
from .errors import InvalidArgumentError, InvalidStateError
from .losses import (LossConfig, replay_ce_loss, tce_loss, total_loss,
                     vpr_loss)
from .metrics import MetricsRecord, accuracy, ifm
from .prototypes import PrototypeStore, fit_class_statistics, register
from .replay import generate_pseudo_batch, merge


@dataclass
class TaskSchedule:
    total_classes: int
    k: int                      # classes in the initial task
    d: int                      # classes added per incremental task
    n_tasks: int
    class_order: list[int]

    def __post_init__(self):
        if self.k < 1 or self.d < 1 or self.n_tasks < 1:
            raise InvalidArgumentError("k, d, n_tasks must be positive")
        if self.k + (self.n_tasks - 1) * self.d > self.total_classes:
            raise InvalidArgumentError(
                "schedule requires more classes than the dataset provides")
        if len(set(self.class_order)) != len(self.class_order) \
                or len(self.class_order) != self.total_classes:
            raise InvalidArgumentError("class_order must be a permutation of all classes")


@dataclass
class TrainConfig:
    epochs_task0: int = 150
    epochs_incremental: int = 100
    batch_size: int = 32
    lr: float = 0.001
    seed: int = 0
    loss_cfg: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.epochs_task0 < 0 or self.epochs_incremental < 0:
            raise InvalidArgumentError("epoch counts must be >= 0")
        if self.batch_size < 1 or not self.lr > 0:
            raise InvalidArgumentError("batch_size and lr must be positive")
        if self.seed < 0:
            raise InvalidArgumentError(f"train seed must be >= 0, got {self.seed}")


@dataclass
class ExperimentState:
    extractor: ext_mod.Extractor
    clf: clf_mod.IncrementalClassifier
    store: PrototypeStore
    metrics: list[MetricsRecord] = field(default_factory=list)
    # accumulated test pool for global evaluation: one block of frozen-backbone
    # features per task, and the matching head row labels
    test_features: list[np.ndarray] = field(default_factory=list)
    test_labels: list[np.ndarray] = field(default_factory=list)


def _finish_task(state: ExperimentState, data: TaskDataset, train_feats: np.ndarray) -> None:
    """Check the head and the task's embedded train and test features, add
    the test set to the pool, record G and L, and register the task's class
    statistics from its embedded train set.

    G, L and the old/new accuracies come from predictions over the pool,
    made block by block without stacking it; L reads the pool's last block,
    the current task's test set. The store is built last, so its root block
    is allocated after the evaluation's temporaries are freed rather than
    beside them.
    """
    if not (np.isfinite(state.clf.W).all() and np.isfinite(state.clf.b).all()):
        raise InvalidStateError(
            f"task {data.task_index} diverged: the head's W or b is non-finite")
    test_feats = state.extractor.embed_batch(data.test_features)
    if not (np.isfinite(train_feats).all() and np.isfinite(test_feats).all()):
        raise InvalidStateError(
            f"task {data.task_index} diverged: its embedded train or test features are non-finite")
    state.test_features.append(test_feats)
    state.test_labels.append(data.test_labels)

    y_all = np.concatenate(state.test_labels)
    preds = np.concatenate([clf_mod.predict(state.clf, f) for f in state.test_features])
    n_before = len(y_all) - len(state.test_labels[-1])
    g = accuracy(preds, y_all)
    local = accuracy(preds[n_before:], y_all[n_before:])
    old_sel = y_all < state.clf.task_ranges[0][1]
    old_acc = accuracy(preds[old_sel], y_all[old_sel])
    new_sel = ~old_sel
    new_acc = accuracy(preds[new_sel], y_all[new_sel]) if new_sel.any() else float("nan")
    state.store = register(state.store, fit_class_statistics(train_feats, data.train_labels))
    state.metrics.append(MetricsRecord(
        task_index=len(state.metrics), global_acc=g, local_acc=local,
        ifm=ifm(local, g), old_acc=old_acc, new_acc=new_acc))


def run_task0(state: ExperimentState, data: TaskDataset, cfg: TrainConfig) -> None:
    """Joint backbone+head training, then freeze, evaluate, fit statistics."""
    if state.extractor.frozen:
        raise InvalidStateError("task 0 already completed (extractor is frozen)")
    if state.clf.n_classes != len(data.class_ids):
        raise InvalidStateError(
            f"classifier has {state.clf.n_classes} classes, task 0 brings "
            f"{len(data.class_ids)}")
    ext_mod.train_task0(state.extractor, data, state.clf, cfg)
    state.extractor.freeze()
    _finish_task(state, data, state.extractor.embed_batch(data.train_features))


def run_incremental_task(state: ExperimentState, data: TaskDataset, cfg: TrainConfig) -> None:
    """Expand the head and retrain it on one incremental task.

    The train set is embedded once up front. Each epoch gathers its rows in
    batch order and makes all their pseudo rows in one call: per batch, or
    over the whole epoch under the whole-task ablation. Each step slices its
    pseudo rows (none without replay) and its real rows, merges them into
    one features array and one labels array, and scores them with one
    logits product; its pseudo row count is where the losses split them.
    Replay CE and TCE add their gradients into one dlogits, and one Adam
    step takes the head gradient `total_loss` makes from it and VPR. The
    backbone and the prototype store are read-only throughout. A non-finite
    step loss or head raises InvalidStateError.
    """
    if not state.extractor.frozen:
        raise InvalidStateError("incremental task before task 0 (extractor not frozen)")
    seen = np.intersect1d(data.train_labels, state.store.ids)
    if seen.size:
        raise InvalidStateError(f"class row {seen[0]} already has registered statistics")

    lc = cfg.loss_cfg
    state.clf = clf_mod.expand(state.clf, len(data.class_ids), cfg.seed)
    task_range = state.clf.task_ranges[-1]
    n_old = len(state.store)
    adam = clf_mod.new_adam_state(state.clf.params, lr=cfg.lr)

    feats_all = state.extractor.embed_batch(data.train_features)

    for epoch in range(cfg.epochs_incremental):
        idx = batches(data, cfg.batch_size, cfg.seed, epoch)
        order, sizes = np.concatenate(idx), [len(i) for i in idx]
        feats, y = feats_all[order], data.train_labels[order]
        pseudo_x, pseudo_y = feats[:0], y[:0]          # without replay, no pseudo rows
        if lc.enable_P:
            pseudo_x, pseudo_y = generate_pseudo_batch(
                feats, y, state.store, sizes if lc.enable_batch_proto else None)
        bounds = np.cumsum([0] + sizes)
        for step, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            x, labels = merge(pseudo_x[lo:hi], pseudo_y[lo:hi], feats[lo:hi], y[lo:hi])
            p = len(x) - (hi - lo)                      # the pseudo rows come first
            logits = x @ state.clf.W.T + state.clf.b
            ce, dlogits = replay_ce_loss(logits, labels, p, n_old, lc)
            tce, vpr = 0.0, None
            if lc.enable_T:
                tce, d = tce_loss(logits[p:], labels[p:], task_range)
                dlogits[p:, task_range[0]:task_range[1]] += d
            if lc.enable_V:
                vpr = vpr_loss(state.store, state.clf, lc)
            total = total_loss(ce + tce, dlogits, x, vpr)
            if not math.isfinite(total.value):
                raise InvalidStateError(
                    f"task {data.task_index} diverged: loss {total.value} at epoch {epoch}, step {step}")
            clf_mod.adam_step(state.clf, total, adam)

    _finish_task(state, data, feats_all)


def run_experiment(cfg: TrainConfig, schedule: TaskSchedule, dataset: Dataset,
                   extractor_spec: ext_mod.ExtractorSpec,
                   task_callback=None) -> list[MetricsRecord]:
    """Run the full schedule and return one MetricsRecord per task.

    `task_callback(state)`, when given, is invoked after each task; it is
    how checkpointing and invariant checks hook in. The dataset is validated
    (`Dataset.validate`) and the schedule checked against it before task 0,
    and each task's split is cut when its turn comes.
    """
    dataset.validate()
    if extractor_spec.input_dim != dataset.dim:
        raise InvalidArgumentError(
            f"extractor input_dim {extractor_spec.input_dim} does not match the "
            f"dataset's {dataset.dim}-d features")
    tasks = split_schedule(dataset, schedule)
    state = ExperimentState(
        extractor=ext_mod.init(extractor_spec),
        clf=clf_mod.new_classifier(extractor_spec.feature_dim, schedule.k, cfg.seed),
        store=PrototypeStore())
    for td in tasks:
        (run_task0 if td.task_index == 0 else run_incremental_task)(state, td, cfg)
        if task_callback is not None:
            task_callback(state)
    return state.metrics
