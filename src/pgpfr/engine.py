"""Experiment orchestration for class-incremental training.

Task 0 trains the backbone and head jointly with plain cross-entropy, then
freezes the backbone for good. Every later task expands the head, trains it
per batch on merged pseudo+real features with the configured losses, and
registers the new classes' statistics at the end.

Dataset class ids are remapped to head row indices via the schedule's class
order; all metrics are computed in that row space.
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
        if self.batch_size < 1 or self.lr <= 0:
            raise InvalidArgumentError("batch_size and lr must be positive")


@dataclass
class ExperimentState:
    extractor: ext_mod.Extractor
    clf: clf_mod.IncrementalClassifier
    store: PrototypeStore
    metrics: list[MetricsRecord] = field(default_factory=list)
    label_map: dict[int, int] = field(default_factory=dict)
    # accumulated test pool (raw inputs + row labels) for global evaluation
    test_features: list[np.ndarray] = field(default_factory=list)
    test_labels: list[np.ndarray] = field(default_factory=list)
    task0_classes: int = 0


def _rows(state: ExperimentState, labels) -> np.ndarray:
    return np.array([state.label_map[int(c)] for c in labels], dtype=np.int64)


def _evaluate(state: ExperimentState, current: TaskDataset) -> MetricsRecord:
    x_all = np.vstack(state.test_features)
    y_all = np.concatenate(state.test_labels)
    preds = clf_mod.predict(state.clf, state.extractor.embed_batch(x_all))
    g = accuracy(preds, y_all)

    cur_rows = _rows(state, current.test_labels)
    cur_preds = clf_mod.predict(
        state.clf, state.extractor.embed_batch(current.test_features))
    local = accuracy(cur_preds, cur_rows)

    old_sel = y_all < state.task0_classes
    old_acc = accuracy(preds[old_sel], y_all[old_sel])
    new_sel = ~old_sel
    new_acc = accuracy(preds[new_sel], y_all[new_sel]) if new_sel.any() else float("nan")
    return MetricsRecord(
        task_index=len(state.metrics), global_acc=g, local_acc=local,
        ifm=ifm(local, g), old_acc=old_acc, new_acc=new_acc)


def _register_task_statistics(state: ExperimentState, data: TaskDataset) -> None:
    feats = state.extractor.embed_batch(np.asarray(data.train_features, dtype=np.float64))
    stats = fit_class_statistics(feats, _rows(state, data.train_labels))
    state.store = register(state.store, stats)


def _check_head_finite(clf: clf_mod.IncrementalClassifier, task: int) -> None:
    if not (np.isfinite(clf.W).all() and np.isfinite(clf.b).all()):
        raise InvalidStateError(f"task {task} diverged: the head's W or b is non-finite")


def run_task0(state: ExperimentState, data: TaskDataset, cfg: TrainConfig) -> ExperimentState:
    """Joint backbone+head training, then freeze, fit statistics, evaluate."""
    if state.extractor.frozen:
        raise InvalidStateError("task 0 already completed (extractor is frozen)")
    if state.clf.n_classes != len(data.class_ids):
        raise InvalidStateError(
            f"classifier has {state.clf.n_classes} classes, task 0 brings "
            f"{len(data.class_ids)}")
    remapped = TaskDataset(
        task_index=0, class_ids=data.class_ids,
        train_features=data.train_features,
        train_labels=_rows(state, data.train_labels),
        test_features=data.test_features,
        test_labels=data.test_labels)
    ext_mod.train_task0(state.extractor, remapped, state.clf, cfg)
    _check_head_finite(state.clf, data.task_index)
    state.extractor.freeze()
    state.task0_classes = len(data.class_ids)
    _register_task_statistics(state, data)
    state.test_features.append(np.asarray(data.test_features, dtype=np.float64))
    state.test_labels.append(_rows(state, data.test_labels))
    state.metrics.append(_evaluate(state, data))
    return state


def run_incremental_task(state: ExperimentState, data: TaskDataset,
                         cfg: TrainConfig) -> ExperimentState:
    """Expand the head and retrain it on one incremental task.

    Per batch: embed, optionally generate and merge a pseudo batch, then
    take one Adam step on the sum of the enabled losses. The backbone and
    the prototype store are read-only throughout. A non-finite step loss or
    head raises InvalidStateError.
    """
    if not state.extractor.frozen:
        raise InvalidStateError("incremental task before task 0 (extractor not frozen)")
    new_rows = _rows(state, list(data.class_ids))
    for r in new_rows:
        if int(r) in state.store:
            raise InvalidStateError(f"class row {r} already has registered statistics")

    lc = cfg.loss_cfg
    state.clf = clf_mod.expand(state.clf, len(data.class_ids), cfg.seed)
    task_range = state.clf.task_ranges[-1]
    n_old = len(state.store)
    adam = clf_mod.new_adam_state(state.clf.params, lr=cfg.lr)

    x_all = np.asarray(data.train_features, dtype=np.float64)
    y_all = _rows(state, data.train_labels)

    group_protos = None
    if lc.enable_P and not lc.enable_batch_proto:
        # ablation: translate by whole-task class prototypes instead of batch means
        feats_all = state.extractor.embed_batch(x_all)
        group_protos = {cid: feats_all[y_all == cid].mean(axis=0)
                        for cid in np.unique(y_all)}

    for epoch in range(cfg.epochs_incremental):
        for step, idx in enumerate(batches(data, cfg.batch_size, cfg.seed, epoch)):
            feats = state.extractor.embed_batch(x_all[idx])
            y = y_all[idx]
            if lc.enable_P:
                pseudo = generate_pseudo_batch(feats, y, state.store,
                                               group_prototypes=group_protos)
                merged = merge(pseudo, feats, y)
            else:
                merged = merge(None, feats, y)
            components = [replay_ce_loss(merged, state.clf, n_old, lc)]
            if lc.enable_V:
                components.append(vpr_loss(state.store, state.clf, lc))
            if lc.enable_T:
                components.append(tce_loss(feats, y, state.clf, task_range))
            total = total_loss(components)
            if not math.isfinite(total.value):
                raise InvalidStateError(
                    f"task {data.task_index} diverged: loss {total.value} at epoch {epoch}, step {step}")
            clf_mod.adam_step(state.clf, total, adam)
    _check_head_finite(state.clf, data.task_index)

    _register_task_statistics(state, data)
    state.test_features.append(np.asarray(data.test_features, dtype=np.float64))
    state.test_labels.append(_rows(state, data.test_labels))
    state.metrics.append(_evaluate(state, data))
    return state


def run_experiment(cfg: TrainConfig, schedule: TaskSchedule, dataset: Dataset,
                   extractor_spec: ext_mod.ExtractorSpec,
                   task_callback=None) -> list[MetricsRecord]:
    """Run the full schedule and return one MetricsRecord per task.

    `task_callback(state)`, when given, is invoked after each task; it is
    how checkpointing and invariant checks hook in.
    """
    tasks = split_schedule(dataset, schedule)
    label_map = {int(cid): i for i, cid in enumerate(schedule.class_order)}
    state = ExperimentState(
        extractor=ext_mod.init(extractor_spec),
        clf=clf_mod.new_classifier(extractor_spec.feature_dim, schedule.k, cfg.seed),
        store=PrototypeStore(),
        label_map=label_map)
    run_task0(state, tasks[0], cfg)
    if task_callback is not None:
        task_callback(state)
    for td in tasks[1:]:
        run_incremental_task(state, td, cfg)
        if task_callback is not None:
            task_callback(state)
    return state.metrics
