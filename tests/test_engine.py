import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgpfr import classifier as clf_mod
from pgpfr.classifier import new_classifier, predict
from pgpfr.dataio import Dataset, batches, class_order_for, split_schedule, synth_gaussian
from pgpfr.engine import (ExperimentState, TaskSchedule, TrainConfig,
                          run_experiment, run_incremental_task, run_task0)
from pgpfr.errors import InvalidArgumentError, InvalidStateError
from pgpfr.extractor import Extractor, ExtractorSpec, init
from pgpfr.losses import LossConfig, replay_ce_loss, tce_loss, total_loss, vpr_loss
from pgpfr.metrics import accuracy
from pgpfr.numerics import cosine_sim
from pgpfr.prototypes import PrototypeStore, fit_class_statistics
from pgpfr.replay import generate_pseudo_batch, merge


def small_setup(classes=6, k=3, d=1, n_tasks=4, dim=6, seed=0, **loss_kw):
    ds = synth_gaussian(classes, dim, 30, 10, 8.0, seed=1)
    sched = TaskSchedule(classes, k, d, n_tasks, list(range(classes)))
    cfg = TrainConfig(epochs_task0=5, epochs_incremental=5, batch_size=16,
                      seed=seed, loss_cfg=LossConfig(**loss_kw))
    spec = ExtractorSpec("identity", dim, dim)
    return ds, sched, cfg, spec


def fresh_state(sched, spec, cfg):
    return ExperimentState(
        extractor=init(spec),
        clf=new_classifier(spec.feature_dim, sched.k, cfg.seed),
        store=PrototypeStore())


def test_train_config_rejects_negative_seed():
    with pytest.raises(InvalidArgumentError, match="train seed must be >= 0"):
        TrainConfig(seed=-1)


@pytest.mark.parametrize("lr", [0.0, -1.0, float("nan")])
def test_train_config_rejects_non_positive_or_nan_lr(lr):
    with pytest.raises(InvalidArgumentError, match="lr must be positive"):
        TrainConfig(lr=lr)


class TestRunTask0:
    def test_freezes_and_registers(self):
        ds, sched, cfg, spec = small_setup()
        tasks = list(split_schedule(ds, sched))
        state = fresh_state(sched, spec, cfg)
        run_task0(state, tasks[0], cfg)
        assert state.extractor.frozen
        assert len(state.store) == sched.k
        assert len(state.metrics) == 1

    def test_separable_data_high_accuracy(self):
        ds, sched, cfg, spec = small_setup()
        tasks = list(split_schedule(ds, sched))
        state = fresh_state(sched, spec, cfg)
        run_task0(state, tasks[0], cfg)
        assert state.metrics[0].global_acc >= 0.9

    def test_rejects_second_call(self):
        ds, sched, cfg, spec = small_setup()
        tasks = list(split_schedule(ds, sched))
        state = fresh_state(sched, spec, cfg)
        run_task0(state, tasks[0], cfg)
        with pytest.raises(InvalidStateError):
            run_task0(state, tasks[0], cfg)

    def test_rejects_class_count_mismatch(self):
        ds, sched, cfg, spec = small_setup()
        tasks = list(split_schedule(ds, sched))
        state = fresh_state(sched, spec, cfg)
        state.clf = new_classifier(spec.feature_dim, sched.k + 1, cfg.seed)
        with pytest.raises(InvalidStateError):
            run_task0(state, tasks[0], cfg)


class TestRunIncrementalTask:
    def _after_task0(self, **loss_kw):
        ds, sched, cfg, spec = small_setup(**loss_kw)
        tasks = list(split_schedule(ds, sched))
        state = fresh_state(sched, spec, cfg)
        run_task0(state, tasks[0], cfg)
        return state, tasks, cfg

    def test_store_grows_by_d(self):
        state, tasks, cfg = self._after_task0()
        before = len(state.store)
        run_incremental_task(state, tasks[1], cfg)
        assert len(state.store) == before + 1

    def test_extractor_bitwise_stable(self):
        ds, sched, cfg, _ = small_setup()
        spec = ExtractorSpec("mlp1", 6, 6, hidden_dim=8, seed=0)
        tasks = list(split_schedule(ds, sched))
        state = fresh_state(sched, spec, cfg)
        run_task0(state, tasks[0], cfg)
        snap = state.extractor.snapshot()
        run_incremental_task(state, tasks[1], cfg)
        run_incremental_task(state, tasks[2], cfg)
        assert state.extractor.snapshot() == snap

    def test_requires_frozen_extractor(self):
        ds, sched, cfg, spec = small_setup()
        tasks = list(split_schedule(ds, sched))
        state = fresh_state(sched, spec, cfg)
        with pytest.raises(InvalidStateError):
            run_incremental_task(state, tasks[1], cfg)

    def test_divergence_names_task_epoch_and_step(self):
        state, tasks, cfg = self._after_task0()
        with np.errstate(all="ignore"), \
                pytest.raises(InvalidStateError, match=r"task 1 .*epoch 0, step \d"):
            run_incremental_task(state, tasks[1], replace(cfg, lr=1e300))

    def test_non_finite_head_after_last_step_rejected(self):
        # one step per task: its loss is finite, the update it makes is not
        state, tasks, cfg = self._after_task0()
        one_step = replace(cfg, lr=float("inf"), epochs_incremental=1, batch_size=1000)
        with np.errstate(all="ignore"), \
                pytest.raises(InvalidStateError, match=r"task 1 .*non-finite"):
            run_incremental_task(state, tasks[1], one_step)

    def test_rejects_repeated_classes(self):
        state, tasks, cfg = self._after_task0()
        with pytest.raises(InvalidStateError):
            run_incremental_task(state, tasks[0], cfg)

    def test_visible_class_count(self):
        state, tasks, cfg = self._after_task0()
        run_incremental_task(state, tasks[1], cfg)
        run_incremental_task(state, tasks[2], cfg)
        assert state.clf.n_classes == 3 + 2 * 1

    def test_store_untouched_by_training(self):
        state, tasks, cfg = self._after_task0()
        before = state.store
        arrays = {name: getattr(before, name).copy()
                  for name in ("ids", "prototypes", "roots")}
        run_incremental_task(state, tasks[1], cfg)
        for name, a in arrays.items():
            assert np.array_equal(getattr(before, name), a)
        n_old = len(before)
        assert np.array_equal(state.store.ids[:n_old], before.ids)
        assert np.array_equal(state.store.prototypes[:n_old], before.prototypes)


class TestRunExperiment:
    def test_shrec_style_class_growth(self):
        ds = synth_gaussian(14, 4, 6, 2, 8.0, seed=0)
        sched = TaskSchedule(14, 8, 1, 7, list(range(14)))
        cfg = TrainConfig(epochs_task0=2, epochs_incremental=2, batch_size=16, seed=0)
        spec = ExtractorSpec("identity", 4, 4)
        states = []
        run_experiment(cfg, sched, ds, spec, task_callback=states.append)
        assert states[-1].clf.n_classes == 14
        assert len(states[-1].metrics) == 7

    def test_single_task_degenerates(self):
        ds, _, cfg, spec = small_setup()
        sched = TaskSchedule(6, 6, 1, 1, list(range(6)))
        records = run_experiment(cfg, sched, ds, spec)
        assert len(records) == 1
        assert records[0].ifm == 0.0  # L == G on a single task

    def test_deterministic_metrics(self):
        ds, sched, cfg, spec = small_setup()
        from pgpfr.metrics import record_fields
        a = run_experiment(cfg, sched, ds, spec)
        b = run_experiment(cfg, sched, ds, spec)
        assert [record_fields(r) for r in a] == [record_fields(r) for r in b]

    def test_seeded_class_order_respected(self):
        ds, _, cfg, spec = small_setup()
        order = [4, 2, 0, 5, 1, 3]
        sched = TaskSchedule(6, 3, 1, 4, order)
        records = run_experiment(cfg, sched, ds, spec)
        assert len(records) == 4

    def test_missing_classes_rejected(self):
        ds, _, cfg, spec = small_setup()
        sched = TaskSchedule(8, 4, 1, 5, list(range(8)))
        with pytest.raises(InvalidArgumentError):
            run_experiment(cfg, sched, ds, spec)

    @pytest.mark.parametrize("spec", [
        ExtractorSpec("identity", 3, 3),
        ExtractorSpec("mlp1", 3, 4, hidden_dim=8)])
    def test_input_dim_other_than_the_datasets_rejected(self, spec):
        ds, sched, cfg, _ = small_setup()
        with pytest.raises(InvalidArgumentError,
                           match="extractor input_dim 3 does not match the dataset's 6-d features"):
            run_experiment(cfg, sched, ds, spec)


class TestEmbedOnce:
    """The backbone is frozen after task 0, so each task embeds its train and
    test sets exactly once and every consumer reads those features."""

    @staticmethod
    def _setup(kind, **loss_kw):
        ds, _, cfg, _ = small_setup(**loss_kw)
        sched = TaskSchedule(6, 3, 1, 4, class_order_for(ds, 3))
        spec = ExtractorSpec(kind, 6, 6 if kind == "identity" else 4,
                             hidden_dim=8 if kind == "mlp1" else 0)
        return ds, sched, cfg, spec

    @pytest.mark.parametrize("batch_proto", [True, False])
    def test_rows_embedded_equal_train_plus_test_rows(self, monkeypatch, batch_proto):
        ds, sched, cfg, spec = self._setup("mlp1", enable_batch_proto=batch_proto)
        rows = []
        embed = Extractor.embed_batch

        def counting(self, x):
            rows.append(len(x))
            return embed(self, x)

        monkeypatch.setattr(Extractor, "embed_batch", counting)
        run_experiment(cfg, sched, ds, spec)
        tasks = split_schedule(ds, sched)
        assert sum(rows) == sum(len(t.train_labels) + len(t.test_labels) for t in tasks)
        assert len(rows) == 2 * sched.n_tasks

    @pytest.mark.parametrize("kind", ["identity", "mlp1"])
    def test_records_match_a_direct_evaluation(self, kind):
        ds, sched, cfg, spec = self._setup(kind)
        tasks = list(split_schedule(ds, sched))
        checked = []

        def check(state):
            seen = tasks[:len(state.metrics)]
            blocks = [state.extractor.embed_batch(t.test_features) for t in seen]
            labels = [t.test_labels for t in seen]
            assert len(state.test_features) == len(blocks)
            for pooled, block in zip(state.test_features, blocks):
                assert np.array_equal(pooled, block)
            g = accuracy(predict(state.clf, np.vstack(blocks)), np.concatenate(labels))
            local = accuracy(predict(state.clf, blocks[-1]), labels[-1])
            record = state.metrics[-1]
            assert (record.global_acc, record.local_acc) == (g, local)
            checked.append(record.task_index)

        run_experiment(cfg, sched, ds, spec, task_callback=check)
        assert checked == list(range(sched.n_tasks))


def reference_incremental_head(state, data, cfg, task_order_means=False):
    """The head one incremental task trains when every step makes its own
    pseudo rows: one `generate_pseudo_batch` call per batch, or under the
    whole-task ablation a translation by the task's class means, summed in
    epoch order or, with `task_order_means`, in the train set's order."""
    lc = cfg.loss_cfg
    clf = clf_mod.expand(state.clf, len(data.class_ids), cfg.seed)   # leaves state.clf as it is
    lo, hi = clf.task_ranges[-1]
    adam = clf_mod.new_adam_state(clf.params, lr=cfg.lr)
    store, n_old = state.store, len(state.store)
    feats_all = state.extractor.embed_batch(data.train_features)
    y_all = data.train_labels
    for epoch in range(cfg.epochs_incremental):
        idx = batches(data, cfg.batch_size, cfg.seed, epoch)
        order = np.arange(len(y_all)) if task_order_means else np.concatenate(idx)
        task = fit_class_statistics(feats_all[order], y_all[order])
        best = cosine_sim(task.prototypes, store.prototypes).argmax(axis=1)
        for b in idx:
            feats, y = feats_all[b], y_all[b]
            if not lc.enable_P:
                pseudo = (feats[:0], y[:0])
            elif lc.enable_batch_proto:
                pseudo = generate_pseudo_batch(feats, y, store)
            else:
                at = np.searchsorted(task.ids, y)
                pseudo = (feats + (store.prototypes[best] - task.prototypes)[at],
                          store.ids[best][at])
            x, labels = merge(*pseudo, feats, y)
            n_pseudo = len(pseudo[0])
            logits = x @ clf.W.T + clf.b
            value, dlogits = replay_ce_loss(logits, labels, n_pseudo, n_old, lc)
            if lc.enable_T:
                value_t, d = tce_loss(logits[n_pseudo:], y, (lo, hi))
                value += value_t
                dlogits[n_pseudo:, lo:hi] += d
            vpr = vpr_loss(store, clf, lc) if lc.enable_V else None
            clf_mod.adam_step(clf, total_loss(value, dlogits, x, vpr), adam)
    return clf


class TestEpochPseudoRows:
    """Each epoch makes its pseudo rows in one call; the head must be the one
    a per-step reference trains."""

    @staticmethod
    def trained_and_reference(kind, **loss_kw):
        """The head one incremental task trains, its reference, the state before."""
        ds, _, cfg, _ = small_setup(**loss_kw)
        # 3 classes of 30 rows per task: batches of 16 with a short final one
        sched = TaskSchedule(6, 3, 3, 2, class_order_for(ds, 3))
        spec = ExtractorSpec(kind, 6, 6 if kind == "identity" else 4,
                             hidden_dim=8 if kind == "mlp1" else 0)
        tasks = list(split_schedule(ds, sched))
        state = fresh_state(sched, spec, cfg)
        run_task0(state, tasks[0], cfg)
        before = copy.deepcopy(state)
        run_incremental_task(state, tasks[1], cfg)
        ref = reference_incremental_head(before, tasks[1], cfg)
        assert np.array_equal(state.clf.W, ref.W) and np.array_equal(state.clf.b, ref.b)
        return state, before, tasks[1], cfg

    @pytest.mark.parametrize("batch_proto", [True, False])
    @pytest.mark.parametrize("kind", ["identity", "mlp1"])
    def test_head_matches_per_step_reference(self, kind, batch_proto):
        state, before, task, cfg = self.trained_and_reference(
            kind, enable_batch_proto=batch_proto)
        if not batch_proto:
            # means summed in the train set's order differ only by rounding
            old = reference_incremental_head(before, task, cfg, task_order_means=True)
            assert np.abs(state.clf.W - old.W).max() < 1e-10
            assert np.abs(state.clf.b - old.b).max() < 1e-10

    @pytest.mark.parametrize("switch", ["enable_P", "enable_V", "enable_T"])
    @pytest.mark.parametrize("kind", ["identity", "mlp1"])
    def test_head_matches_per_step_reference_with_a_switch_off(self, kind, switch):
        # no pseudo rows, no VPR or no TCE: the step's branches
        self.trained_and_reference(kind, **{switch: False})


class TestDegenerateSchedules:
    @pytest.mark.parametrize("per_class_train, dim, empty_root", [
        (1, 5, True),     # every covariance root is the empty (0, D) factor
        (2, 4, False)])   # 2n == D: roots of n rows
    def test_few_samples_per_class_run_to_a_finite_head(self, per_class_train, dim,
                                                         empty_root):
        ds = synth_gaussian(8, dim, per_class_train, 3, 8.0, seed=2)
        sched = TaskSchedule(8, 4, 2, 3, list(range(8)))
        cfg = TrainConfig(epochs_task0=3, epochs_incremental=3, batch_size=4, seed=0)
        states = []
        records = run_experiment(cfg, sched, ds, ExtractorSpec("identity", dim, dim),
                                 task_callback=states.append)
        assert len(records) == 3
        store, clf = states[-1].store, states[-1].clf
        assert len(store) == 8
        rows = 0 if empty_root else per_class_train
        assert store.r_max == rows and store.roots.shape == (8 * rows, dim)
        assert clf.n_classes == 8
        assert np.isfinite(clf.W).all() and np.isfinite(clf.b).all()

    @given(dim=st.integers(1, 6), classes=st.integers(2, 4),
           per_class_train=st.integers(1, 3), k=st.integers(1, 3), d=st.integers(1, 3),
           n_tasks=st.integers(2, 3), batch_size=st.integers(1, 4),
           epochs=st.integers(1, 2), batch_proto=st.booleans(),
           dataset_ids=st.lists(st.integers(0, 1000), min_size=4, max_size=4, unique=True),
           order_seed=st.none() | st.integers(0, 1000))
    # one train sample per class, batch_size 1 < d, labels 3, 42, 500, 7, shuffled order
    @example(dim=5, classes=4, per_class_train=1, k=1, d=3, n_tasks=2, batch_size=1,
             epochs=2, batch_proto=True, dataset_ids=[3, 42, 500, 7], order_seed=5)
    # 2n == D, whole-task prototypes
    @example(dim=6, classes=3, per_class_train=3, k=1, d=2, n_tasks=2, batch_size=2,
             epochs=1, batch_proto=False, dataset_ids=[9, 1, 4, 0], order_seed=None)
    @settings(max_examples=60, deadline=None)
    def test_tiny_runs_finish_or_raise(self, dim, classes, per_class_train, k, d, n_tasks,
                                       batch_size, epochs, batch_proto, dataset_ids,
                                       order_seed):
        synth = synth_gaussian(classes, dim, per_class_train, 2, 8.0, seed=3)
        ds = Dataset(synth.features, np.asarray(dataset_ids)[synth.labels], synth.split)
        order = class_order_for(ds, order_seed)
        if k + (n_tasks - 1) * d > classes:
            with pytest.raises(InvalidArgumentError):
                TaskSchedule(classes, k, d, n_tasks, order)
            return
        cfg = TrainConfig(epochs_task0=epochs, epochs_incremental=epochs,
                          batch_size=batch_size, seed=0,
                          loss_cfg=LossConfig(enable_batch_proto=batch_proto))
        states = []
        records = run_experiment(cfg, TaskSchedule(classes, k, d, n_tasks, order), ds,
                                 ExtractorSpec("identity", dim, dim),
                                 task_callback=states.append)
        assert len(records) == n_tasks
        clf = states[-1].clf
        assert np.isfinite(clf.W).all() and np.isfinite(clf.b).all()
        for r in records:
            assert 0.0 <= r.global_acc <= 1.0 and 0.0 <= r.local_acc <= 1.0
