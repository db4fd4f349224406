from dataclasses import replace

import numpy as np
import pytest

from pgpfr.classifier import new_classifier
from pgpfr.dataio import split_schedule, synth_gaussian
from pgpfr.engine import (ExperimentState, TaskSchedule, TrainConfig,
                          run_experiment, run_incremental_task, run_task0)
from pgpfr.errors import InvalidArgumentError, InvalidStateError
from pgpfr.extractor import ExtractorSpec, init
from pgpfr.losses import LossConfig
from pgpfr.prototypes import PrototypeStore


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
        store=PrototypeStore(),
        label_map={c: i for i, c in enumerate(sched.class_order)})


class TestRunTask0:
    def test_freezes_and_registers(self):
        ds, sched, cfg, spec = small_setup()
        tasks = split_schedule(ds, sched)
        state = fresh_state(sched, spec, cfg)
        run_task0(state, tasks[0], cfg)
        assert state.extractor.frozen
        assert len(state.store) == sched.k
        assert len(state.metrics) == 1

    def test_separable_data_high_accuracy(self):
        ds, sched, cfg, spec = small_setup()
        tasks = split_schedule(ds, sched)
        state = fresh_state(sched, spec, cfg)
        run_task0(state, tasks[0], cfg)
        assert state.metrics[0].global_acc >= 0.9

    def test_rejects_second_call(self):
        ds, sched, cfg, spec = small_setup()
        tasks = split_schedule(ds, sched)
        state = fresh_state(sched, spec, cfg)
        run_task0(state, tasks[0], cfg)
        with pytest.raises(InvalidStateError):
            run_task0(state, tasks[0], cfg)

    def test_rejects_class_count_mismatch(self):
        ds, sched, cfg, spec = small_setup()
        tasks = split_schedule(ds, sched)
        state = fresh_state(sched, spec, cfg)
        state.clf = new_classifier(spec.feature_dim, sched.k + 1, cfg.seed)
        with pytest.raises(InvalidStateError):
            run_task0(state, tasks[0], cfg)


class TestRunIncrementalTask:
    def _after_task0(self, **loss_kw):
        ds, sched, cfg, spec = small_setup(**loss_kw)
        tasks = split_schedule(ds, sched)
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
        tasks = split_schedule(ds, sched)
        state = fresh_state(sched, spec, cfg)
        run_task0(state, tasks[0], cfg)
        snap = state.extractor.snapshot()
        run_incremental_task(state, tasks[1], cfg)
        run_incremental_task(state, tasks[2], cfg)
        assert state.extractor.snapshot() == snap

    def test_requires_frozen_extractor(self):
        ds, sched, cfg, spec = small_setup()
        tasks = split_schedule(ds, sched)
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
        protos_before = {c: state.store.get(c).prototype.copy()
                         for c in state.store.class_ids}
        run_incremental_task(state, tasks[1], cfg)
        for c, p in protos_before.items():
            assert np.array_equal(state.store.get(c).prototype, p)


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
