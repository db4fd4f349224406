"""Workloads, set-up, one checked experiment, and the measurement loops.

Every workload is a closed loop: one process runs one experiment at a time
through the public library API and checks its written outputs before the
next starts. The program sees only the generated inputs; the workload seed
picks the synthetic data (and, on `scale` and `backbone`, the class order).
"""

from __future__ import annotations

import csv
import io
import json
import math
import resource
import statistics
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from pgpfr import cli, dataio, engine
from pgpfr.extractor import ExtractorSpec

import spans

BATCH_SIZE = 32
LR = 0.001
TRAIN_SEED = 0
SETUP_REPEATS = 3     # timed set-ups before each untraced experiment
MIN_UNTRACED = 3      # untraced experiments per run, whatever --seconds says
MIN_TRACED = 2        # traced experiments per run, so counts can be compared
SUMMARY_HEADER = "task,global_acc,local_acc,ifm,old_acc,new_acc"


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    dim: int
    per_class_train: int
    per_class_test: int
    k: int
    d: int
    n_tasks: int
    epochs_task0: int
    epochs_incremental: int
    extractor: str = "identity"
    feature_dim: int = 0          # 0: same as dim
    hidden_dim: int = 0
    separation: float = 10.0
    from_file: bool = False       # write a .pgfr once, then set-up reads it
    shuffle_classes: bool = False
    floors: tuple[float, float] | None = None   # (final old acc, mean G)

    @property
    def incremental_steps(self) -> int:
        """Optimizer steps of all incremental tasks: sum of epochs * ceil(n / B)."""
        per_task = math.ceil(self.d * self.per_class_train / BATCH_SIZE)
        return (self.n_tasks - 1) * self.epochs_incremental * per_task


WORKLOADS = {w.name: w for w in (
    Workload(
        "desk", classes=10, dim=16, per_class_train=200, per_class_test=50,
        k=4, d=1, n_tasks=7, epochs_task0=10, epochs_incremental=100,
        floors=(0.8, 0.85)),
    Workload(
        "scale", classes=100, dim=512, per_class_train=20, per_class_test=20,
        k=50, d=10, n_tasks=6, epochs_task0=1, epochs_incremental=1,
        shuffle_classes=True),
    Workload(
        "backbone", classes=60, dim=256, per_class_train=200, per_class_test=50,
        k=20, d=20, n_tasks=3, epochs_task0=4, epochs_incremental=2,
        extractor="mlp1", feature_dim=64, hidden_dim=512,
        from_file=True, shuffle_classes=True),
)}

# Same code paths at a size that runs in well under a second.
TINY = {
    "desk": dict(per_class_train=20, per_class_test=5, epochs_task0=2,
                 epochs_incremental=3, floors=None),
    "scale": dict(classes=12, dim=32, per_class_train=8, per_class_test=4,
                  k=6, d=2, n_tasks=4),
    "backbone": dict(classes=9, dim=16, per_class_train=20, per_class_test=5,
                     k=3, d=3, n_tasks=3, epochs_task0=1, epochs_incremental=1,
                     feature_dim=8, hidden_dim=16),
}

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("inc_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("mean_global_acc", "fraction"),
)

PER_LAYER = spans.LAYER_METRICS + (
    ("prototypes.store_bytes", "B"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("quality.final_old_acc", "fraction"),
    ("quality.mean_ifm", "%"),
)

# Per-layer counts that must repeat exactly across traced runs.
EXACT = tuple(m for m, unit in PER_LAYER if unit in ("count", "flop", "B"))


def get_workload(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **TINY[name]) if tiny else w


class OutputError(Exception):
    """The program's written outputs failed a correctness check."""


@dataclass
class Sample:
    run_s: float
    inc_s: float                 # task-0 stamp to last stamp: the incremental phase
    summary: bytes
    quality: dict
    store_bytes: int
    peak_rss_mb: float           # ru_maxrss of the process so far
    layers: dict | None = None   # per-layer metrics of a traced run


def prepare(w: Workload, seed: int, workdir: Path) -> Path | None:
    """Untimed preparation: the `.pgfr` file a from_file workload reads."""
    if not w.from_file:
        return None
    path = workdir / f"{w.name}.pgfr"
    dataio.save_dataset(_synth(w, seed), path)
    return path


def _synth(w: Workload, seed: int):
    return dataio.synth_gaussian(w.classes, w.dim, w.per_class_train,
                                 w.per_class_test, w.separation, seed)


def setup(w: Workload, seed: int, path: Path | None):
    """Timed set-up: dataset generation or load, class order, task split."""
    ds = dataio.load_dataset(path) if path is not None else _synth(w, seed)
    order = dataio.class_order_for(ds, seed if w.shuffle_classes else None)
    schedule = engine.TaskSchedule(len(order), w.k, w.d, w.n_tasks, order)
    dataio.split_schedule(ds, schedule)
    return ds, schedule


def _array_bytes(obj, seen: set) -> int:
    """Bytes of every numpy array reachable from obj, each array once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v, seen) for v in obj)
    if hasattr(obj, "__dict__"):
        return _array_bytes(vars(obj), seen)
    return 0


def _check_outputs(w: Workload, records, out_dir: Path):
    """Write the records with cli.write_outputs, parse them back, check them."""
    cli.write_outputs(records, out_dir)
    rows = [json.loads(line) for line in
            (out_dir / "metrics.jsonl").read_text().splitlines()]
    if len(rows) != w.n_tasks:
        raise OutputError(f"{len(rows)} metrics records for {w.n_tasks} tasks")
    for r in rows:
        t = r["task_index"]
        for key in ("global_acc", "local_acc", "ifm", "old_acc", "new_acc"):
            v = r[key]
            if v is None and key == "new_acc" and t == 0:
                continue
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise OutputError(f"task {t}: {key} = {v!r} is not finite")
        for key in ("global_acc", "local_acc"):
            if not 0.0 <= r[key] <= 1.0:
                raise OutputError(f"task {t}: {key} = {r[key]!r} outside [0, 1]")

    summary = (out_dir / "summary.csv").read_bytes()
    table = list(csv.reader(io.StringIO(summary.decode())))
    if ",".join(table[0]) != SUMMARY_HEADER or len(table) != w.n_tasks + 2 \
            or table[-1][0] != "mean":
        raise OutputError("summary.csv does not have one row per task plus a mean row")
    mean_g = float(table[-1][1])
    expected = sum(r["global_acc"] for r in rows) / len(rows)
    if mean_g != expected:
        raise OutputError(f"summary mean G {mean_g!r} != records' mean {expected!r}")
    quality = {"mean_global_acc": mean_g,
               "mean_ifm": float(table[-1][3]),
               "final_old_acc": rows[-1]["old_acc"]}
    if w.floors is not None:
        old_floor, g_floor = w.floors
        if quality["final_old_acc"] < old_floor or mean_g < g_floor:
            raise OutputError(
                f"acceptance floors missed: final old acc "
                f"{quality['final_old_acc']:.4f} (>= {old_floor}), mean G "
                f"{mean_g:.4f} (>= {g_floor})")
    return summary, quality


def experiment(w: Workload, ds, schedule, out_dir: Path) -> Sample:
    """One timed run_experiment, then its output checks (untimed)."""
    cfg = engine.TrainConfig(epochs_task0=w.epochs_task0,
                             epochs_incremental=w.epochs_incremental,
                             batch_size=BATCH_SIZE, lr=LR, seed=TRAIN_SEED)
    spec = ExtractorSpec(w.extractor, w.dim, w.feature_dim or w.dim, w.hidden_dim)
    stamps, last = [], []

    def at_task_end(state):
        stamps.append(perf_counter())
        last[:] = [state]

    t0 = perf_counter()
    records = engine.run_experiment(cfg, schedule, ds, spec, task_callback=at_task_end)
    t1 = perf_counter()
    if len(stamps) != w.n_tasks:
        raise OutputError(f"task callback ran {len(stamps)} times for {w.n_tasks} tasks")
    summary, quality = _check_outputs(w, records, out_dir)
    return Sample(
        run_s=t1 - t0,
        inc_s=stamps[-1] - stamps[0],
        summary=summary, quality=quality,
        store_bytes=_array_bytes(last[0].store, set()),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    reference: bytes | None = None   # summary.csv of the first good run

    def attempt(self, fn) -> Sample | None:
        """Run one experiment; any exception or failed check is a failed op."""
        self.attempted += 1
        try:
            sample = fn()
            if self.reference is None:
                self.reference = sample.summary
            elif sample.summary != self.reference:
                raise OutputError("summary.csv differs from the first run's")
            return sample
        except Exception:  # noqa: BLE001 - every failure is counted and reported
            self.failed += 1
            traceback.print_exc()
            return None


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path, spans_path: Path):
    """Run one workload for about `seconds`.

    Returns the result object (correct, attempted, failed, metrics) and a
    dict of extras for the human-readable report.
    """
    path = prepare(w, seed, workdir)
    setup_s: list[float] = []
    out = Outcome()
    untraced: list[Sample] = []
    traced: list[Sample] = []
    recorder = spans.SpanRecorder()

    def untraced_run():
        # set-up is timed in every round, so it samples the same machine
        # states as the experiments do
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            ds, schedule = setup(w, seed, path)
            setup_s.append(perf_counter() - t0)
        return experiment(w, ds, schedule, workdir / f"run{out.attempted}")

    def traced_run():
        run_id = f"traced{len(traced)}"
        with recorder.record(run_id):
            ds, schedule = setup(w, seed, path)
            sample = experiment(w, ds, schedule, workdir / f"run{out.attempted}")
        sample.layers = recorder.layer_metrics(run_id)
        return sample

    # Untraced mode repeats untraced runs; traced mode alternates an untraced
    # and a traced run, so both see the same machine state. A run stops once
    # the next round would overrun `seconds`, or at the first failure: the
    # program is deterministic, so a failed run would fail again.
    rounds = [(untraced, untraced_run)] if not trace else \
        [(untraced, untraced_run), (traced, traced_run)]
    minimum = MIN_TRACED if trace else MIN_UNTRACED
    start = perf_counter()
    n_rounds = 0
    while not out.failed:
        elapsed = perf_counter() - start
        if n_rounds >= minimum and elapsed * (n_rounds + 1) / n_rounds > seconds:
            break
        for samples, fn in rounds:
            sample = out.attempt(fn)
            if sample is not None:
                samples.append(sample)
        n_rounds += 1
    if trace:
        recorder.write_csv(spans_path)

    correct = out.failed == 0
    values: dict = {}
    extras = {"absent": sorted(recorder.absent),
              "samples": {"run_s": [s.run_s for s in untraced],
                          "inc_steps_per_s": [w.incremental_steps / s.inc_s
                                              for s in untraced],
                          "setup_s": setup_s}}
    if correct and not trace:
        # Run-level means for the experiment timings, not medians: a shared
        # host can alternate fast and slow phases of 10-30 s, about 2x
        # apart. A run's median snaps to whichever phase held most of its
        # experiments; its mean weighs the phases by time, and measured
        # 20-35% steadier from run to run on a 2-vCPU shared VM.
        # inc_steps_per_s is the run's throughput: all incremental steps
        # over all incremental-phase time.
        values = {
            "run_s": statistics.fmean([s.run_s for s in untraced]),
            "setup_s": statistics.median(setup_s),
            "inc_steps_per_s": w.incremental_steps * len(untraced)
            / sum(s.inc_s for s in untraced),
            # through the first experiment: later repeats add only allocator
            # fragmentation, which grows with how many repeats fit in a run
            "peak_rss_mb": untraced[0].peak_rss_mb,
            "mean_global_acc": untraced[0].quality["mean_global_acc"],
        }
    elif correct:
        layers = [dict(s.layers, **{"prototypes.store_bytes": s.store_bytes})
                  for s in traced]
        for m in EXACT:
            seen = [lm.get(m) for lm in layers]
            if len(set(seen)) != 1:
                print(f"perfbench: count {m} differs across traced runs: {seen}")
                out.failed += 1
                correct = False
        for m, _ in PER_LAYER:
            vals = [lm.get(m) for lm in layers]
            values[m] = None if None in vals else (
                vals[0] if m in EXACT else statistics.median(vals))
        traced_run_s = statistics.fmean([s.run_s for s in traced])
        values["trace.overhead_s"] = traced_run_s - statistics.fmean([s.run_s for s in untraced])
        values["quality.final_old_acc"] = traced[0].quality["final_old_acc"]
        values["quality.mean_ifm"] = traced[0].quality["mean_ifm"]
        extras["traced_run_s"] = traced_run_s
    names = PER_LAYER if trace else END_TO_END
    metrics = {m: {"value": values[m], "unit": u} for m, u in names} if values else {}
    return ({"correct": correct, "attempted": out.attempted,
             "failed": out.failed, "metrics": metrics}, extras)
