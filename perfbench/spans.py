"""Outside-in span recorder for the benchmark's traced runs.

The recorder replaces library functions at the names their callers look up
with wrappers that record one span per call (name, start, end, parent span,
run id), and puts the originals back when the traced run ends. A wrapper
passes arguments and return values through untouched, so tracing cannot
change the arithmetic of a run. Spans stay in memory until `write_csv`.

A hook whose target a later version of the library no longer has is
reported as absent (its metrics are null), never as a zero and never as a
crash.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _embed_rows(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return len(x)


def _vpr_flops(args, kwargs):
    # computed, not measured: VPR forms one (No, D) @ (D, D) product per old
    # class, 2 * No^2 * D^2 flops per call; the O(No^2 * D) terms are omitted
    store = args[0] if args else kwargs["store"]
    clf = args[1] if len(args) > 1 else kwargs["clf"]
    return 2 * len(store) ** 2 * clf.dim ** 2


# (module, attribute path, layer name, span?, work counter, work function)
# The engine binds its loss, replay and prototype functions at import time,
# so those hooks sit on pgpfr.engine; patching the defining module would
# measure nothing. train_task0 imports `batches` lazily from pgpfr.dataio
# and the engine reaches train_task0, adam_step and predict through their
# modules. cosine_sim runs ~10^6 times per backbone run: it is counted, not
# spanned, so the trace neither fills memory nor dominates the timing.
HOOKS = (
    ("pgpfr.engine", "run_task0", "engine.run_task0", True, None, None),
    ("pgpfr.engine", "run_incremental_task", "engine.run_incremental_task", True, None, None),
    ("pgpfr.engine", "generate_pseudo_batch", "replay.generate_pseudo_batch", True, None, None),
    ("pgpfr.engine", "merge", "replay.merge", True, None, None),
    ("pgpfr.engine", "replay_ce_loss", "losses.replay_ce_loss", True, None, None),
    ("pgpfr.engine", "vpr_loss", "losses.vpr_loss", True, "flops", _vpr_flops),
    ("pgpfr.engine", "tce_loss", "losses.tce_loss", True, None, None),
    ("pgpfr.engine", "total_loss", "losses.total_loss", True, None, None),
    ("pgpfr.engine", "fit_class_statistics", "prototypes.fit_class_statistics", True, None, None),
    ("pgpfr.engine", "register", "prototypes.register", True, None, None),
    ("pgpfr.engine", "batches", "dataio.batches", True, None, None),
    ("pgpfr.engine", "split_schedule", "dataio.split_schedule", True, None, None),
    ("pgpfr.extractor", "train_task0", "extractor.train_task0", True, None, None),
    ("pgpfr.extractor", "Extractor.embed_batch", "extractor.embed_batch", True, "rows", _embed_rows),
    ("pgpfr.classifier", "adam_step", "classifier.adam_step", True, None, None),
    ("pgpfr.classifier", "predict", "classifier.predict", True, None, None),
    ("pgpfr.replay", "cosine_sim", "replay.cosine_sim", False, None, None),
    ("pgpfr.dataio", "batches", "dataio.batches", True, None, None),
    ("pgpfr.dataio", "load_dataset", "dataio.load_dataset", True, None, None),
    ("pgpfr.dataio", "synth_gaussian", "dataio.synth_gaussian", True, None, None),
    ("pgpfr.dataio", "split_schedule", "dataio.split_schedule", True, None, None),
)

# Per-layer metrics the traced run reports, with their units.
LAYER_METRICS = (
    ("engine.run_task0.s", "s"),
    ("engine.run_incremental_task.calls", "count"),
    ("engine.run_incremental_task.s", "s"),
    ("engine.run_incremental_task.self_s", "s"),
    ("extractor.train_task0.calls", "count"),
    ("extractor.train_task0.s", "s"),
    ("extractor.train_task0.self_s", "s"),
    ("extractor.embed_batch.calls", "count"),
    ("extractor.embed_batch.rows", "count"),
    ("extractor.embed_batch.s", "s"),
    ("prototypes.fit_class_statistics.calls", "count"),
    ("prototypes.fit_class_statistics.s", "s"),
    ("prototypes.register.calls", "count"),
    ("prototypes.register.s", "s"),
    ("replay.generate_pseudo_batch.calls", "count"),
    ("replay.generate_pseudo_batch.s", "s"),
    ("replay.cosine_sim.calls", "count"),
    ("replay.merge.calls", "count"),
    ("replay.merge.s", "s"),
    ("losses.replay_ce_loss.calls", "count"),
    ("losses.replay_ce_loss.s", "s"),
    ("losses.vpr_loss.calls", "count"),
    ("losses.vpr_loss.s", "s"),
    ("losses.vpr_loss.flops", "flop"),
    ("losses.tce_loss.calls", "count"),
    ("losses.tce_loss.s", "s"),
    ("losses.total_loss.calls", "count"),
    ("losses.total_loss.s", "s"),
    ("classifier.adam_step.calls", "count"),
    ("classifier.adam_step.s", "s"),
    ("classifier.predict.calls", "count"),
    ("classifier.predict.s", "s"),
    ("dataio.batches.calls", "count"),
    ("dataio.batches.s", "s"),
    ("dataio.load_dataset.calls", "count"),
    ("dataio.load_dataset.s", "s"),
    ("dataio.synth_gaussian.calls", "count"),
    ("dataio.synth_gaussian.s", "s"),
    ("dataio.split_schedule.calls", "count"),
    ("dataio.split_schedule.s", "s"),
)


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)  # raises AttributeError when the target is gone
    return owner, attr


class SpanRecorder:
    """In-memory spans and counters of one or more traced runs."""

    def __init__(self):
        self.spans: list[list] = []   # [run_id, name, start, end, parent index]
        self.counts: Counter = Counter()   # (run_id, metric name) -> amount
        self.absent: set[str] = set()      # metric names whose hook is missing
        self._run_id = None
        self._stack: list[int] = []

    def _span_wrapper(self, name, fn, counter, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                try:
                    self.counts[self._run_id, f"{name}.{counter}"] += work(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.absent.add(f"{name}.{counter}")
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [self._run_id, name, perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
        return wrapper

    def _count_wrapper(self, name, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self._run_id, key] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def record(self, run_id: str):
        """Install every hook for the duration of one traced run."""
        self._run_id = run_id
        saved = []
        missing, installed = set(), set()
        try:
            for module_name, path, name, spanned, counter, work in HOOKS:
                try:
                    owner, attr = _resolve(module_name, path)
                except (ImportError, AttributeError):
                    missing.add(name)
                    continue
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                installed.add(name)
                setattr(owner, attr, self._span_wrapper(name, fn, counter, work)
                        if spanned else self._count_wrapper(name, fn))
            # a layer hooked at two bindings is absent only when both are gone
            for name in missing - installed:
                self.absent.update(m for m, _ in LAYER_METRICS
                                   if m.startswith(name + "."))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
            self._run_id = None
            self._stack.clear()

    def layer_metrics(self, run_id: str) -> dict[str, float | None]:
        """Calls, total and self seconds per layer, plus counters, of one run.

        Self time is a span's duration minus the durations of its direct
        children. Layers present but never called read 0; absent ones None.
        """
        index = [i for i, s in enumerate(self.spans) if s[0] == run_id]
        child_s: defaultdict[int, float] = defaultdict(float)
        for i in index:
            _, _, start, end, parent = self.spans[i]
            if parent >= 0:
                child_s[parent] += end - start
        calls: Counter = Counter()
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        for i in index:
            _, name, start, end, _ = self.spans[i]
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_s[i]
        out: dict[str, float | None] = {}
        for metric, _ in LAYER_METRICS:
            layer, field = metric.rsplit(".", 1)
            if metric in self.absent:
                out[metric] = None
            elif (run_id, metric) in self.counts or field not in ("calls", "s", "self_s"):
                out[metric] = self.counts[run_id, metric]
            elif field == "calls":
                out[metric] = calls[layer]
            elif field == "s":
                out[metric] = total[layer]
            else:
                out[metric] = own[layer]
        out["trace.spans"] = len(index)
        return out

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("run_id,span,parent,name,start_s,end_s\n")
            for i, (run_id, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{run_id},{i},{parent},{name},{start!r},{end!r}\n")
