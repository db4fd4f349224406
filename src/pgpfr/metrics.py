"""Accuracy and forgetting metrics, plus cross-task summaries.

G (global accuracy) is top-1 accuracy over all visible classes, L (local)
over the current task's classes, and IFM = |L - G| / (L + G) * 100 measures
the balance between retention and new-class learning. old/new accuracies
split G into task-0 classes vs everything after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass
class MetricsRecord:
    task_index: int
    global_acc: float
    local_acc: float
    ifm: float
    old_acc: float
    new_acc: float   # NaN for task 0 (no post-initial classes exist yet)


def accuracy(predictions, truths) -> float:
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    if predictions.shape != truths.shape or predictions.size == 0:
        raise InvalidArgumentError("accuracy needs equal-length, non-empty arrays")
    return float((predictions == truths).mean())


def ifm(local: float, global_: float) -> float:
    """|L - G| / (L + G) * 100; 0 by convention when both are 0."""
    if not (0.0 <= local <= 1.0) or not (0.0 <= global_ <= 1.0):
        raise InvalidArgumentError(f"accuracies must lie in [0, 1], got {local}, {global_}")
    denom = local + global_
    if denom == 0.0:
        return 0.0
    return abs(local - global_) / denom * 100.0


def summarize(records: list[MetricsRecord]) -> dict:
    """Mean G over all tasks; mean IFM over incremental tasks only (the
    initial task has no forgetting measure). mean_ifm is None when the run
    has no incremental tasks."""
    if not records:
        raise InvalidArgumentError("summarize needs at least one record")
    mean_g = sum(r.global_acc for r in records) / len(records)
    incremental = [r for r in records if r.task_index > 0]
    mean_ifm = sum(r.ifm for r in incremental) / len(incremental) if incremental else None
    return {"mean_global_acc": mean_g, "mean_ifm": mean_ifm}


def record_fields(r: MetricsRecord) -> dict:
    """JSON-friendly view of one record (NaN rendered as None)."""
    return {
        "task_index": r.task_index,
        "global_acc": r.global_acc,
        "local_acc": r.local_acc,
        "ifm": r.ifm,
        "old_acc": r.old_acc,
        "new_acc": None if math.isnan(r.new_acc) else r.new_acc,
    }
