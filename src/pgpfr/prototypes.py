"""Per-class feature statistics: prototypes (class means) and covariances.

Statistics are computed once per task over frozen-backbone features and
accumulate in a PrototypeStore that only ever grows.

A class's unbiased covariance C is held as an exact root F with C = F'F:
the R factor of the QR decomposition of (rows - mean) / sqrt(n - 1), shape
(min(n, D), D), or (0, D) when n < 2. It takes r*D floats, r = min(n, D),
and VPR's penalty costs 4*No*r*D flops per class, No being the number of
old classes. `ClassStatistics.covariance` is the dense (D, D) view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, InvalidStateError
from .numerics import mean_rows


@dataclass(eq=False)
class ClassStatistics:
    """Prototype, covariance root and sample count of one class."""

    prototype: np.ndarray   # (D,) class mean
    factor: np.ndarray      # (r, D) with C = F'F, r = min(count, D); (0, D) when count < 2
    count: int

    @property
    def covariance(self) -> np.ndarray:
        """(D, D) unbiased sample covariance, zero when count < 2."""
        c = self.factor.T @ self.factor
        return (c + c.T) / 2.0


@dataclass
class PrototypeStore:
    stats: dict[int, ClassStatistics] = field(default_factory=dict)

    @property
    def class_ids(self) -> list[int]:
        return list(self.stats.keys())  # dicts preserve insertion order

    def __len__(self) -> int:
        return len(self.stats)

    def __contains__(self, class_id: int) -> bool:
        return class_id in self.stats

    def get(self, class_id: int) -> ClassStatistics:
        return self.stats[class_id]

    def prototype_matrix(self) -> np.ndarray:
        """Prototypes stacked in insertion order, shape (n_old, D)."""
        return np.stack([s.prototype for s in self.stats.values()])


def fit_class_statistics(features, labels) -> dict[int, ClassStatistics]:
    """Prototype, covariance root (see the module docstring) and count per
    distinct label."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] == 0:
        raise InvalidArgumentError("fit_class_statistics requires a non-empty feature matrix")
    if labels.shape[0] != features.shape[0]:
        raise InvalidArgumentError("labels must align with feature rows")
    dim = features.shape[1]
    out: dict[int, ClassStatistics] = {}
    for cid in np.unique(labels):
        rows = features[labels == cid]
        n = rows.shape[0]
        mu = mean_rows(rows)
        factor = (np.linalg.qr((rows - mu) / math.sqrt(n - 1), mode="r") if n >= 2
                  else np.zeros((0, dim)))
        out[int(cid)] = ClassStatistics(mu, factor, n)
    return out


def batch_class_prototypes(features, labels) -> dict[int, np.ndarray]:
    """Mean feature per distinct label present in one mini-batch."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] == 0:
        raise InvalidArgumentError("batch_class_prototypes requires a non-empty batch")
    if labels.shape[0] != features.shape[0]:
        raise InvalidArgumentError("labels must align with feature rows")
    return {int(cid): mean_rows(features[labels == cid]) for cid in np.unique(labels)}


def register(store: PrototypeStore, new_stats: dict[int, ClassStatistics]) -> PrototypeStore:
    """Add statistics for previously unseen classes. Duplicates are an error."""
    for cid in new_stats:
        if cid in store.stats:
            raise InvalidStateError(f"class {cid} already registered")
    merged = dict(store.stats)
    for cid, st in new_stats.items():
        merged[int(cid)] = st
    return PrototypeStore(merged)
