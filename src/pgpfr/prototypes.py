"""Per-class feature statistics: prototypes (class means) and covariances.

Statistics are computed once per task over frozen-backbone features and
accumulate in a PrototypeStore that only ever grows: `register` builds a new
store from the old one plus the task's classes.

A class's unbiased covariance C is held as an exact root F with C = F'F:
the R factor of the QR decomposition of (rows - mean) / sqrt(n - 1), shape
(r, D) with r = min(n, D), or (0, D) when n < 2. `ClassStatistics.covariance`
is the dense (D, D) view.

A store packs its No classes once, when it is built, in ascending class id:
the ids (No,), the prototype matrix (No, D), and one zero-padded root block
of shape (No * r_max, D), r_max the largest r. Class k's slot is rows
k * r_max to (k + 1) * r_max: its r_k root rows first, zero rows after.
Every ClassStatistics in the store is a view into these arrays, so each root
is held once. Zero rows add exactly 0 to VPR's penalty, so the padding
changes no value; it costs flops only when the r_k differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, InvalidStateError


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


@dataclass(eq=False)
class PrototypeStore:
    """Class statistics by class id, packed for the per-step losses (see the
    module docstring). The packed arrays are read-only; a store never
    changes after it is built."""

    stats: dict[int, ClassStatistics] = field(default_factory=dict)
    ids: np.ndarray = field(init=False, repr=False)         # (No,) ascending class ids
    prototypes: np.ndarray = field(init=False, repr=False)  # (No, D)
    roots: np.ndarray = field(init=False, repr=False)       # (No * r_max, D)
    r_max: int = field(init=False)

    def __post_init__(self):
        ids = sorted(self.stats)
        stats = [self.stats[cid] for cid in ids]
        dim = len(stats[0].prototype) if stats else 0
        for cid, st in zip(ids, stats):
            if st.prototype.shape != (dim,) or st.factor.shape[1:] != (dim,):
                raise InvalidArgumentError(
                    f"class {cid} has prototype {st.prototype.shape} and root "
                    f"{st.factor.shape}; the store's dim is {dim}")
        self.r_max = max((len(st.factor) for st in stats), default=0)
        protos = np.empty((len(ids), dim))
        roots = np.zeros((len(ids), self.r_max, dim))
        for k, st in enumerate(stats):
            protos[k] = st.prototype
            roots[k, :len(st.factor)] = st.factor
        protos.flags.writeable = False   # before the views, so they are read-only too
        roots.flags.writeable = False
        self.stats = {int(cid): ClassStatistics(protos[k], roots[k, :len(st.factor)], st.count)
                      for k, (cid, st) in enumerate(zip(ids, stats))}
        self.ids = np.array(ids, dtype=np.int64)
        self.prototypes = protos
        self.roots = roots.reshape(len(ids) * self.r_max, dim)

    @property
    def class_ids(self) -> list[int]:
        """Class ids in ascending order, the packed arrays' row order."""
        return list(self.stats)

    def __len__(self) -> int:
        return len(self.stats)

    def __contains__(self, class_id: int) -> bool:
        return class_id in self.stats

    def get(self, class_id: int) -> ClassStatistics:
        return self.stats[class_id]


def _group_means(features, labels, caller: str):
    """Rows grouped by label in one sort and one `np.add.reduceat`.

    Returns the distinct labels (ascending), each group's row count, start
    and mean, and the rows sorted by label. The sort is stable, so every
    group keeps its input row order and its mean and root depend only on
    its own rows.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] == 0:
        raise InvalidArgumentError(f"{caller} requires a non-empty (N, D) feature matrix")
    if labels.shape[0] != features.shape[0]:
        raise InvalidArgumentError("labels must align with feature rows")
    order = np.argsort(labels, kind="stable")
    ids, starts, counts = np.unique(labels[order], return_index=True, return_counts=True)
    rows = features[order]
    means = np.add.reduceat(rows, starts, axis=0) / counts[:, None]
    return ids, counts, starts, means, rows


def fit_class_statistics(features, labels) -> dict[int, ClassStatistics]:
    """Prototype, covariance root (see the module docstring) and count per
    distinct label."""
    ids, counts, starts, means, rows = _group_means(features, labels, "fit_class_statistics")
    dim = rows.shape[1]
    out: dict[int, ClassStatistics] = {}
    for cid, n, start, mu in zip(ids, counts, starts, means):
        factor = (np.linalg.qr((rows[start:start + n] - mu) / math.sqrt(n - 1), mode="r")
                  if n >= 2 else np.zeros((0, dim)))
        out[int(cid)] = ClassStatistics(mu, factor, int(n))
    return out


def batch_class_prototypes(features, labels) -> dict[int, np.ndarray]:
    """Mean feature per distinct label, equal bit for bit to the prototype
    `fit_class_statistics` gives for the same rows."""
    ids, _, _, means, _ = _group_means(features, labels, "batch_class_prototypes")
    return dict(zip(ids.tolist(), means))


def register(store: PrototypeStore, new_stats: dict[int, ClassStatistics]) -> PrototypeStore:
    """A new store holding the old classes plus previously unseen ones.
    Duplicates are an error."""
    for cid in new_stats:
        if cid in store.stats:
            raise InvalidStateError(f"class {cid} already registered")
    return PrototypeStore({**store.stats, **{int(cid): st for cid, st in new_stats.items()}})
