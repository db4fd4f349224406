"""Per-class feature statistics: prototypes (class means) and covariance roots.

Statistics are computed once per task over frozen-backbone features and
accumulate in a PrototypeStore that never changes: `register` builds a new
store from the old one plus the task's classes.

A store is its packed arrays, No classes in ascending class id:
  * `ids` (No,), the class ids;
  * `prototypes` (No, D), the class means;
  * `roots` (No * r_max, D), one zero-padded block of covariance roots.

A class's unbiased covariance C is held as an exact root F with C = F'F: the
R factor of the QR decomposition of (rows - mean) / sqrt(n - 1), shape (r, D)
with r = min(n, D), or no rows when n < 2. Class k's slot in `roots` is rows
k * r_max to (k + 1) * r_max: its r_k root rows first, zero rows after, r_max
the largest r_k. Zero rows add exactly 0 to VPR's penalty, so the padding
changes no value; it costs flops only when the r_k differ.

`covariances` (D, No * D) is derived from `roots` on first use and kept: the
C-contiguous row of blocks [C_1 ... C_No], class k's dense C_k = F_k'F_k in
columns k * D to (k + 1) * D, symmetrized exactly as (C_k + C_k') / 2. Each
C_k is exactly symmetric, so `w @ covariances` holds C_k w for every class k
as one untransposed product. VPR reads it only when 2 * r_max > D; `roots`
stays the only statistic a store is built from.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError, InvalidStateError
from .numerics import check_labels, check_matrix


class PrototypeStore:
    """Class ids, prototypes and covariance roots, packed as the module
    docstring describes. The store takes its arrays over and makes them
    read-only; it never changes after it is built."""

    def __init__(self, ids=(), prototypes=None, roots=None):
        """With no arguments, the empty store. Ids must be integers, and the
        prototypes and roots bool, integer or float numbers."""
        ids = np.asarray(ids)
        protos = np.asarray(np.zeros((0, 0)) if prototypes is None else prototypes)
        roots = np.asarray(np.zeros((0, protos.shape[-1] if protos.ndim else 0))
                           if roots is None else roots)
        if (ids.size and ids.dtype.kind not in "iu") or protos.dtype.kind not in "biuf" \
                or roots.dtype.kind not in "biuf":
            raise InvalidArgumentError(
                f"store ids must be integers and its arrays numbers, got ids {ids.dtype}, "
                f"prototypes {protos.dtype}, roots {roots.dtype}")
        if (ids.ndim != 1 or protos.ndim != 2 or len(protos) != len(ids)
                or roots.ndim != 2 or roots.shape[1] != protos.shape[1]
                or (len(roots) % len(ids) if len(ids) else len(roots))):
            raise InvalidArgumentError(
                f"store arrays disagree: ids {ids.shape}, "
                f"prototypes {protos.shape}, roots {roots.shape}")
        self.ids = np.asarray(ids, dtype=np.int64)
        self.prototypes = np.asarray(protos, dtype=np.float64)
        self.roots = np.asarray(roots, dtype=np.float64)
        if (np.diff(self.ids) <= 0).any():
            raise InvalidArgumentError(f"store ids must ascend, got {self.ids.tolist()}")
        for a in (self.ids, self.prototypes, self.roots):
            a.flags.writeable = False

    @property
    def r_max(self) -> int:
        """Rows per class slot in `roots`."""
        return len(self.roots) // len(self.ids) if len(self.ids) else 0

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def covariances(self) -> np.ndarray:
        """Read-only (D, No * D) block [C_1 ... C_No] of the dense
        covariances, built once."""
        dim = self.prototypes.shape[1]
        f = self.roots.reshape(len(self), self.r_max, dim)
        c = f.transpose(0, 2, 1) @ f
        block = np.empty((dim, len(self), dim))   # block[:, k] = C_k
        np.add(c, c.transpose(0, 2, 1), out=block.transpose(1, 0, 2))
        block /= 2.0
        block = block.reshape(dim, len(self) * dim)
        block.flags.writeable = False
        return block


def _group_means(features, labels, caller: str):
    """Rows grouped by integer label in one sort and one `np.add.reduceat`.

    Returns the distinct labels (ascending), each group's row count, start
    and mean, and the rows sorted by label. The sort is stable, so every
    group keeps its input row order and its mean and root depend only on
    its own rows.
    """
    features = check_matrix(features, f"{caller} features")
    if features.size == 0:
        raise InvalidArgumentError(f"{caller} requires a non-empty (N, D) feature matrix")
    labels = check_labels(labels, len(features), "feature rows")
    order = np.argsort(labels, kind="stable")
    ids, starts, counts = np.unique(labels[order], return_index=True, return_counts=True)
    rows = features[order]
    means = np.add.reduceat(rows, starts, axis=0) / counts[:, None]
    return ids, counts, starts, means, rows


def fit_class_statistics(features, labels) -> PrototypeStore:
    """A store of every distinct label's prototype and covariance root (see
    the module docstring); each class's row count sizes its root."""
    ids, counts, starts, means, rows = _group_means(features, labels, "fit_class_statistics")
    # min or max is non-finite when any entry is, and neither needs an (N, D) mask
    if not (np.isfinite(rows.min()) and np.isfinite(rows.max())):
        raise InvalidArgumentError("fit_class_statistics requires finite features")
    dim = rows.shape[1]
    r = np.where(counts >= 2, np.minimum(counts, dim), 0)
    roots = np.zeros((len(ids), r.max(), dim))
    for k in np.flatnonzero(r):
        n, start = counts[k], starts[k]
        roots[k, :r[k]] = np.linalg.qr((rows[start:start + n] - means[k]) / math.sqrt(n - 1),
                                       mode="r")
    return PrototypeStore(ids, means, roots.reshape(-1, dim))


def register(store: PrototypeStore, new: PrototypeStore) -> PrototypeStore:
    """One store holding the classes of both; a class in both is an error.

    Each array of the result is allocated once and filled slot by slot, so
    no padded or concatenated copy of a root block is made.
    """
    dup = np.intersect1d(store.ids, new.ids)
    if dup.size:
        raise InvalidStateError(f"class {dup[0]} already registered")
    if not len(new):
        return store
    dim = new.prototypes.shape[1]
    if len(store) and store.prototypes.shape[1] != dim:
        raise InvalidArgumentError(
            f"registering classes of dim {dim} into a store of dim {store.prototypes.shape[1]}")
    ids = np.sort(np.concatenate([store.ids, new.ids]))
    r_max = max(store.r_max, new.r_max)
    protos = np.empty((len(ids), dim))
    roots = np.zeros((len(ids), r_max, dim))
    for part in filter(len, (store, new)):
        at = np.searchsorted(ids, part.ids)
        protos[at] = part.prototypes
        roots[at, :part.r_max] = part.roots.reshape(len(part), part.r_max, dim)
    return PrototypeStore(ids, protos, roots.reshape(-1, dim))
