"""Pseudo-feature generation with batch prototypes.

Old-class pseudo features are built per batch by translating each new-class
group, one label's rows within one batch, so that its batch prototype lands
on the most similar old-class prototype; the old classes are the store's
`ids` and `prototypes` matrix. One cosine matrix of the two assigns every
group at once, and one gather translates every row. The head plays no part,
so one call makes the pseudo rows of every batch of an epoch. `merge` stacks
a step's pseudo rows over its real rows, into one features and one labels
array for one logits product.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, InvalidStateError
from .numerics import check_labels, check_matrix, cosine_sim
from .prototypes import PrototypeStore, _group_means


def generate_pseudo_batch(features, labels, store: PrototypeStore,
                          batch_sizes=None) -> tuple[np.ndarray, np.ndarray]:
    """Translate each (batch, label) group onto its assigned old-class
    prototype: the (N, D) pseudo features and their (N,) old-class labels.

    The rows are consecutive batches of `batch_sizes` rows each, by default
    one batch. Every row f of group n becomes f + mu_p - mu_hat_n with pseudo
    label p, where mu_hat_n is the group's mean and p the old class whose
    prototype is most cosine-similar to it. One (groups, old) `cosine_sim`
    matrix scores every pair; a zero-norm prototype scores 0 against every
    class, and ties go to the smallest class id. A group's mean sums its rows
    in input order, so the result equals, bit for bit, one call per batch.
    """
    if len(store) == 0:
        raise InvalidStateError("prototype store is empty")
    features = check_matrix(features, "generate_pseudo_batch features")
    if features.size == 0:
        raise InvalidArgumentError("generate_pseudo_batch requires a non-empty batch")
    n = len(features)
    labels = check_labels(labels, n, "feature rows")
    sizes = np.asarray([n] if batch_sizes is None else batch_sizes)
    # no size above n, so the sum of the sizes cannot wrap around
    if (sizes.ndim != 1 or sizes.dtype.kind not in "iu" or sizes.min(initial=0) < 0
            or sizes.max(initial=0) > n or sizes.sum() != n):
        raise InvalidArgumentError(f"batch sizes {sizes.tolist()} do not split {n} rows")
    # the (batch, label) key takes each label's rank below n, not its id, so
    # it is exact for any int64 labels
    key = np.repeat(np.arange(len(sizes)), sizes) * n + np.unique(labels, return_inverse=True)[1]
    keys, _, _, protos, _ = _group_means(features, key, "generate_pseudo_batch")
    inverse = np.searchsorted(keys, key)

    # the store packs its classes in ascending id, so argmax's first maximum
    # is the smallest id
    mu = store.prototypes
    best = cosine_sim(protos, mu).argmax(axis=1)
    return features + (mu[best] - protos)[inverse], store.ids[best][inverse]


def merge(pseudo_features, pseudo_labels, real_features,
          real_labels) -> tuple[np.ndarray, np.ndarray]:
    """The step's (features, labels): the pseudo rows, then the real rows.
    With no pseudo rows it returns the real arrays uncopied."""
    real_features = np.asarray(real_features, dtype=np.float64)
    real_labels = np.asarray(real_labels, dtype=np.int64)
    if len(pseudo_labels) != len(pseudo_features):
        raise InvalidArgumentError(
            f"{len(pseudo_labels)} pseudo labels for {len(pseudo_features)} pseudo feature rows")
    if len(pseudo_features) == 0:
        return real_features, real_labels
    if pseudo_features.shape[1] != real_features.shape[1]:
        raise InvalidArgumentError(
            f"feature dim mismatch: pseudo {pseudo_features.shape[1]}, "
            f"real {real_features.shape[1]}")
    return (np.vstack([pseudo_features, real_features]),
            np.concatenate([pseudo_labels, real_labels]))
