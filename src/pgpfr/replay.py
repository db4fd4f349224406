"""Pseudo-feature generation with batch prototypes.

Old-class pseudo features are built per batch by translating each new-class
group so that its (batch) prototype lands on the most similar old-class
prototype. The batch's groups come from `batch_class_prototypes` as
ascending label ids and a (groups, D) prototype matrix; the old classes are
the store's `ids` and `prototypes` matrix. One cosine matrix of the two
assigns every group at once, and one gather translates every row. Pseudo
batches live for one optimizer step only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, InvalidStateError
from .numerics import cosine_sim
from .prototypes import PrototypeStore, batch_class_prototypes


@dataclass
class PseudoBatch:
    features: np.ndarray   # (B, D) translated features
    labels: np.ndarray     # (B,) old-class ids

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


@dataclass
class MergedBatch:
    features: np.ndarray       # pseudo rows first, then real rows
    labels: np.ndarray
    pseudo_mask: np.ndarray    # bool, True exactly on pseudo rows

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


def generate_pseudo_batch(features, labels, store: PrototypeStore,
                          group_prototypes: tuple[np.ndarray, np.ndarray] | None = None
                          ) -> PseudoBatch:
    """Translate each label group onto its assigned old-class prototype.

    Every row f of group n becomes f + mu_p - mu_hat_n with pseudo label p,
    where mu_hat_n is the group's (batch) prototype and p the old class whose
    prototype is most cosine-similar to it. One (groups, old) `cosine_sim`
    matrix scores every pair; a zero-norm prototype scores 0 against every
    class, and ties go to the smallest class id. `group_prototypes`, ascending
    ids and their prototype rows as `batch_class_prototypes` returns them,
    overrides the batch prototypes; it realizes the ablation that uses
    whole-task class prototypes instead, and must hold every label in the
    batch.
    """
    if len(store) == 0:
        raise InvalidStateError("prototype store is empty")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] == 0:
        raise InvalidArgumentError("generate_pseudo_batch requires a non-empty batch")
    if labels.shape != features.shape[:1]:
        raise InvalidArgumentError(f"{labels.size} labels for {features.shape[0]} feature rows")
    ids, protos = (batch_class_prototypes(features, labels) if group_prototypes is None
                   else map(np.asarray, group_prototypes))
    inverse = np.searchsorted(ids, labels)
    missing = labels[ids[np.minimum(inverse, len(ids) - 1)] != labels]
    if missing.size:
        raise InvalidArgumentError(
            f"group_prototypes lacks batch label(s) {np.unique(missing).tolist()}")
    if protos.shape[1] != features.shape[1]:
        raise InvalidArgumentError(
            f"group prototypes have dim {protos.shape[1]}, features {features.shape[1]}")

    # the store packs its classes in ascending id, so argmax's first maximum
    # is the smallest id
    mu = store.prototypes
    best = cosine_sim(protos, mu).argmax(axis=1)
    return PseudoBatch(features + (mu[best] - protos)[inverse], store.ids[best][inverse])


def merge(pseudo: PseudoBatch | None, real_features, real_labels) -> MergedBatch:
    """Concatenate pseudo rows (first) with real rows; mask marks the pseudo ones."""
    real_features = np.asarray(real_features, dtype=np.float64)
    real_labels = np.asarray(real_labels, dtype=np.int64)
    if pseudo is None or pseudo.n_rows == 0:
        return MergedBatch(real_features.copy(), real_labels.copy(),
                           np.zeros(real_features.shape[0], dtype=bool))
    if pseudo.features.shape[1] != real_features.shape[1]:
        raise InvalidArgumentError(
            f"feature dim mismatch: pseudo {pseudo.features.shape[1]}, "
            f"real {real_features.shape[1]}")
    n_pseudo = pseudo.n_rows
    n_real = real_features.shape[0]
    mask = np.concatenate([np.ones(n_pseudo, dtype=bool), np.zeros(n_real, dtype=bool)])
    return MergedBatch(
        np.vstack([pseudo.features, real_features]),
        np.concatenate([pseudo.labels, real_labels]),
        mask,
    )
