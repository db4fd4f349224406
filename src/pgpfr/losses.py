"""Training losses as value-and-gradient functions over the classifier head.

Four losses:
  * replay cross-entropy over a merged pseudo+real batch, with temperature
    sharpening of pseudo-row predictions restricted to old-class logits;
  * prototype replay (old-class prototypes classified by their own rows);
  * variational prototype replay, which adds a covariance-weighted quadratic
    penalty to each competing denominator term;
  * truncated cross-entropy, a softmax restricted to the current task's
    slice of the shared head.

All reductions are means, so loss magnitudes are batch-size invariant.
Gradients are analytic and checked against finite differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import IncrementalClassifier
from .errors import InvalidArgumentError, InvalidStateError
from .prototypes import PrototypeStore
from .replay import MergedBatch


@dataclass
class LossConfig:
    temperature_R: float = 0.3
    gamma: float = 1.0
    enable_P: bool = True          # pseudo-feature generation (replay)
    enable_V: bool = True          # variational prototype replay loss
    enable_T: bool = True          # truncated cross-entropy loss
    enable_sharpening: bool = True # temperature on pseudo-row predictions
    enable_batch_proto: bool = True  # batch prototypes vs whole-task prototypes

    def __post_init__(self):
        if self.temperature_R <= 0:
            raise InvalidArgumentError(f"temperature must be positive, got {self.temperature_R}")
        if self.gamma < 0:
            raise InvalidArgumentError(f"gamma must be >= 0, got {self.gamma}")


@dataclass
class LossValueGrad:
    value: float
    grad_W: np.ndarray   # (C, D)
    grad_b: np.ndarray   # (C,)


def _zeros_like(clf: IncrementalClassifier) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros_like(clf.W), np.zeros_like(clf.b)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _softmax_ce(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed negative log-likelihood of the labels under the row softmax of
    logits, and its gradient with respect to logits, softmax - onehot."""
    rows = np.arange(len(labels))
    logp = _log_softmax(logits)
    nll = -logp[rows, labels].sum()
    d = np.exp(logp)
    d[rows, labels] -= 1.0
    return nll, d


def replay_ce_loss(batch: MergedBatch, clf: IncrementalClassifier, n_old: int,
                   cfg: LossConfig) -> LossValueGrad:
    """Cross-entropy over the merged batch.

    Pseudo rows score against the first n_old logits divided by the
    sharpening temperature; real rows score against all visible logits.
    """
    n = batch.n_rows
    if n == 0:
        raise InvalidArgumentError("replay_ce_loss on an empty batch")
    z = np.asarray(batch.features, dtype=np.float64)
    labels = np.asarray(batch.labels, dtype=np.int64)
    mask = np.asarray(batch.pseudo_mask, dtype=bool)
    if mask.any():
        if n_old < 1:
            raise InvalidArgumentError("pseudo rows present but n_old < 1")
        if labels[mask].max() >= n_old:
            raise InvalidArgumentError("pseudo row label outside the old-class range")

    temp = cfg.temperature_R if cfg.enable_sharpening else 1.0
    grad_w, grad_b = _zeros_like(clf)
    value = 0.0
    dlogits = np.zeros((n, clf.n_classes))

    if mask.any():
        zp, yp = z[mask], labels[mask]
        nll, d = _softmax_ce((zp @ clf.W[:n_old].T + clf.b[:n_old]) / temp, yp)
        value += nll
        dlogits[np.ix_(mask.nonzero()[0], np.arange(n_old))] = d / temp

    real = ~mask
    if real.any():
        zr, yr = z[real], labels[real]
        nll, d = _softmax_ce(zr @ clf.W.T + clf.b, yr)
        value += nll
        dlogits[real] = d

    dlogits /= n
    grad_w += dlogits.T @ z
    grad_b += dlogits.sum(axis=0)
    return LossValueGrad(value / n, grad_w, grad_b)


def proto_loss(store: PrototypeStore, clf: IncrementalClassifier) -> LossValueGrad:
    """Each old prototype classified against the old-class rows only."""
    if len(store) == 0:
        raise InvalidStateError("prototype store is empty")
    old_ids = np.asarray(store.class_ids)
    mu = store.prototype_matrix()                       # (No, D)
    wo, bo = clf.W[old_ids], clf.b[old_ids]
    n_old = len(old_ids)

    s = mu @ wo.T + bo                                  # s[k, c]
    logp = _log_softmax(s)
    value = float(-np.diagonal(logp).mean())
    g = (np.exp(logp) - np.eye(n_old)) / n_old          # dL/ds
    grad_w, grad_b = _zeros_like(clf)
    grad_w[old_ids] = g.T @ mu
    grad_b[old_ids] = g.sum(axis=0)
    return LossValueGrad(value, grad_w, grad_b)


def vpr_loss(store: PrototypeStore, clf: IncrementalClassifier,
             cfg: LossConfig) -> LossValueGrad:
    """Prototype replay with a covariance penalty on competing classes.

    Denominator term for competitor c against class k picks up
    gamma * (w_c - w_k)' C_k (w_c - w_k); the c = k term is exactly zero,
    so gamma = 0 (or all-zero covariances) reduces to proto_loss.
    """
    if len(store) == 0:
        raise InvalidStateError("prototype store is empty")
    gamma = cfg.gamma
    old_ids = np.asarray(store.class_ids)
    mu = store.prototype_matrix()
    wo, bo = clf.W[old_ids], clf.b[old_ids]
    n_old = len(old_ids)

    value = 0.0
    gw = np.zeros_like(wo)
    gb = np.zeros_like(bo)
    for k in range(n_old):
        c_k = store.get(int(old_ids[k])).covariance
        diffs = wo - wo[k]                              # (No, D)
        cd = diffs @ c_k                                # C_k symmetric
        q = np.einsum("nd,nd->n", cd, diffs)
        q[k] = 0.0
        s = wo @ mu[k] + bo + gamma * q
        logp = _log_softmax(s)
        value += -logp[k]
        p = np.exp(logp)
        # denominator path: d s_c / d w_c = mu_k + 2 gamma C_k (w_c - w_k)
        gw += p[:, None] * (mu[k][None, :] + 2.0 * gamma * cd)
        # w_k appears in the numerator and in every penalty term
        gw[k] -= mu[k] + 2.0 * gamma * (p[:, None] * cd).sum(axis=0)
        gb += p
        gb[k] -= 1.0
    grad_w, grad_b = _zeros_like(clf)
    grad_w[old_ids] = gw / n_old
    grad_b[old_ids] = gb / n_old
    return LossValueGrad(value / n_old, grad_w, grad_b)


def tce_loss(features, labels, clf: IncrementalClassifier,
             task_range: tuple[int, int]) -> LossValueGrad:
    """Cross-entropy with the softmax restricted to the task's class slice."""
    lo, hi = task_range
    if not (0 <= lo < hi <= clf.n_classes):
        raise InvalidArgumentError(f"bad task range {task_range}")
    z = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if z.ndim != 2 or z.shape[0] == 0:
        raise InvalidArgumentError("tce_loss requires a non-empty batch")
    if labels.min() < lo or labels.max() >= hi:
        raise InvalidArgumentError("label outside the task range")

    n = z.shape[0]
    nll, d = _softmax_ce(z @ clf.W[lo:hi].T + clf.b[lo:hi], labels - lo)
    value = float(nll / n)
    d /= n
    grad_w, grad_b = _zeros_like(clf)
    grad_w[lo:hi] = d.T @ z
    grad_b[lo:hi] = d.sum(axis=0)
    return LossValueGrad(value, grad_w, grad_b)


def total_loss(components: list[LossValueGrad]) -> LossValueGrad:
    """Unweighted sum of the enabled loss components."""
    if not components:
        raise InvalidArgumentError("total_loss needs at least one component")
    shape_w = components[0].grad_W.shape
    shape_b = components[0].grad_b.shape
    for c in components[1:]:
        if c.grad_W.shape != shape_w or c.grad_b.shape != shape_b:
            raise InvalidArgumentError("loss component gradient shapes disagree")
    return LossValueGrad(
        sum(c.value for c in components),
        sum(c.grad_W for c in components),
        sum(c.grad_b for c in components),
    )
