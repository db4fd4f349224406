"""Training losses as value-and-gradient functions over the classifier head.

Replay CE and TCE take a step's logits and labels and return their
gradient with respect to the logits; `total_loss` turns the summed logit
gradient into the head gradient with one product and adds VPR's, which
reads the head directly.

Three losses:
  * replay cross-entropy over a step's rows, pseudo rows first, with the
    pseudo rows' old-class logits divided by the temperature R (R < 1
    sharpens their predictions; R = 1 is no sharpening);
  * variational prototype replay: prototype replay (old-class prototypes
    classified by their own rows) plus a covariance-weighted quadratic
    penalty on each competing denominator term;
  * truncated cross-entropy, a softmax restricted to the current task's
    slice of the shared head.

VPR reads the store's packed arrays only: `ids` picks
the old classes' head rows (every id must be one), `prototypes` is their
(No, D) mean matrix, and VPR's penalty reads the zero-padded (No * r_max, D)
`roots` block when 2 * r_max <= D (4 * No^2 * r_max * D flops a call) and the
store's dense (D, No * D) `covariances` block [C_1 ... C_No] otherwise
(2 * No^2 * D^2 flops, one untransposed product, then three batched
contractions of its (No, No, D) result). It never looks at a class one at a
time.

All reductions are means, so loss magnitudes are batch-size invariant.
Gradients are analytic and checked against finite differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import IncrementalClassifier
from .errors import InvalidArgumentError, InvalidStateError
from .numerics import check_integer, check_labels, check_matrix
from .prototypes import PrototypeStore


@dataclass
class LossConfig:
    R: float = 0.3                 # pseudo-row logit temperature; 1 is no sharpening
    gamma: float = 1.0
    enable_P: bool = True          # pseudo-feature generation (replay)
    enable_V: bool = True          # variational prototype replay loss
    enable_T: bool = True          # truncated cross-entropy loss
    enable_batch_proto: bool = True  # batch prototypes vs whole-task prototypes

    def __post_init__(self):
        if not self.R > 0:
            raise InvalidArgumentError(f"temperature must be positive, got {self.R}")
        if not self.gamma >= 0:
            raise InvalidArgumentError(f"gamma must be >= 0, got {self.gamma}")


@dataclass
class LossValueGrad:
    value: float
    grad_W: np.ndarray   # (C, D)
    grad_b: np.ndarray   # (C,)


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


def _check_labels(labels: np.ndarray, n_classes: int, kind: str) -> None:
    """One min and one max: every label must index one of n_classes logits."""
    if len(labels) and (labels.min() < 0 or labels.max() >= n_classes):
        raise InvalidArgumentError(f"{kind} label outside [0, {n_classes})")


def replay_ce_loss(logits: np.ndarray, labels: np.ndarray, n_pseudo: int, n_old: int,
                   cfg: LossConfig) -> tuple[float, np.ndarray]:
    """Cross-entropy over a step's (n, C) head logits and their n labels,
    the first n_pseudo rows pseudo rows and the rest real rows.

    Pseudo rows score against the first n_old logits divided by the
    sharpening temperature; real rows score against all C. Returns the mean
    over the n rows and its (n, C) gradient with respect to `logits`.
    """
    logits = check_matrix(logits, "replay_ce_loss logits")
    n, n_classes = logits.shape
    if n == 0:
        raise InvalidArgumentError("replay_ce_loss on an empty batch")
    labels = check_labels(labels, n, "logit rows")
    check_integer(n_pseudo, "n_pseudo")
    check_integer(n_old, "n_old")
    if not 0 <= n_pseudo <= n:
        raise InvalidArgumentError(f"n_pseudo {n_pseudo} is outside [0, {n}], the batch's rows")
    if not 0 <= n_old <= n_classes:
        raise InvalidArgumentError(f"n_old {n_old} is outside [0, {n_classes}], the head's width")
    yp, yr = labels[:n_pseudo], labels[n_pseudo:]
    _check_labels(yp, n_old, "pseudo row")
    _check_labels(yr, n_classes, "real row")

    temp = cfg.R
    value = 0.0
    dlogits = np.zeros((n, n_classes))
    if n_pseudo:
        nll, d = _softmax_ce(logits[:n_pseudo, :n_old] / temp, yp)
        value += nll
        dlogits[:n_pseudo, :n_old] = d / temp
    if n_pseudo < n:
        nll, dlogits[n_pseudo:] = _softmax_ce(logits[n_pseudo:], yr)
        value += nll
    dlogits /= n
    return value / n, dlogits


def _old_rows(store: PrototypeStore, clf: IncrementalClassifier) -> np.ndarray:
    """The store's class ids, checked to be rows of the head (they ascend),
    and its width against the head's."""
    if len(store) == 0:
        raise InvalidStateError("prototype store is empty")
    if store.prototypes.shape[1] != clf.dim:
        raise InvalidArgumentError(
            f"store features are {store.prototypes.shape[1]}-d, the head's are {clf.dim}-d")
    ids = store.ids
    if ids[0] < 0 or ids[-1] >= clf.n_classes:
        raise InvalidArgumentError(
            f"store ids {ids[0]}..{ids[-1]} are not rows of a {clf.n_classes}-class head")
    return ids


def vpr_loss(store: PrototypeStore, clf: IncrementalClassifier,
             cfg: LossConfig) -> LossValueGrad:
    """Prototype replay with a covariance penalty on competing classes.

    Denominator term for competitor c against class k picks up
    gamma * (w_c - w_k)' C_k (w_c - w_k); the c = k term is exactly zero,
    so gamma = 0 (or all-zero covariances) reduces to plain prototype replay.

    With No old classes, D features and r_max rows per root slot (see
    `prototypes`), a call takes one of two paths, whichever needs fewer flops:
      * root path, 2 * r_max <= D: with C_k = F_k'F_k, the penalty is the
        squared norm of t = F_k (w_c - w_k) and its gradient is F_k't, two
        (No, No * r_max) x (No * r_max, D) products over the zero-padded root
        block, 4 * No^2 * r_max * D flops. Zero rows add exactly 0, so a
        class with n_k < 2 keeps q = 0.
      * dense path, 2 * r_max > D: one untransposed (No, D) x (D, No * D)
        product against the store's dense `covariances` block gives
        t[c, k] = C_k w_c for every pair, 2 * No^2 * D^2 flops, and its
        diagonal u_k = C_k w_k. By linearity, with g[c, k] = w_c'u_k,
          q[k, c] = w_c't[c, k] - 2 g[c, k] + g[k, k]   (q[k, k] set to 0),
          pen[c] = sum_k p_k[c] t[c, k] - sum_k p_k[c] u_k
                   - sum_c' p_c[c'] t[c', c] + (sum_c' p_c[c']) u_c,
        where the three sums over t are batched matrix-vector products
        (`np.matmul`), one pass over t each; no (w_c - w_k) difference
        block is formed. Reading each C_k untransposed relies on its exact
        symmetry.
    """
    old_ids = _old_rows(store, clf)
    gamma = cfg.gamma
    mu = store.prototypes
    wo, bo = clf.W[old_ids], clf.b[old_ids]
    n_old, dim = mu.shape
    diag = np.arange(n_old)
    dense = 2 * store.r_max > dim
    # q[k, c] = (w_c - w_k)' C_k (w_c - w_k)
    if dense:
        t = (wo @ store.covariances).reshape(n_old, n_old, dim)  # t[c, k] = C_k w_c
        u = t[diag, diag]                               # u[k] = C_k w_k
        g = wo @ u.T                                    # g[c, k] = w_c' C_k w_k
        q = (np.matmul(t, wo[:, :, None])[:, :, 0] - 2.0 * g).T + g[diag, diag, None]
        q[diag, diag] = 0.0
    else:
        t = (wo @ store.roots.T).reshape(n_old, n_old, store.r_max)  # t[c, k] = F_k w_c
        t -= t[diag, diag]                              # t[c, k] = F_k (w_c - w_k)
        q = np.einsum("ckj,ckj->kc", t, t)
    logp = _log_softmax(mu @ wo.T + bo + gamma * q)     # logp[k]: log-softmax row of class k
    probs = np.exp(logp)
    # pen[c] = sum_k p_k[c] C_k (w_c - w_k) - sum_c' p_c[c'] C_c (w_c' - w_c),
    # the second sum because w_k is in every penalty term of class k
    if dense:
        pen = (np.matmul(probs.T[:, None, :], t)[:, 0] - probs.T @ u
               - np.matmul(probs[:, None, :], t.transpose(1, 0, 2))[:, 0]
               + probs.sum(axis=1)[:, None] * u)
    else:
        t *= probs.T[:, :, None]                        # p_k[c] * t[c, k, j]
        t[diag, diag] -= t.sum(axis=0)
        pen = t.reshape(n_old, -1) @ store.roots

    value = -float(np.trace(logp))                      # logp[k, k]: class k at its own prototype
    # d s_c / d w_c = mu_k + 2 gamma C_k (w_c - w_k): the prototype part sums
    # p_k[c] mu_k over k, minus mu_k at c = k
    gw = probs.T @ mu - mu + (2.0 * gamma) * pen
    gb = probs.sum(axis=0) - 1.0
    grad_w, grad_b = np.zeros_like(clf.W), np.zeros_like(clf.b)
    grad_w[old_ids] = gw / n_old
    grad_b[old_ids] = gb / n_old
    return LossValueGrad(value / n_old, grad_w, grad_b)


def tce_loss(logits: np.ndarray, labels, task_range: tuple[int, int]) -> tuple[float, np.ndarray]:
    """Cross-entropy with the softmax restricted to the task's class slice
    of the real rows' (n, C) logits and their n labels: the mean over the
    rows and its (n, hi - lo) gradient with respect to `logits[:, lo:hi]`,
    the only nonzero part."""
    lo, hi = task_range
    logits = check_matrix(logits, "tce_loss logits")
    if logits.shape[0] == 0:
        raise InvalidArgumentError("tce_loss requires a non-empty batch")
    check_integer(lo, "task range start")
    check_integer(hi, "task range end")
    if not (0 <= lo < hi <= logits.shape[1]):
        raise InvalidArgumentError(f"bad task range {task_range}")
    labels = check_labels(labels, len(logits), "logit rows")
    if labels.min() < lo or labels.max() >= hi:
        raise InvalidArgumentError("label outside the task range")

    n = logits.shape[0]
    nll, d = _softmax_ce(logits[:, lo:hi], labels - lo)
    d /= n
    return float(nll / n), d


def total_loss(value: float, dlogits: np.ndarray, features: np.ndarray,
               vpr: LossValueGrad | None = None) -> LossValueGrad:
    """The head's loss from `value` and `dlogits`, the summed values and (n, C)
    gradients of the losses on the logits `features @ W.T + b`, plus VPR's."""
    c, dim = dlogits.shape[1], features.shape[1]
    if len(dlogits) != len(features) or vpr is not None and (
            vpr.grad_W.shape, vpr.grad_b.shape) != ((c, dim), (c,)):
        raise InvalidArgumentError("loss component gradient shapes disagree")
    grad_w = dlogits.T @ features
    grad_b = dlogits.sum(axis=0)
    if vpr is not None:
        value += vpr.value
        grad_w += vpr.grad_W
        grad_b += vpr.grad_b
    return LossValueGrad(value, grad_w, grad_b)
