"""Shared test helpers: finite-difference gradients, scalar reference
implementations of the losses, kept independent of the library's vectorized
code paths, and the oracles `proto_loss` and `covariance`."""

import math

import numpy as np
import pytest

from pgpfr.classifier import IncrementalClassifier
from pgpfr.errors import InvalidArgumentError
from pgpfr.losses import LossValueGrad, _log_softmax, _old_rows
from pgpfr.prototypes import PrototypeStore


def fd_gradients(loss_fn, clf: IncrementalClassifier, h: float = 1e-5):
    """Central finite differences of loss_fn(clf).value over W and b."""
    gw = np.zeros_like(clf.W)
    gb = np.zeros_like(clf.b)
    for i in range(clf.W.shape[0]):
        for j in range(clf.W.shape[1]):
            orig = clf.W[i, j]
            clf.W[i, j] = orig + h
            up = loss_fn(clf).value
            clf.W[i, j] = orig - h
            down = loss_fn(clf).value
            clf.W[i, j] = orig
            gw[i, j] = (up - down) / (2 * h)
    for i in range(clf.b.shape[0]):
        orig = clf.b[i]
        clf.b[i] = orig + h
        up = loss_fn(clf).value
        clf.b[i] = orig - h
        down = loss_fn(clf).value
        clf.b[i] = orig
        gb[i] = (up - down) / (2 * h)
    return gw, gb


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def max_rel_error(analytic: LossValueGrad, fd_w: np.ndarray, fd_b: np.ndarray) -> float:
    # Infinity-norm relative error with a single scale shared by W and b.
    # Per-entry (or per-block) denominators would flag finite-difference
    # cancellation noise on gradient components that are genuinely near zero
    # while the rest of the gradient is large.
    pairs = ((analytic.grad_W, fd_w), (analytic.grad_b, fd_b))
    scale = max(max(float(np.abs(a).max()), float(np.abs(f).max()))
                for a, f in pairs)
    scale = max(scale, 1e-6)
    return max(float(np.abs(a - f).max()) for a, f in pairs) / scale


def scalar_softmax_ce(logit_row, label) -> float:
    """-log softmax(logits)[label], evaluated with plain python floats."""
    m = max(logit_row)
    exps = [math.exp(v - m) for v in logit_row]
    return -math.log(exps[label] / sum(exps))


def scalar_replay_ce(features, labels, n_pseudo, w, b, n_old, temp) -> float:
    """Row-by-row reference of the cross-entropy over a step's rows, the
    first n_pseudo of them pseudo rows."""
    total = 0.0
    for i, (row, label) in enumerate(zip(features, labels)):
        if i < n_pseudo:
            logits = [(sum(w[c][j] * row[j] for j in range(len(row))) + b[c]) / temp
                      for c in range(n_old)]
        else:
            logits = [sum(w[c][j] * row[j] for j in range(len(row))) + b[c]
                      for c in range(len(w))]
        total += scalar_softmax_ce(logits, int(label))
    return total / len(labels)


def proto_loss(store: PrototypeStore, clf: IncrementalClassifier) -> LossValueGrad:
    """Plain prototype replay: each old prototype classified against the
    old-class rows only. VPR at gamma 0 must equal it; the store is checked
    as VPR checks it."""
    old_ids, mu = _old_rows(store, clf), store.prototypes   # mu: (No, D)
    wo, bo = clf.W[old_ids], clf.b[old_ids]
    n_old = len(old_ids)

    s = mu @ wo.T + bo                                  # s[k, c]
    logp = _log_softmax(s)
    value = float(-np.diagonal(logp).mean())
    g = (np.exp(logp) - np.eye(n_old)) / n_old          # dL/ds
    grad_w, grad_b = np.zeros_like(clf.W), np.zeros_like(clf.b)
    grad_w[old_ids] = g.T @ mu
    grad_b[old_ids] = g.sum(axis=0)
    return LossValueGrad(value, grad_w, grad_b)


def covariance(m) -> np.ndarray:
    """Unbiased sample covariance (divisor N-1); zero matrix when N < 2."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0:
        raise InvalidArgumentError("covariance requires a non-empty (N, D) matrix")
    n, d = m.shape
    if n < 2:
        return np.zeros((d, d))
    centered = m - m.mean(axis=0)
    c = centered.T @ centered / (n - 1)
    # exact symmetry matters downstream (quadratic-form gradients)
    return (c + c.T) / 2.0


def dense_covariances(store: PrototypeStore) -> np.ndarray:
    """(No, D, D): each class's covariance FᵀF, F its slot of the packed
    root block, symmetrized exactly."""
    slots = store.roots.reshape(len(store), store.r_max, store.prototypes.shape[1])
    c = np.einsum("kji,kjl->kil", slots, slots)
    return (c + c.transpose(0, 2, 1)) / 2.0


def scalar_vpr(store: PrototypeStore, w, b, gamma) -> float:
    """Reference of the (variational) prototype replay loss; gamma=0 gives
    the plain prototype replay value."""
    ids = store.ids.tolist()
    covs = dense_covariances(store)
    total = 0.0
    for k_pos, k in enumerate(ids):
        mu = store.prototypes[k_pos]
        cov = covs[k_pos]
        terms = []
        for c_pos, c in enumerate(ids):
            lin = sum(w[c][j] * mu[j] for j in range(len(mu))) + b[c]
            if c_pos == k_pos:
                terms.append(lin)
            else:
                diff = [w[c][j] - w[k][j] for j in range(len(mu))]
                q = sum(diff[i] * cov[i][j] * diff[j]
                        for i in range(len(mu)) for j in range(len(mu)))
                terms.append(lin + gamma * q)
        m = max(terms)
        total += -(terms[k_pos] - m) + math.log(sum(math.exp(t - m) for t in terms))
    return total / len(ids)


def random_store(rng, n_old: int, dim: int, zero_cov: bool = False,
                 rank: int | None = None) -> PrototypeStore:
    """Classes 0..n_old-1 with random prototypes; each root is the (D, D) QR
    factor of D + 2 centred random rows, or has no rows when zero_cov. With
    `rank`, each root is a random (rank, D) matrix scaled by 1/sqrt(rank)
    instead, so a rank with 2 * rank <= D puts the store on VPR's root path."""
    r = 0 if zero_cov else dim if rank is None else rank
    protos = np.empty((n_old, dim))
    roots = np.zeros((n_old, r, dim))
    for k in range(n_old):
        if rank is not None:
            roots[k] = rng.normal(size=(rank, dim)) / math.sqrt(max(rank, 1))
        elif not zero_cov:
            a = rng.normal(size=(dim + 2, dim))
            roots[k] = np.linalg.qr((a - a.mean(axis=0)) / math.sqrt(dim + 1), mode="r")
        protos[k] = rng.normal(size=dim)
    return PrototypeStore(np.arange(n_old), protos, roots.reshape(-1, dim))


class ReferenceAdam:
    """Textbook Adam (Kingma & Ba, Algorithm 1): moments with the (1 - beta)
    factors, bias-corrected m_hat and v_hat, then lr * m_hat / (sqrt(v_hat) + eps).
    Updates the named arrays in place."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}
        self.t, self.lr, self.beta1, self.beta2, self.eps = 0, lr, beta1, beta2, eps

    def update(self, params, grads):
        self.t += 1
        for name, g in grads.items():
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = self.m[name] / (1 - self.beta1 ** self.t)
            v_hat = self.v[name] / (1 - self.beta2 ** self.t)
            params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
