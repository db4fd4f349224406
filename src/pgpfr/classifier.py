"""Growing linear classification head and the Adam optimizer that trains it.

The head holds one weight row and bias per class. Classes arrive in
contiguous task ranges; `expand` appends rows without touching existing ones.
Adam uses the fixed constants BETA1, BETA2 and EPS; only its learning rate
is set per optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

INIT_STD = 0.01
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # Adam's decay rates and epsilon (Kingma & Ba)


@dataclass
class IncrementalClassifier:
    W: np.ndarray                      # (C, D), row k is the weight of class k
    b: np.ndarray                      # (C,)
    task_ranges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return self.W.shape[0]

    @property
    def dim(self) -> int:
        return self.W.shape[1]

    @property
    def params(self) -> dict[str, np.ndarray]:
        """The trainable arrays by name; updating them in place updates the head."""
        return {"W": self.W, "b": self.b}


def new_classifier(dim: int, k: int, seed: int) -> IncrementalClassifier:
    if dim < 1:
        raise InvalidArgumentError(f"dim must be >= 1, got {dim}")
    if k < 1:
        raise InvalidArgumentError(f"class count must be >= 1, got {k}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    w = rng.normal(0.0, INIT_STD, size=(k, dim))
    return IncrementalClassifier(w, np.zeros(k), [(0, k)])


def expand(clf: IncrementalClassifier, d: int, seed: int) -> IncrementalClassifier:
    """Append d freshly initialized class rows as a new task range."""
    if d < 1:
        raise InvalidArgumentError(f"d must be >= 1, got {d}")
    task_idx = len(clf.task_ranges)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1, task_idx]))
    new_w = rng.normal(0.0, INIT_STD, size=(d, clf.dim))
    lo = clf.n_classes
    return IncrementalClassifier(
        np.vstack([clf.W, new_w]),
        np.concatenate([clf.b, np.zeros(d)]),
        clf.task_ranges + [(lo, lo + d)],
    )


def predict(clf: IncrementalClassifier, features) -> np.ndarray:
    """Argmax class per row of the (N, D) features' float64 logits; ties
    resolve to the smallest class id."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != clf.dim:
        raise InvalidArgumentError(
            f"features must be (N, {clf.dim}), got {features.shape}")
    return np.argmax(features @ clf.W.T + clf.b, axis=1)


@dataclass
class AdamState:
    """Adam moments per named parameter, plus the step count they share.

    `m` and `v` hold the raw exponentially weighted sums m <- BETA1*m + g and
    v <- BETA2*v + g*g, without the (1 - beta) factors. Each update folds
    those factors and both bias corrections into two scalars (Kingma & Ba,
    ICLR 2015, section 2), a step size alpha_t and an epsilon eps_t:
    theta -= alpha_t * m / (sqrt(v) + eps_t), which equals the textbook
    lr * m_hat / (sqrt(v_hat) + eps) in exact arithmetic.
    """
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step_count: int = 0
    lr: float = 0.001

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One in-place Adam step on every named parameter, with one
        temporary array per parameter."""
        self.step_count += 1
        t = self.step_count
        v_scale = math.sqrt(1 - BETA2 ** t) / math.sqrt(1 - BETA2)  # sqrt(v_raw / v_hat)
        alpha_t = self.lr * (1 - BETA1) / (1 - BETA1 ** t) * v_scale
        eps_t = EPS * v_scale
        for name, grad in grads.items():
            param, m, v = params[name], self.m[name], self.v[name]
            m *= BETA1
            m += grad
            s = np.multiply(grad, grad, out=np.empty_like(v))  # an array even when 0-d
            v *= BETA2
            v += s
            np.sqrt(v, out=s)
            s += eps_t
            np.divide(m, s, out=s)
            s *= alpha_t
            param -= s


def new_adam_state(params: dict[str, np.ndarray], lr: float = 0.001) -> AdamState:
    """Zero moments for each named parameter array."""
    if not lr > 0:
        raise InvalidArgumentError(f"lr must be positive, got {lr}")
    return AdamState(m={k: np.zeros_like(p) for k, p in params.items()},
                     v={k: np.zeros_like(p) for k, p in params.items()}, lr=lr)


def adam_step(clf: IncrementalClassifier, grads, state: AdamState) -> None:
    """Apply one Adam update to (W, b) from a LossValueGrad-like object."""
    grad_w = np.asarray(grads.grad_W, dtype=np.float64)
    grad_b = np.asarray(grads.grad_b, dtype=np.float64)
    if grad_w.shape != clf.W.shape or grad_b.shape != clf.b.shape:
        raise InvalidArgumentError(
            f"gradient shapes {grad_w.shape}/{grad_b.shape} do not match "
            f"classifier {clf.W.shape}/{clf.b.shape}")
    state.update(clf.params, {"W": grad_w, "b": grad_b})
