"""Growing linear classification head and the Adam optimizer that trains it.

The head holds one weight row and bias per class. Classes arrive in
contiguous task ranges; `expand` appends rows without touching existing ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

INIT_STD = 0.01


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

    def copy(self) -> "IncrementalClassifier":
        return IncrementalClassifier(self.W.copy(), self.b.copy(), list(self.task_ranges))


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


def logits(clf: IncrementalClassifier, features) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != clf.dim:
        raise InvalidArgumentError(
            f"features must be (N, {clf.dim}), got {features.shape}")
    return features @ clf.W.T + clf.b


def predict(clf: IncrementalClassifier, features) -> np.ndarray:
    """Argmax class per row; ties resolve to the smallest class id."""
    return np.argmax(logits(clf, features), axis=1)


@dataclass
class AdamState:
    """Adam moments per named parameter, plus the step count they share."""
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step_count: int = 0
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One in-place Adam step with bias correction on every named parameter."""
        self.step_count += 1
        t = self.step_count
        for name, grad in grads.items():
            param, m, v = params[name], self.m[name], self.v[name]
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad * grad
            m_hat = m / (1 - self.beta1 ** t)
            v_hat = v / (1 - self.beta2 ** t)
            param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def new_adam_state(params: dict[str, np.ndarray], lr: float = 0.001) -> AdamState:
    """Zero moments for each named parameter array."""
    if lr <= 0:
        raise InvalidArgumentError(f"lr must be positive, got {lr}")
    return AdamState(m={k: np.zeros_like(p) for k, p in params.items()},
                     v={k: np.zeros_like(p) for k, p in params.items()}, lr=lr)


def adam_step(clf: IncrementalClassifier, grads, state: AdamState):
    """Apply one Adam update to (W, b) from a LossValueGrad-like object."""
    grad_w = np.asarray(grads.grad_W, dtype=np.float64)
    grad_b = np.asarray(grads.grad_b, dtype=np.float64)
    if grad_w.shape != clf.W.shape or grad_b.shape != clf.b.shape:
        raise InvalidArgumentError(
            f"gradient shapes {grad_w.shape}/{grad_b.shape} do not match "
            f"classifier {clf.W.shape}/{clf.b.shape}")
    state.update(clf.params, {"W": grad_w, "b": grad_b})
    return clf, state
