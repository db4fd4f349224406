"""Pluggable feature backbone: identity, linear, or one-hidden-layer MLP.

The backbone is trainable only during the first task; afterwards it is
frozen and every later task sees the exact same feature space. That
stability is what keeps stored class statistics valid across tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import classifier as clf_mod
from .errors import InvalidArgumentError, InvalidStateError
from .losses import _softmax_ce

KINDS = ("identity", "linear", "mlp1")
INIT_STD = 0.01


@dataclass
class ExtractorSpec:
    kind: str
    input_dim: int
    feature_dim: int
    hidden_dim: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidArgumentError(f"unknown extractor kind {self.kind!r}")
        if self.input_dim < 1 or self.feature_dim < 1:
            raise InvalidArgumentError("extractor dims must be >= 1")
        if self.kind == "identity" and self.input_dim != self.feature_dim:
            raise InvalidArgumentError("identity extractor requires input_dim == feature_dim")
        if self.kind == "mlp1" and self.hidden_dim < 1:
            raise InvalidArgumentError("mlp1 requires hidden_dim >= 1")


@dataclass
class Extractor:
    spec: ExtractorSpec
    params: dict[str, np.ndarray] = field(default_factory=dict)
    frozen: bool = False

    def embed_batch(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise InvalidArgumentError(
                f"input must be (N, {self.spec.input_dim}), got {x.shape}")
        return self._forward(x)[0]

    def _forward(self, x: np.ndarray):
        """Features of the (N, input_dim) batch x, plus the hidden activation
        the backward pass needs (mlp1; None for the other kinds)."""
        if self.spec.kind == "identity":
            return x.copy(), None
        if self.spec.kind == "linear":
            return x @ self.params["W"].T + self.params["b"], None
        h = np.maximum(x @ self.params["W1"].T + self.params["b1"], 0.0)
        return h @ self.params["W2"].T + self.params["b2"], h

    def freeze(self) -> "Extractor":
        self.frozen = True
        return self

    def snapshot(self) -> bytes:
        """Bitwise-comparable serialization of all parameters."""
        parts = []
        for name in sorted(self.params):
            parts.append(name.encode())
            parts.append(self.params[name].tobytes())
        return b"|".join(parts)


def init(spec: ExtractorSpec) -> Extractor:
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 2]))
    params: dict[str, np.ndarray] = {}
    if spec.kind == "linear":
        params["W"] = rng.normal(0.0, INIT_STD, size=(spec.feature_dim, spec.input_dim))
        params["b"] = np.zeros(spec.feature_dim)
    elif spec.kind == "mlp1":
        params["W1"] = rng.normal(0.0, INIT_STD, size=(spec.hidden_dim, spec.input_dim))
        params["b1"] = np.zeros(spec.hidden_dim)
        params["W2"] = rng.normal(0.0, INIT_STD, size=(spec.feature_dim, spec.hidden_dim))
        params["b2"] = np.zeros(spec.feature_dim)
    return Extractor(spec, params)


def _ce_forward_backward(ext: Extractor, head: clf_mod.IncrementalClassifier,
                         x: np.ndarray, y: np.ndarray):
    """Joint cross-entropy value plus gradients for head and extractor params."""
    n = x.shape[0]
    kind = ext.spec.kind
    feats, h = ext._forward(x)
    nll, d = _softmax_ce(feats @ head.W.T + head.b, y)
    value = float(nll / n)
    d /= n

    head_grads = {"W": d.T @ feats, "b": d.sum(axis=0)}
    ext_grads: dict[str, np.ndarray] = {}
    if kind != "identity":
        dfeat = d @ head.W
        if kind == "linear":
            ext_grads["W"] = dfeat.T @ x
            ext_grads["b"] = dfeat.sum(axis=0)
        else:
            ext_grads["W2"] = dfeat.T @ h
            ext_grads["b2"] = dfeat.sum(axis=0)
            dh = (dfeat @ ext.params["W2"]) * (h > 0)  # h > 0 exactly where the ReLU passed
            ext_grads["W1"] = dh.T @ x
            ext_grads["b1"] = dh.sum(axis=0)
    return value, head_grads, ext_grads


def train_task0(ext: Extractor, data, head: clf_mod.IncrementalClassifier, cfg):
    """Jointly train backbone and head with plain cross-entropy via Adam.

    `data` is a TaskDataset whose train labels must already be row indices
    of `head`. Mini-batch order is reseeded per epoch from the config seed.
    Raises InvalidStateError as soon as a step's loss is non-finite.
    """
    from .dataio import batches  # local import to avoid a module cycle

    if ext.frozen:
        raise InvalidStateError("extractor is frozen; task-0 training is not allowed")
    x_all = np.asarray(data.train_features, dtype=np.float64)
    y_all = np.asarray(data.train_labels, dtype=np.int64)
    if y_all.max() >= head.n_classes:
        raise InvalidStateError("task-0 labels exceed the classifier's class count")

    # one optimizer over both parameter sets; prefixes keep the names apart
    params = {"head." + k: p for k, p in head.params.items()}
    params.update({"backbone." + k: p for k, p in ext.params.items()})
    adam = clf_mod.new_adam_state(params, lr=cfg.lr)
    for epoch in range(cfg.epochs_task0):
        for step, idx in enumerate(batches(data, cfg.batch_size, cfg.seed, epoch)):
            value, head_grads, ext_grads = _ce_forward_backward(ext, head, x_all[idx], y_all[idx])
            if not math.isfinite(value):
                raise InvalidStateError(
                    f"task {data.task_index} diverged: loss {value} at epoch {epoch}, step {step}")
            grads = {"head." + k: g for k, g in head_grads.items()}
            grads.update({"backbone." + k: g for k, g in ext_grads.items()})
            adam.update(params, grads)
    return ext, head
