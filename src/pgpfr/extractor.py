"""Pluggable feature backbone: identity, linear, or one-hidden-layer MLP.

The backbone is trainable only during the first task; afterwards it is
frozen and every later task sees the exact same feature space. That
stability is what keeps stored class statistics valid across tasks.

The `linear` and `mlp1` backbones are float32 end to end: their parameters,
their task-0 gradients and Adam moments, and their forward pass. Their weights
are stored input-major, (in, out), so the forward pass is `x @ W`, which reads
no weight transposed, and the weight gradient is `x.T @ d`. Task-0 training
rounds each mini-batch to float32 (a float32 batch as it comes), and
`Extractor.embed_batch` embeds one block of EMBED_ROWS rows at a time in
float32 into one preallocated float64 output; `identity` rounds its input to
float32 the same way and returns it as float64, so the head trains and is
evaluated on the same features. Everything after the backbone (the head, the
losses, the prototype store) is float64. The float32 backbone's range ends at
3.4e38: a task-0 step that leaves it gives a non-finite loss, and training
stops as diverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import classifier as clf_mod
from .errors import InvalidArgumentError, InvalidStateError
from .losses import _softmax_ce
from .numerics import check_addressable

KINDS = ("identity", "linear", "mlp1")
INIT_STD = 0.01
# rows per forward block of embed_batch. The last block takes the tail, so
# no block is shorter than this: BLAS may round a product of a few rows
# differently from the same rows inside a taller one.
EMBED_ROWS = 256


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
        if self.kind != "mlp1" and self.hidden_dim != 0:
            raise InvalidArgumentError(
                f"hidden_dim is for mlp1 only; {self.kind} takes none, got {self.hidden_dim}")
        if self.seed < 0:
            raise InvalidArgumentError(f"extractor seed must be >= 0, got {self.seed}")


@dataclass
class Extractor:
    spec: ExtractorSpec
    params: dict[str, np.ndarray] = field(default_factory=dict)
    frozen: bool = False

    def embed_batch(self, x) -> np.ndarray:
        """Float64 features of the (N, input_dim) batch x, bitwise equal to
        one `_forward` over all of x in float32. The identity backbone
        rounds x to float32, as task-0 training does, and makes one float64
        copy of that; the others run their float32 forward pass per row
        block (see EMBED_ROWS), so only one block is converted at a time. A
        diverged backbone gives non-finite features without a numpy warning;
        callers check them."""
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise InvalidArgumentError(
                f"input must be (N, {self.spec.input_dim}), got {x.shape}")
        if self.spec.kind == "identity":
            return np.asarray(x, dtype=np.float32).astype(np.float64)
        n = x.shape[0]
        out = np.empty((n, self.spec.feature_dim))
        bounds = [i * EMBED_ROWS for i in range(max(1, n // EMBED_ROWS))] + [n]
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                out[lo:hi] = self._forward(np.asarray(x[lo:hi], dtype=np.float32))[0]
        return out

    def _forward(self, x: np.ndarray):
        """Features of the (N, input_dim) batch x, plus the hidden activation
        the backward pass needs (mlp1; None for the other kinds)."""
        if self.spec.kind == "identity":
            return x.copy(), None
        if self.spec.kind == "linear":
            return x @ self.params["W"] + self.params["b"], None
        h = x @ self.params["W1"]   # in place from here: no second (N, hidden) array
        h += self.params["b1"]
        np.maximum(h, 0.0, out=h)
        return h @ self.params["W2"] + self.params["b2"], h

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
    """A backbone with float32 parameters: weights drawn in float64 from the
    spec's seed and rounded, biases zero. Each weight is stored input-major,
    (in, out), so the forward pass multiplies by it untransposed; it is drawn
    as (out, in) and transposed once, so each layer's values do not depend
    on the layout."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 2]))

    def weight(n_in: int, n_out: int) -> np.ndarray:
        w = rng.normal(0.0, INIT_STD, size=(n_out, n_in)).astype(np.float32)
        return np.ascontiguousarray(w.T)

    params: dict[str, np.ndarray] = {}
    if spec.kind == "linear":
        check_addressable((spec.feature_dim, spec.input_dim))
        params["W"] = weight(spec.input_dim, spec.feature_dim)
        params["b"] = np.zeros(spec.feature_dim, dtype=np.float32)
    elif spec.kind == "mlp1":
        check_addressable((spec.hidden_dim, spec.input_dim), (spec.feature_dim, spec.hidden_dim))
        params["W1"] = weight(spec.input_dim, spec.hidden_dim)
        params["b1"] = np.zeros(spec.hidden_dim, dtype=np.float32)
        params["W2"] = weight(spec.hidden_dim, spec.feature_dim)
        params["b2"] = np.zeros(spec.feature_dim, dtype=np.float32)
    return Extractor(spec, params)


def _ce_forward_backward(ext: Extractor, head: clf_mod.IncrementalClassifier,
                         x: np.ndarray, y: np.ndarray):
    """Joint cross-entropy value plus gradients for head and extractor params.
    The logits and the head's gradients are float64; the gradient reaching
    the backbone is rounded to float32, so a float32 batch gives float32
    backbone gradients."""
    n = x.shape[0]
    kind = ext.spec.kind
    feats, h = ext._forward(x)
    nll, d = _softmax_ce(feats @ head.W.T + head.b, y)
    value = float(nll / n)
    d /= n

    head_grads = {"W": d.T @ feats, "b": d.sum(axis=0)}
    ext_grads: dict[str, np.ndarray] = {}
    if kind != "identity":
        dfeat = (d @ head.W).astype(np.float32)
        if kind == "linear":
            ext_grads["W"] = x.T @ dfeat
            ext_grads["b"] = dfeat.sum(axis=0)
        else:
            ext_grads["W2"] = h.T @ dfeat
            ext_grads["b2"] = dfeat.sum(axis=0)
            dh = (dfeat @ ext.params["W2"].T) * (h > 0)  # h > 0 exactly where the ReLU passed
            ext_grads["W1"] = x.T @ dh
            ext_grads["b1"] = dh.sum(axis=0)
    return value, head_grads, ext_grads


def train_task0(ext: Extractor, data, head: clf_mod.IncrementalClassifier, cfg) -> None:
    """Jointly train backbone and head with plain cross-entropy via Adam.

    `data` is a TaskDataset whose train labels must already be row indices
    of `head`. Mini-batch order is reseeded per epoch from the config seed.
    Each batch enters the backbone in float32, and Adam's moments take each
    parameter's dtype. Raises InvalidStateError as soon as a step's loss is
    non-finite.
    """
    from .dataio import batches  # local import to avoid a module cycle

    if ext.frozen:
        raise InvalidStateError("extractor is frozen; task-0 training is not allowed")
    x_all = np.asarray(data.train_features)
    y_all = np.asarray(data.train_labels, dtype=np.int64)
    if y_all.min() < 0:
        raise InvalidArgumentError(f"task-0 label {y_all.min()} is negative")
    if y_all.max() >= head.n_classes:
        raise InvalidStateError("task-0 labels exceed the classifier's class count")

    # one optimizer over both parameter sets; prefixes keep the names apart
    params = {"head." + k: p for k, p in head.params.items()}
    params.update({"backbone." + k: p for k, p in ext.params.items()})
    adam = clf_mod.new_adam_state(params, lr=cfg.lr)
    for epoch in range(cfg.epochs_task0):
        for step, idx in enumerate(batches(data, cfg.batch_size, cfg.seed, epoch)):
            x = np.asarray(x_all[idx], dtype=np.float32)
            value, head_grads, ext_grads = _ce_forward_backward(ext, head, x, y_all[idx])
            if not math.isfinite(value):
                raise InvalidStateError(
                    f"task {data.task_index} diverged: loss {value} at epoch {epoch}, step {step}")
            grads = {"head." + k: g for k, g in head_grads.items()}
            grads.update({"backbone." + k: g for k, g in ext_grads.items()})
            adam.update(params, grads)
