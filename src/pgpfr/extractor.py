"""Pluggable feature backbone: a stack of float32 affine layers, a ReLU between.

`identity` has no layer, `linear` one and `mlp1` two (`ExtractorSpec.widths`).
The backbone is trainable only during the first task; afterwards it is frozen
and every later task sees the exact same feature space. That stability is
what keeps stored class statistics valid across tasks.

Its parameters `W1, b1, W2, b2, ...`, their task-0 gradients and Adam moments
and its forward pass are float32. Each weight is stored input-major, (in,
out), so layer i computes `x @ W_i + b_i`, which reads no weight transposed,
and its weight gradient is `x.T @ d`. Task-0 training rounds each mini-batch
to float32, and `Extractor.embed_batch` embeds one block of EMBED_ROWS rows
at a time in float32 into one preallocated float64 output; with no layer a
block is its rows rounded to float32, so the head trains and is evaluated on
the same features. Everything after the backbone (the head, the losses, the
prototype store) is float64. The float32 range ends at 3.4e38: a task-0 step
that leaves it gives a non-finite loss, and training stops as diverged.
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

    @property
    def widths(self) -> tuple[int, ...]:
        """Layer widths, input first: layer i maps widths[i - 1] to widths[i]."""
        return {"identity": (),
                "linear": (self.input_dim, self.feature_dim),
                "mlp1": (self.input_dim, self.hidden_dim, self.feature_dim)}[self.kind]


@dataclass
class Extractor:
    spec: ExtractorSpec
    params: dict[str, np.ndarray] = field(default_factory=dict)
    frozen: bool = False

    def embed_batch(self, x) -> np.ndarray:
        """Float64 features of the (N, input_dim) batch x, bitwise equal to
        one `_forward` over all of x in float32. The float32 forward pass
        runs per row block (see EMBED_ROWS), so only one block is converted
        at a time; with no layer a block's features are its rows rounded to
        float32, as task-0 training sees them. A diverged backbone gives
        non-finite features without a numpy warning; callers check them."""
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise InvalidArgumentError(
                f"input must be (N, {self.spec.input_dim}), got {x.shape}")
        n = x.shape[0]
        out = np.empty((n, self.spec.feature_dim))
        bounds = [i * EMBED_ROWS for i in range(max(1, n // EMBED_ROWS))] + [n]
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                out[lo:hi] = self._forward(np.asarray(x[lo:hi], dtype=np.float32))[0]
        return out

    def _forward(self, x: np.ndarray):
        """Features of the (N, input_dim) batch x, plus each layer's input,
        which the backward pass reads. With no layer the features are x."""
        inputs = []
        for i in range(1, len(self.spec.widths)):
            if i > 1:
                np.maximum(x, 0.0, out=x)
            inputs.append(x)
            x = x @ self.params[f"W{i}"]   # in place from here: one array per layer
            x += self.params[f"b{i}"]
        return x, inputs

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

    layers = list(zip(spec.widths[:-1], spec.widths[1:]))
    check_addressable(*[(n_out, n_in) for n_in, n_out in layers])
    params: dict[str, np.ndarray] = {}
    for i, (n_in, n_out) in enumerate(layers, 1):
        params[f"W{i}"] = weight(n_in, n_out)
        params[f"b{i}"] = np.zeros(n_out, dtype=np.float32)
    return Extractor(spec, params)


def _ce_forward_backward(ext: Extractor, head: clf_mod.IncrementalClassifier,
                         x: np.ndarray, y: np.ndarray):
    """Joint cross-entropy value plus gradients for head and extractor params.
    The logits and the head's gradients are float64; the gradient reaching
    the backbone is rounded to float32, so a float32 batch gives float32
    backbone gradients."""
    n = x.shape[0]
    feats, inputs = ext._forward(x)
    nll, d = _softmax_ce(feats @ head.W.T + head.b, y)
    value = float(nll / n)
    d /= n

    head_grads = {"W": d.T @ feats, "b": d.sum(axis=0)}
    ext_grads: dict[str, np.ndarray] = {}
    g = (d @ head.W).astype(np.float32) if inputs else None  # at the last layer's output
    for i in range(len(inputs), 0, -1):
        a = inputs[i - 1]
        ext_grads[f"W{i}"] = a.T @ g
        ext_grads[f"b{i}"] = g.sum(axis=0)
        if i > 1:
            g = (g @ ext.params[f"W{i}"].T) * (a > 0)  # a > 0 exactly where the ReLU passed
    return value, head_grads, ext_grads


def train_task0(ext: Extractor, data, head: clf_mod.IncrementalClassifier, cfg) -> None:
    """Jointly train backbone and head with plain cross-entropy via Adam.

    `data` is a TaskDataset whose train labels must already be row indices
    of `head`. Mini-batch order is reseeded per epoch from the config seed.
    Each batch enters the backbone in float32, and Adam's moments take each
    parameter's dtype. Raises InvalidStateError as soon as a step's loss is
    non-finite.
    """
    # looked up at call time, so a hook on pgpfr.dataio.batches (such as the
    # benchmark's, perfbench/spans.py) sees task 0's batches too
    from .dataio import batches

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
