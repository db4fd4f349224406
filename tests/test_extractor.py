import numpy as np
import pytest

from conftest import ReferenceAdam
from pgpfr import classifier as clf_mod
from pgpfr.classifier import new_adam_state, new_classifier
from pgpfr.dataio import TaskDataset, batches
from pgpfr.engine import TrainConfig
from pgpfr.errors import InvalidArgumentError, InvalidStateError
from pgpfr.extractor import (EMBED_ROWS, INIT_STD, Extractor, ExtractorSpec,
                             _ce_forward_backward, init, train_task0)


def make_task(rng, n_classes=2, dim=4, per_class=40, sep=8.0):
    """A task-0 split with float32 features, as `dataio` stores them."""
    means = rng.normal(size=(n_classes, dim))
    means = means / np.linalg.norm(means, axis=1, keepdims=True) * sep
    feats, labels = [], []
    for c in range(n_classes):
        feats.append(means[c] + rng.normal(size=(per_class, dim)))
        labels.append(np.full(per_class, c))
    feats, labels = np.vstack(feats).astype(np.float32), np.concatenate(labels)
    return TaskDataset(0, tuple(range(n_classes)), feats, labels, feats, labels)


class TestInit:
    def test_identity_has_no_parameters(self):
        e = init(ExtractorSpec("identity", 8, 8))
        assert e.params == {} and not e.frozen

    def test_same_seed_bitwise_identical(self):
        a = init(ExtractorSpec("mlp1", 4, 3, hidden_dim=5, seed=9))
        b = init(ExtractorSpec("mlp1", 4, 3, hidden_dim=5, seed=9))
        assert a.snapshot() == b.snapshot()

    def test_invalid_specs(self):
        with pytest.raises(InvalidArgumentError):
            ExtractorSpec("identity", 4, 5)
        with pytest.raises(InvalidArgumentError):
            ExtractorSpec("mlp1", 4, 4, hidden_dim=0)
        with pytest.raises(InvalidArgumentError):
            ExtractorSpec("conv", 4, 4)
        with pytest.raises(InvalidArgumentError, match="extractor seed must be >= 0"):
            ExtractorSpec("mlp1", 4, 3, hidden_dim=5, seed=-1)
        for kind, feature_dim in (("identity", 4), ("linear", 3)):
            with pytest.raises(InvalidArgumentError, match="hidden_dim is for mlp1 only"):
                ExtractorSpec(kind, 4, feature_dim, hidden_dim=8)


class TestEmbed:
    def test_identity_passthrough(self):
        e = init(ExtractorSpec("identity", 3, 3))
        assert np.allclose(e.embed_batch([[1, 2, 3]]), [[1, 2, 3]])

    def test_identity_rounds_through_float32(self, rng):
        """identity features are the float32 rows task-0 training sees, as
        float64: a float64 batch is rounded, not passed through."""
        x = rng.normal(size=(6, 3))
        assert not np.array_equal(x.astype(np.float32), x)
        got = init(ExtractorSpec("identity", 3, 3)).embed_batch(x)
        assert got.dtype == np.float64
        assert np.array_equal(got, x.astype(np.float32).astype(np.float64))

    def test_linear_identity_params(self):
        e = init(ExtractorSpec("linear", 3, 3))
        e.params["W1"] = np.eye(3, dtype=np.float32)
        e.params["b1"] = np.zeros(3, dtype=np.float32)
        x = np.array([[0.5, -2.0, 7.0]])
        assert np.allclose(e.embed_batch(x), x)

    def test_frozen_mlp_deterministic(self, rng):
        e = init(ExtractorSpec("mlp1", 4, 3, hidden_dim=6, seed=1)).freeze()
        x = rng.normal(size=(5, 4))
        assert np.array_equal(e.embed_batch(x), e.embed_batch(x))

    def test_dim_mismatch(self):
        e = init(ExtractorSpec("identity", 3, 3))
        with pytest.raises(InvalidArgumentError):
            e.embed_batch([[1, 2]])

    def test_identity_returns_a_float64_copy(self, rng):
        e = init(ExtractorSpec("identity", 4, 4))
        x = rng.normal(size=(6, 4)).astype(np.float32)
        out = e.embed_batch(x)
        assert out.dtype == np.float64 and np.array_equal(out, x)
        out[0, 0] = 99.0
        assert x[0, 0] != 99.0


class TestEmbedRowBlocks:
    """embed_batch runs its forward pass per row block; the result must be
    the one-shot forward pass over all rows, bit for bit."""

    @pytest.mark.parametrize("kind", ["identity", "linear", "mlp1"])
    @pytest.mark.parametrize("n", [1, EMBED_ROWS - 1, EMBED_ROWS, 2 * EMBED_ROWS - 1,
                                   2 * EMBED_ROWS, 2 * EMBED_ROWS + 1])
    def test_bitwise_equal_to_one_shot_forward(self, rng, kind, n):
        feature_dim = 48 if kind == "identity" else 16
        e = init(ExtractorSpec(kind, 48, feature_dim, hidden_dim=64 if kind == "mlp1" else 0,
                               seed=3))
        for name, p in e.params.items():   # a trained-looking backbone: most ReLUs pass
            p[...] = rng.normal(size=p.shape) * (0.1 if name.startswith("W") else 1.0)
        x = rng.normal(size=(n, 48)).astype(np.float32)
        got = e.embed_batch(x)
        assert got.dtype == np.float64 and got.shape == (n, feature_dim)
        assert got.tobytes() == e._forward(x)[0].astype(np.float64).tobytes()

    def test_empty_batch(self):
        e = init(ExtractorSpec("mlp1", 4, 3, hidden_dim=5))
        assert e.embed_batch(np.empty((0, 4), dtype=np.float32)).shape == (0, 3)


class TestFreeze:
    def test_freeze_sets_flag(self):
        assert init(ExtractorSpec("identity", 2, 2)).freeze().frozen

    def test_train_after_freeze_rejected(self, rng):
        e = init(ExtractorSpec("identity", 4, 4)).freeze()
        head = new_classifier(4, 2, seed=0)
        cfg = TrainConfig(epochs_task0=1, batch_size=8, seed=0)
        with pytest.raises(InvalidStateError):
            train_task0(e, make_task(rng), head, cfg)

    def test_embed_unchanged_by_freeze(self, rng):
        e = init(ExtractorSpec("mlp1", 4, 3, hidden_dim=5, seed=2))
        x = rng.normal(size=(5, 4))
        before = e.embed_batch(x)
        assert np.array_equal(before, e.freeze().embed_batch(x))

    def test_snapshot_stable_after_freeze(self, rng):
        e = init(ExtractorSpec("mlp1", 4, 3, hidden_dim=5, seed=2)).freeze()
        snap = e.snapshot()
        e.embed_batch(rng.normal(size=(10, 4)))
        assert e.snapshot() == snap


class TestTrainTask0:
    def test_identity_only_head_changes(self, rng):
        e = init(ExtractorSpec("identity", 4, 4))
        head = new_classifier(4, 2, seed=0)
        before = head.W.copy()
        train_task0(e, make_task(rng), head, TrainConfig(epochs_task0=2, batch_size=16, seed=0))
        assert e.params == {}
        assert not np.array_equal(head.W, before)

    def test_zero_epochs_no_op(self, rng):
        e = init(ExtractorSpec("mlp1", 4, 3, hidden_dim=5, seed=3))
        head = new_classifier(3, 2, seed=0)
        snap = e.snapshot()
        w = head.W.copy()
        train_task0(e, make_task(rng), head, TrainConfig(epochs_task0=0, batch_size=16, seed=0))
        assert e.snapshot() == snap and np.array_equal(head.W, w)

    def test_negative_label_rejected(self, rng):
        # a label of -1 would otherwise train the head's last row
        task = make_task(rng)
        task.train_labels[0] = -1
        head = new_classifier(4, 2, seed=0)
        with pytest.raises(InvalidArgumentError, match="task-0 label -1 is negative"):
            train_task0(init(ExtractorSpec("identity", 4, 4)), task, head,
                        TrainConfig(epochs_task0=1, batch_size=16, seed=0))

    def test_divergence_names_task_epoch_and_step(self, rng):
        e = init(ExtractorSpec("linear", 4, 4, seed=3))
        head = new_classifier(4, 2, seed=0)
        cfg = TrainConfig(epochs_task0=2, batch_size=16, lr=1e300, seed=0)
        with np.errstate(all="ignore"), \
                pytest.raises(InvalidStateError, match=r"task 0 .*epoch 0, step \d"):
            train_task0(e, make_task(rng), head, cfg)

    @staticmethod
    def _loop(spec, task, cfg, adam_for):
        """A backbone and head trained by a plain loop over train_task0's
        float32 batches, joint gradients and one optimizer from adam_for."""
        e, head = init(spec), new_classifier(spec.feature_dim, 3, seed=0)
        params = {"head." + k: p for k, p in head.params.items()}
        params.update({"backbone." + k: p for k, p in e.params.items()})
        adam = adam_for(params)
        for epoch in range(cfg.epochs_task0):
            for idx in batches(task, cfg.batch_size, cfg.seed, epoch):
                _, head_grads, ext_grads = _ce_forward_backward(
                    e, head, task.train_features[idx], task.train_labels[idx])
                grads = {"head." + k: g for k, g in head_grads.items()}
                grads.update({"backbone." + k: g for k, g in ext_grads.items()})
                adam.update(params, grads)
        return e, head, adam

    def test_matches_loop_with_textbook_adam(self, rng):
        # train_task0's folded Adam against the bias-corrected reference over
        # the same gradients and batch order, on the identity backbone, whose
        # whole path after the float32 input is float64
        task = make_task(rng, n_classes=3, dim=4, per_class=20)
        cfg = TrainConfig(epochs_task0=4, batch_size=16, lr=0.01, seed=1)
        spec = ExtractorSpec("identity", 4, 4)
        e, head = init(spec), new_classifier(4, 3, seed=0)
        train_task0(e, task, head, cfg)

        _, ref_head, adam = self._loop(spec, task, cfg, lambda p: ReferenceAdam(p, cfg.lr))
        assert adam.t == 4 * 4
        assert head.W.dtype == head.b.dtype == np.float64
        np.testing.assert_allclose(head.W, ref_head.W, rtol=1e-10)
        np.testing.assert_allclose(head.b, ref_head.b, rtol=1e-10)

    def test_mlp1_bitwise_equal_to_loop_of_its_steps(self, rng):
        # the float32 backbone: train_task0 is exactly a loop of joint
        # gradients on its float32 batches plus the library's Adam
        task = make_task(rng, n_classes=3, dim=4, per_class=20)
        cfg = TrainConfig(epochs_task0=4, batch_size=16, lr=0.01, seed=1)
        spec = ExtractorSpec("mlp1", 4, 3, hidden_dim=5, seed=2)
        e, head = init(spec), new_classifier(3, 3, seed=0)
        train_task0(e, task, head, cfg)

        ref_e, ref_head, adam = self._loop(
            spec, task, cfg, lambda p: new_adam_state(p, lr=cfg.lr))
        assert adam.step_count == 4 * 4
        assert e.snapshot() == ref_e.snapshot() != init(spec).snapshot()
        assert head.W.tobytes() == ref_head.W.tobytes()
        assert head.b.tobytes() == ref_head.b.tobytes()

    def test_separable_classes_learned(self, rng):
        # two Gaussian classes far apart are closed-form separable; the
        # trained pair should get nearly all of the train split right
        task = make_task(rng, n_classes=2, dim=4, per_class=60, sep=8.0)
        e = init(ExtractorSpec("mlp1", 4, 4, hidden_dim=16, seed=0))
        head = new_classifier(4, 2, seed=0)
        cfg = TrainConfig(epochs_task0=50, batch_size=32, seed=0)
        train_task0(e, task, head, cfg)
        from pgpfr.classifier import predict
        preds = predict(head, e.embed_batch(task.train_features))
        assert (preds == task.train_labels).mean() >= 0.95

    def test_joint_gradients_match_finite_differences(self, rng):
        self._check_joint_gradients(rng, "mlp1")

    def test_linear_joint_gradients_match_finite_differences(self, rng):
        self._check_joint_gradients(rng, "linear")

    @staticmethod
    def _check_joint_gradients(rng, kind):
        e = init(ExtractorSpec(kind, 4, 3, hidden_dim=6 if kind == "mlp1" else 0, seed=5))
        head = new_classifier(3, 3, seed=1)
        head.W[:] = rng.normal(size=(3, 3)) * 0.5
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)
        _, _, ext_grads = _ce_forward_backward(e, head, x, y)
        h = 1e-5
        for name, g in ext_grads.items():
            p = e.params[name]
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                up, _, _ = _ce_forward_backward(e, head, x, y)
                p[idx] = orig - h
                down, _, _ = _ce_forward_backward(e, head, x, y)
                p[idx] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(g[idx]), 1e-6)
                assert abs(g[idx] - fd) / denom < 1e-4, f"{name}{idx}"


class TestDtypes:
    """linear and mlp1 are float32 end to end; the head and every feature
    after embedding are float64."""

    @pytest.mark.parametrize("kind, names", [("linear", ["W1", "b1"]),
                                             ("mlp1", ["W1", "W2", "b1", "b2"])])
    def test_init_parameters_are_float32(self, kind, names):
        e = init(ExtractorSpec(kind, 4, 3, hidden_dim=5 if kind == "mlp1" else 0, seed=1))
        assert sorted(e.params) == names
        assert all(p.dtype == np.float32 for p in e.params.values())

    @pytest.mark.parametrize("kind, shapes", [("linear", {"W1": (4, 3)}),
                                              ("mlp1", {"W1": (4, 5), "W2": (5, 3)})])
    def test_weights_are_input_major(self, kind, shapes):
        """Each weight is (in, out) and C-contiguous, the transpose of the
        (out, in) draw from the spec's seed."""
        e = init(ExtractorSpec(kind, 4, 3, hidden_dim=5 if kind == "mlp1" else 0, seed=1))
        rng = np.random.default_rng(np.random.SeedSequence([1, 2]))
        for name, (n_in, n_out) in shapes.items():
            w = e.params[name]
            drawn = rng.normal(0.0, INIT_STD, size=(n_out, n_in)).astype(np.float32)
            assert w.shape == (n_in, n_out) and w.flags.c_contiguous
            assert np.array_equal(w, drawn.T)

    @pytest.mark.parametrize("kind", ["linear", "mlp1"])
    def test_backbone_gradients_float32_head_gradients_float64(self, rng, kind):
        e = init(ExtractorSpec(kind, 4, 3, hidden_dim=5 if kind == "mlp1" else 0, seed=1))
        head = new_classifier(3, 3, seed=0)
        x = rng.normal(size=(8, 4)).astype(np.float32)
        value, head_grads, ext_grads = _ce_forward_backward(e, head, x, rng.integers(0, 3, 8))
        assert isinstance(value, float)
        assert {k: g.dtype for k, g in head_grads.items()} == {"W": np.float64, "b": np.float64}
        assert sorted(ext_grads) == sorted(e.params)
        assert all(g.dtype == np.float32 for g in ext_grads.values())

    def test_adam_backbone_moments_are_float32(self, rng, monkeypatch):
        states = []

        def recorded(params, lr=0.001):
            states.append(new_adam_state(params, lr))
            return states[-1]

        monkeypatch.setattr(clf_mod, "new_adam_state", recorded)
        e = init(ExtractorSpec("mlp1", 4, 3, hidden_dim=5, seed=2))
        train_task0(e, make_task(rng, dim=4), new_classifier(3, 2, seed=0),
                    TrainConfig(epochs_task0=1, batch_size=16, seed=0))
        (state,) = states
        assert state.step_count == 5
        for moments in (state.m, state.v):
            assert {k: a.dtype for k, a in moments.items()} == {
                "head.W": np.float64, "head.b": np.float64,
                "backbone.W1": np.float32, "backbone.b1": np.float32,
                "backbone.W2": np.float32, "backbone.b2": np.float32}
        assert all(p.dtype == np.float32 for p in e.params.values())

    @pytest.mark.parametrize("kind", ["identity", "linear", "mlp1"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_embed_batch_returns_float64(self, rng, kind, dtype):
        feature_dim = 4 if kind == "identity" else 3
        e = init(ExtractorSpec(kind, 4, feature_dim, hidden_dim=5 if kind == "mlp1" else 0))
        out = e.embed_batch(rng.normal(size=(7, 4)).astype(dtype))
        assert out.dtype == np.float64 and out.shape == (7, feature_dim)
