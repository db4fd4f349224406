import numpy as np
import pytest

from pgpfr.classifier import new_classifier
from pgpfr.dataio import TaskDataset
from pgpfr.engine import TrainConfig
from pgpfr.errors import InvalidArgumentError, InvalidStateError
from pgpfr.extractor import (Extractor, ExtractorSpec, _ce_forward_backward,
                             init, train_task0)


def make_task(rng, n_classes=2, dim=4, per_class=40, sep=8.0):
    means = rng.normal(size=(n_classes, dim))
    means = means / np.linalg.norm(means, axis=1, keepdims=True) * sep
    feats, labels = [], []
    for c in range(n_classes):
        feats.append(means[c] + rng.normal(size=(per_class, dim)))
        labels.append(np.full(per_class, c))
    feats, labels = np.vstack(feats), np.concatenate(labels)
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


class TestEmbed:
    def test_identity_passthrough(self):
        e = init(ExtractorSpec("identity", 3, 3))
        assert np.allclose(e.embed_batch([[1, 2, 3]]), [[1, 2, 3]])

    def test_linear_identity_params(self):
        e = init(ExtractorSpec("linear", 3, 3))
        e.params["W"] = np.eye(3)
        e.params["b"] = np.zeros(3)
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

    def test_divergence_names_task_epoch_and_step(self, rng):
        e = init(ExtractorSpec("linear", 4, 4, seed=3))
        head = new_classifier(4, 2, seed=0)
        cfg = TrainConfig(epochs_task0=2, batch_size=16, lr=1e300, seed=0)
        with np.errstate(all="ignore"), \
                pytest.raises(InvalidStateError, match=r"task 0 .*epoch 0, step \d"):
            train_task0(e, make_task(rng), head, cfg)

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
        e = init(ExtractorSpec("mlp1", 4, 3, hidden_dim=6, seed=5))
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
