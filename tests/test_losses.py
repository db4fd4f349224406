import math

import numpy as np
import pytest

from pgpfr.classifier import adam_step, new_adam_state, new_classifier
from pgpfr.errors import InvalidArgumentError, InvalidStateError
from pgpfr.losses import (LossConfig, LossValueGrad, proto_loss,
                          replay_ce_loss, tce_loss, total_loss, vpr_loss)
from pgpfr.replay import MergedBatch
from conftest import (fd_gradients, max_rel_error, random_store,
                      scalar_replay_ce, scalar_vpr)


def make_batch(rng, n_pseudo, n_real, dim, n_old, n_classes):
    feats = rng.normal(size=(n_pseudo + n_real, dim))
    labels = np.concatenate([
        rng.integers(0, n_old, size=n_pseudo),
        rng.integers(0, n_classes, size=n_real)])
    mask = np.concatenate([np.ones(n_pseudo, bool), np.zeros(n_real, bool)])
    return MergedBatch(feats, labels, mask)


def make_clf(rng, dim, n_classes):
    clf = new_classifier(dim, n_classes, seed=0)
    clf.W[:] = rng.normal(size=(n_classes, dim))
    clf.b[:] = rng.normal(size=n_classes)
    return clf


class TestReplayCE:
    def test_uniform_real_row(self):
        clf = new_classifier(2, 2, seed=0)
        clf.W[:] = 0
        batch = MergedBatch(np.array([[1.0, 1.0]]), np.array([0]), np.array([False]))
        out = replay_ce_loss(batch, clf, 0, LossConfig())
        assert out.value == pytest.approx(math.log(2))

    def test_single_old_class_pseudo_term_zero(self, rng):
        clf = make_clf(rng, 3, 4)
        batch = MergedBatch(rng.normal(size=(1, 3)), np.array([0]), np.array([True]))
        out = replay_ce_loss(batch, clf, 1, LossConfig())
        assert out.value == pytest.approx(0.0, abs=1e-15)

    def test_matches_scalar_reference(self, rng):
        cfg = LossConfig(temperature_R=0.3)
        for _ in range(5):
            clf = make_clf(rng, 4, 5)
            batch = make_batch(rng, 3, 4, 4, n_old=3, n_classes=5)
            out = replay_ce_loss(batch, clf, 3, cfg)
            want = scalar_replay_ce(batch, clf.W, clf.b, 3, 0.3)
            assert out.value == pytest.approx(want, rel=1e-12)

    def test_sharpening_disabled_uses_unit_temperature(self, rng):
        clf = make_clf(rng, 3, 4)
        batch = make_batch(rng, 2, 2, 3, n_old=2, n_classes=4)
        off = replay_ce_loss(batch, clf, 2, LossConfig(temperature_R=0.3, enable_sharpening=False))
        want = scalar_replay_ce(batch, clf.W, clf.b, 2, 1.0)
        assert off.value == pytest.approx(want, rel=1e-12)

    def test_row_permutation_invariance(self, rng):
        clf = make_clf(rng, 3, 4)
        batch = make_batch(rng, 3, 3, 3, n_old=2, n_classes=4)
        perm = rng.permutation(6)
        shuffled = MergedBatch(batch.features[perm], batch.labels[perm],
                               batch.pseudo_mask[perm])
        a = replay_ce_loss(batch, clf, 2, LossConfig())
        b = replay_ce_loss(shuffled, clf, 2, LossConfig())
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_pseudo_label_out_of_range(self, rng):
        clf = make_clf(rng, 3, 4)
        batch = MergedBatch(rng.normal(size=(1, 3)), np.array([3]), np.array([True]))
        with pytest.raises(InvalidArgumentError):
            replay_ce_loss(batch, clf, 2, LossConfig())

    def test_gradient_fd(self, rng):
        cfg = LossConfig(temperature_R=0.3)
        for _ in range(5):
            clf = make_clf(rng, 4, 4)
            batch = make_batch(rng, 3, 3, 4, n_old=2, n_classes=4)
            out = replay_ce_loss(batch, clf, 2, cfg)
            fw, fb = fd_gradients(lambda c: replay_ce_loss(batch, c, 2, cfg), clf)
            assert max_rel_error(out, fw, fb) < 1e-4


class TestProtoLoss:
    def test_single_class_zero(self, rng):
        store = random_store(rng, 1, 3)
        clf = make_clf(rng, 3, 2)
        assert proto_loss(store, clf).value == pytest.approx(0.0, abs=1e-15)

    def test_identical_rows_ln_n(self, rng):
        store = random_store(rng, 4, 3)
        clf = make_clf(rng, 3, 5)
        clf.W[:4] = clf.W[0]
        clf.b[:4] = clf.b[0]
        assert proto_loss(store, clf).value == pytest.approx(math.log(4))

    def test_matches_scalar_reference(self, rng):
        store = random_store(rng, 2, 3)
        clf = make_clf(rng, 3, 4)
        want = scalar_vpr(store, clf.W, clf.b, gamma=0.0)
        assert proto_loss(store, clf).value == pytest.approx(want, rel=1e-12)

    def test_empty_store(self, rng):
        from pgpfr.prototypes import PrototypeStore
        with pytest.raises(InvalidStateError):
            proto_loss(PrototypeStore(), make_clf(rng, 3, 2))

    def test_gradient_fd(self, rng):
        for _ in range(5):
            store = random_store(rng, 3, 4)
            clf = make_clf(rng, 4, 5)
            out = proto_loss(store, clf)
            fw, fb = fd_gradients(lambda c: proto_loss(store, c), clf)
            assert max_rel_error(out, fw, fb) < 1e-4

    def test_minimizing_aligns_head_with_prototypes(self, rng):
        # drive the loss under ln(2)/n_old: every prototype's own logit wins
        store = random_store(rng, 3, 4)
        clf = make_clf(rng, 4, 3)
        state = new_adam_state(clf.params, lr=0.05)
        for _ in range(2000):
            out = proto_loss(store, clf)
            if out.value < math.log(2) / 3:
                break
            adam_step(clf, out, state)
        assert out.value < math.log(2)
        mu = store.prototype_matrix()
        scores = mu @ clf.W.T + clf.b
        assert (np.argmax(scores, axis=1) == np.arange(3)).all()


class TestVprLoss:
    def test_gamma_zero_reduces_to_proto(self, rng):
        store = random_store(rng, 3, 4)
        clf = make_clf(rng, 4, 4)
        v = vpr_loss(store, clf, LossConfig(gamma=0.0))
        p = proto_loss(store, clf)
        assert abs(v.value - p.value) < 1e-12
        assert np.abs(v.grad_W - p.grad_W).max() < 1e-12
        assert np.abs(v.grad_b - p.grad_b).max() < 1e-12

    def test_zero_covariances_reduce_to_proto(self, rng):
        store = random_store(rng, 3, 4, zero_cov=True)
        clf = make_clf(rng, 4, 4)
        v = vpr_loss(store, clf, LossConfig(gamma=2.5))
        p = proto_loss(store, clf)
        assert abs(v.value - p.value) < 1e-12
        assert np.abs(v.grad_W - p.grad_W).max() < 1e-12

    def test_matches_scalar_reference(self, rng):
        store = random_store(rng, 2, 3)
        clf = make_clf(rng, 3, 3)
        got = vpr_loss(store, clf, LossConfig(gamma=1.0)).value
        want = scalar_vpr(store, clf.W, clf.b, gamma=1.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_dominates_proto_for_psd_covariances(self, rng):
        for _ in range(5):
            store = random_store(rng, 3, 4)
            clf = make_clf(rng, 4, 4)
            assert vpr_loss(store, clf, LossConfig(gamma=0.7)).value \
                >= proto_loss(store, clf).value - 1e-12

    def test_gradient_fd(self, rng):
        cfg = LossConfig(gamma=1.0)
        for _ in range(5):
            store = random_store(rng, 3, 4)
            clf = make_clf(rng, 4, 5)
            out = vpr_loss(store, clf, cfg)
            fw, fb = fd_gradients(lambda c: vpr_loss(store, c, cfg), clf)
            assert max_rel_error(out, fw, fb) < 1e-4


class TestTceLoss:
    def test_single_class_task_zero(self, rng):
        clf = make_clf(rng, 3, 5)
        out = tce_loss(rng.normal(size=(4, 3)), [4] * 4, clf, (4, 5))
        assert out.value == 0.0
        assert not out.grad_W.any()

    def test_uniform_logits_ln_d(self, rng):
        clf = make_clf(rng, 3, 6)
        clf.W[2:6] = clf.W[2]
        clf.b[2:6] = clf.b[2]
        out = tce_loss(rng.normal(size=(3, 3)), [3, 2, 5], clf, (2, 6))
        assert out.value == pytest.approx(math.log(4))

    def test_grads_outside_range_exactly_zero(self, rng):
        clf = make_clf(rng, 3, 6)
        out = tce_loss(rng.normal(size=(4, 3)), [4, 5, 4, 5], clf, (4, 6))
        assert not out.grad_W[:4].any() and not out.grad_b[:4].any()
        assert out.grad_W[4:].any()

    def test_label_outside_range(self, rng):
        clf = make_clf(rng, 3, 6)
        with pytest.raises(InvalidArgumentError):
            tce_loss(rng.normal(size=(1, 3)), [1], clf, (4, 6))

    def test_gradient_fd(self, rng):
        for _ in range(5):
            clf = make_clf(rng, 4, 5)
            feats = rng.normal(size=(6, 4))
            labels = rng.integers(2, 5, size=6)
            out = tce_loss(feats, labels, clf, (2, 5))
            fw, fb = fd_gradients(lambda c: tce_loss(feats, labels, c, (2, 5)), clf)
            assert max_rel_error(out, fw, fb) < 1e-4


class TestTotalLoss:
    def _lvg(self, rng, shape_w, shape_b, zero=False):
        if zero:
            return LossValueGrad(0.0, np.zeros(shape_w), np.zeros(shape_b))
        return LossValueGrad(float(rng.normal()), rng.normal(size=shape_w),
                             rng.normal(size=shape_b))

    def test_all_zero(self, rng):
        comps = [self._lvg(rng, (3, 2), (3,), zero=True) for _ in range(3)]
        out = total_loss(comps)
        assert out.value == 0.0 and not out.grad_W.any()

    def test_single_component_identity(self, rng):
        c = self._lvg(rng, (3, 2), (3,))
        out = total_loss([c])
        assert out.value == c.value and np.array_equal(out.grad_W, c.grad_W)

    def test_linearity(self, rng):
        comps = [self._lvg(rng, (3, 2), (3,)) for _ in range(3)]
        out = total_loss(comps)
        assert out.value == pytest.approx(sum(c.value for c in comps))
        assert np.allclose(out.grad_W, sum(c.grad_W for c in comps))

    def test_shape_mismatch(self, rng):
        with pytest.raises(InvalidArgumentError):
            total_loss([self._lvg(rng, (3, 2), (3,)), self._lvg(rng, (4, 2), (4,))])
