import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgpfr.classifier import adam_step, new_adam_state, new_classifier
from pgpfr.errors import InvalidArgumentError, InvalidStateError
from pgpfr.losses import (LossConfig, LossValueGrad, replay_ce_loss, tce_loss,
                          total_loss, vpr_loss)
from pgpfr.prototypes import PrototypeStore, fit_class_statistics, register
from pgpfr.replay import generate_pseudo_batch
from conftest import (fd_gradients, max_rel_error, proto_loss, random_store,
                      scalar_replay_ce, scalar_vpr)


def make_batch(rng, n_pseudo, n_real, dim, n_old, n_classes):
    """A step's (features, labels, n_pseudo), the pseudo rows first."""
    feats = rng.normal(size=(n_pseudo + n_real, dim))
    labels = np.concatenate([
        rng.integers(0, n_old, size=n_pseudo),
        rng.integers(0, n_classes, size=n_real)])
    return feats, labels, n_pseudo


def head_logits(clf, features):
    return features @ clf.W.T + clf.b


def replay_ce_head(batch, clf, n_old, cfg):
    """replay_ce_loss of the head's logits, through total_loss: its value and
    its gradient over W and b."""
    feats, labels, n_pseudo = batch
    value, dlogits = replay_ce_loss(head_logits(clf, feats), labels, n_pseudo, n_old, cfg)
    return total_loss(value, dlogits, feats)


def tce_head(feats, labels, clf, task_range):
    """tce_loss of the head's logits, through total_loss, its task-slice
    gradient placed in the full (n, C) one."""
    logits = head_logits(clf, feats)
    value, d = tce_loss(logits, labels, task_range)
    dlogits = np.zeros_like(logits)
    dlogits[:, task_range[0]:task_range[1]] = d
    return total_loss(value, dlogits, feats)


def make_clf(rng, dim, n_classes):
    clf = new_classifier(dim, n_classes, seed=0)
    clf.W[:] = rng.normal(size=(n_classes, dim))
    clf.b[:] = rng.normal(size=n_classes)
    return clf


@pytest.mark.parametrize("kwargs, message", [
    ({"R": 0.0}, "temperature must be positive"),
    ({"R": float("nan")}, "temperature must be positive"),
    ({"gamma": -1.0}, "gamma must be >= 0"),
    ({"gamma": float("nan")}, "gamma must be >= 0"),
])
def test_loss_config_rejects_out_of_range_or_nan(kwargs, message):
    with pytest.raises(InvalidArgumentError, match=message):
        LossConfig(**kwargs)


class TestReplayCE:
    def test_uniform_real_row(self):
        clf = new_classifier(2, 2, seed=0)
        clf.W[:] = 0
        feats = np.array([[1.0, 1.0]])
        value, _ = replay_ce_loss(head_logits(clf, feats), np.array([0]), 0, 0, LossConfig())
        assert value == pytest.approx(math.log(2))

    def test_single_old_class_pseudo_term_zero(self, rng):
        clf = make_clf(rng, 3, 4)
        feats = rng.normal(size=(1, 3))
        value, _ = replay_ce_loss(head_logits(clf, feats), np.array([0]), 1, 1, LossConfig())
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_matches_scalar_reference(self, rng):
        cfg = LossConfig(R=0.3)
        for _ in range(5):
            clf = make_clf(rng, 4, 5)
            batch = make_batch(rng, 3, 4, 4, n_old=3, n_classes=5)
            out = replay_ce_head(batch, clf, 3, cfg)
            want = scalar_replay_ce(*batch, clf.W, clf.b, 3, 0.3)
            assert out.value == pytest.approx(want, rel=1e-12)

    def test_sharpening_disabled_uses_unit_temperature(self, rng):
        clf = make_clf(rng, 3, 4)
        batch = make_batch(rng, 2, 2, 3, n_old=2, n_classes=4)
        off = replay_ce_head(batch, clf, 2, LossConfig(R=1.0))
        want = scalar_replay_ce(*batch, clf.W, clf.b, 2, 1.0)
        assert off.value == pytest.approx(want, rel=1e-12)

    def test_row_permutation_invariance(self, rng):
        # rows move within the pseudo block and within the real block
        clf = make_clf(rng, 3, 4)
        feats, labels, n_pseudo = make_batch(rng, 3, 3, 3, n_old=2, n_classes=4)
        perm = np.concatenate([rng.permutation(3), 3 + rng.permutation(3)])
        a = replay_ce_loss(head_logits(clf, feats), labels, n_pseudo, 2, LossConfig())
        b = replay_ce_loss(head_logits(clf, feats[perm]), labels[perm], n_pseudo, 2,
                           LossConfig())
        assert a[0] == pytest.approx(b[0], rel=1e-12)
        np.testing.assert_allclose(b[1], a[1][perm], rtol=1e-12)

    def test_pseudo_label_out_of_range(self, rng):
        clf = make_clf(rng, 3, 4)
        logits = head_logits(clf, rng.normal(size=(1, 3)))
        with pytest.raises(InvalidArgumentError):
            replay_ce_loss(logits, np.array([3]), 1, 2, LossConfig())

    # pseudo: (pseudo rows, old classes), the pseudo rows first
    @pytest.mark.parametrize("labels, pseudo, message", [
        ([0, -1], (0, 2), r"real row label outside \[0, 3\)"),
        ([0, 3], (0, 2), r"real row label outside \[0, 3\)"),
        ([-1, 0], (1, 2), r"pseudo row label outside \[0, 2\)"),
        ([2, 0], (1, 2), r"pseudo row label outside \[0, 2\)"),
        # pseudo label 4 is below n_old but past the head's last logit
        ([4, 0], (1, 5), r"n_old 5 is outside \[0, 3\], the head's width"),
    ])
    def test_label_outside_the_head(self, rng, labels, pseudo, message):
        # a label of -1 would otherwise score against the last logit
        clf = make_clf(rng, 3, 3)
        n_pseudo, n_old = pseudo
        logits = head_logits(clf, rng.normal(size=(2, 3)))
        with pytest.raises(InvalidArgumentError, match=message):
            replay_ce_loss(logits, np.array(labels), n_pseudo, n_old, LossConfig())

    @pytest.mark.parametrize("n_pseudo", [-1, 4])
    def test_split_outside_the_rows(self, rng, n_pseudo):
        # labels inside [0, n_old) are valid as pseudo and as real rows; a
        # split of -1 would otherwise score the first n - 1 rows as pseudo rows
        clf = make_clf(rng, 3, 4)
        logits = head_logits(clf, rng.normal(size=(3, 3)))
        with pytest.raises(InvalidArgumentError,
                           match=rf"n_pseudo {n_pseudo} is outside \[0, 3\]"):
            replay_ce_loss(logits, np.array([0, 1, 0]), n_pseudo, 2, LossConfig())

    @pytest.mark.parametrize("n_labels", [2, 4])
    def test_label_count_must_match_rows(self, rng, n_labels):
        clf = make_clf(rng, 3, 4)
        logits = head_logits(clf, rng.normal(size=(3, 3)))
        with pytest.raises(InvalidArgumentError, match=f"{n_labels} labels for 3 logit rows"):
            replay_ce_loss(logits, np.zeros(n_labels, dtype=np.int64), 0, 2, LossConfig())

    def test_gradient_fd(self, rng):
        cfg = LossConfig(R=0.3)
        for _ in range(5):
            clf = make_clf(rng, 4, 4)
            batch = make_batch(rng, 3, 3, 4, n_old=2, n_classes=4)
            out = replay_ce_head(batch, clf, 2, cfg)
            fw, fb = fd_gradients(lambda c: replay_ce_head(batch, c, 2, cfg), clf)
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
        mu = store.prototypes
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


def fitted_store(rng, counts, dim) -> PrototypeStore:
    """Statistics fitted from random rows, counts[k] rows for class k."""
    feats = rng.normal(size=(sum(counts), dim)) * 2.0
    labels = np.repeat(np.arange(len(counts)), counts)
    return fit_class_statistics(feats, labels)


def took_dense_path(store: PrototypeStore) -> bool:
    """Whether the store's dense covariance block was ever built."""
    return "covariances" in vars(store)


class TestVprFactorPath:
    @pytest.mark.parametrize("counts, dim", [
        ([2, 3, 2, 4], 12), ([20] * 6, 64), ([1, 2, 5], 11),   # root path
        ([2, 9, 1, 4], 8), ([3, 11, 2], 5),   # dense path; classes with n > D
        ([1, 3, 2], 6),                       # 2 * r_max == D: root path
        ([1, 4, 2], 7)])                      # the smallest r_max on the dense path
    def test_matches_densified_store(self, rng, counts, dim):
        """Both VPR paths against the scalar reference, which reads each
        class's dense (D, D) covariance FᵀF."""
        store = fitted_store(rng, counts, dim)
        slots = store.roots.reshape(len(counts), store.r_max, dim)
        assert slots.any(axis=2).sum(axis=1).tolist() == [
            min(n, dim) if n >= 2 else 0 for n in counts]
        clf = make_clf(rng, dim, len(counts) + 2)
        cfg = LossConfig(gamma=0.8)
        got = vpr_loss(store, clf, cfg)
        assert took_dense_path(store) == (2 * store.r_max > dim)
        assert got.value == pytest.approx(scalar_vpr(store, clf.W, clf.b, gamma=0.8),
                                          rel=1e-12)
        fw, fb = fd_gradients(lambda c: vpr_loss(store, c, cfg), clf)
        assert max_rel_error(got, fw, fb) < 1e-4

    def test_gradient_fd(self, rng):
        cfg = LossConfig(gamma=1.0)
        for counts in ([2, 3, 2], [1, 3, 2, 2]):
            store = fitted_store(rng, counts, 7)
            clf = make_clf(rng, 7, len(counts) + 1)
            out = vpr_loss(store, clf, cfg)
            fw, fb = fd_gradients(lambda c: vpr_loss(store, c, cfg), clf)
            assert max_rel_error(out, fw, fb) < 1e-4

    def test_matches_scalar_reference(self, rng):
        store = fitted_store(rng, [2, 2, 2], 6)
        assert store.roots.shape == (3 * 2, 6)
        clf = make_clf(rng, 6, 3)
        got = vpr_loss(store, clf, LossConfig(gamma=1.0)).value
        want = scalar_vpr(store, clf.W, clf.b, gamma=1.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_single_sample_classes_add_no_penalty(self, rng):
        store = fitted_store(rng, [1, 1, 1], 5)
        assert store.r_max == 0 and store.roots.shape == (0, 5)
        clf = make_clf(rng, 5, 4)
        v = vpr_loss(store, clf, LossConfig(gamma=3.0))
        p = proto_loss(store, clf)
        assert v.value == pytest.approx(p.value, abs=1e-15)
        assert np.abs(v.grad_W - p.grad_W).max() < 1e-15
        assert np.abs(v.grad_b - p.grad_b).max() < 1e-15


class TestPackedRoots:
    """VPR over the store's zero-padded (No * r_max, D) root block."""

    def test_mixed_root_rows_match_scalar_reference(self, rng):
        # r_k = 0 (n = 1), below r_max (n = 3, 5) and D (n = 12 > D = 8)
        counts, dim = [1, 3, 12, 5], 8
        store = fitted_store(rng, counts, dim)
        assert store.r_max == dim and store.roots.shape == (len(counts) * dim, dim)
        clf = make_clf(rng, dim, len(counts) + 2)
        cfg = LossConfig(gamma=0.9)
        got = vpr_loss(store, clf, cfg)
        assert got.value == pytest.approx(scalar_vpr(store, clf.W, clf.b, gamma=0.9),
                                          rel=1e-12)
        fw, fb = fd_gradients(lambda c: vpr_loss(store, c, cfg), clf)
        assert max_rel_error(got, fw, fb) < 1e-4

    def test_registration_order_does_not_matter(self, rng):
        dim = 6
        feats = rng.normal(size=(26, dim)) * 2.0
        labels = np.repeat([5, 2, 9, 0], [1, 4, 13, 8])
        ascending = fit_class_statistics(feats, labels)
        first = np.isin(labels, [9, 2])
        shuffled = register(fit_class_statistics(feats[first], labels[first]),
                            fit_class_statistics(feats[~first], labels[~first]))
        assert shuffled.ids.tolist() == [0, 2, 5, 9]
        clf = make_clf(rng, dim, 12)
        a = vpr_loss(ascending, clf, LossConfig(gamma=1.3))
        b = vpr_loss(shuffled, clf, LossConfig(gamma=1.3))
        assert a.value == b.value
        assert np.array_equal(a.grad_W, b.grad_W) and np.array_equal(a.grad_b, b.grad_b)
        batch, batch_labels = rng.normal(size=(16, dim)), rng.integers(10, 14, size=16)
        pa = generate_pseudo_batch(batch, batch_labels, ascending)
        pb = generate_pseudo_batch(batch, batch_labels, shuffled)
        assert np.array_equal(pa[0], pb[0])
        assert np.array_equal(pa[1], pb[1])


class TestStoreIdsOutsideTheHead:
    @pytest.mark.parametrize("loss", [proto_loss,
                                      lambda store, clf: vpr_loss(store, clf, LossConfig())])
    def test_negative_id(self, rng, loss):
        # a store fitted on label -1 would otherwise read the head's last row
        store = fit_class_statistics(rng.normal(size=(6, 4)), [-1, -1, -1, 0, 0, 0])
        with pytest.raises(InvalidArgumentError, match=r"store ids -1\.\.0 are not rows"):
            loss(store, make_clf(rng, 4, 3))

    @pytest.mark.parametrize("loss", [proto_loss,
                                      lambda store, clf: vpr_loss(store, clf, LossConfig())])
    def test_id_past_the_last_row(self, rng, loss):
        store = fit_class_statistics(rng.normal(size=(6, 4)), [0, 0, 0, 7, 7, 7])
        with pytest.raises(InvalidArgumentError, match="not rows of a 3-class head"):
            loss(store, make_clf(rng, 4, 3))

    @pytest.mark.parametrize("loss", [proto_loss,
                                      lambda store, clf: vpr_loss(store, clf, LossConfig())])
    def test_store_narrower_than_the_head(self, rng, loss):
        # numpy's matmul would otherwise raise a raw ValueError
        store = fit_class_statistics(rng.normal(size=(6, 4)), [0, 0, 0, 1, 1, 1])
        with pytest.raises(InvalidArgumentError, match="store features are 4-d, the head's are 5-d"):
            loss(store, make_clf(rng, 5, 3))


def padded(store: PrototypeStore, rows: int) -> PrototypeStore:
    """The same store with every root slot zero-padded to `rows` rows."""
    dim = store.prototypes.shape[1]
    slots = np.zeros((len(store), rows, dim))
    slots[:, :store.r_max] = store.roots.reshape(len(store), store.r_max, dim)
    return PrototypeStore(store.ids, store.prototypes, slots.reshape(-1, dim))


class TestVprPaths:
    """VPR's root path (2 * r_max <= D) against its dense path (2 * r_max > D)."""

    @given(dim=st.integers(2, 10),
           counts=st.lists(st.integers(1, 8), min_size=1, max_size=5),
           gamma=st.sampled_from([0.0, 0.4, 1.0, 3.0]),
           seed=st.integers(0, 2**16))
    @example(dim=4, counts=[2], gamma=1.0, seed=0)           # No = 1
    @example(dim=5, counts=[1, 1, 1], gamma=1.0, seed=1)     # every slot empty
    @example(dim=8, counts=[1, 4, 2, 3], gamma=0.0, seed=2)  # uneven r_k, gamma = 0
    @example(dim=64, counts=[32] * 20, gamma=1.0, seed=3)    # backbone's shapes: D = 64,
    @example(dim=64, counts=[32] * 40, gamma=1.0, seed=4)    # No = 20 and 40
    @settings(max_examples=80, deadline=None)
    def test_zero_padding_across_the_rule_changes_nothing(self, dim, counts, gamma, seed):
        """Padding every slot with zero rows until 2 * r_max > D keeps every
        covariance, and so the value and both gradients."""
        rng = np.random.default_rng(seed)
        counts = [min(n, dim // 2) for n in counts]           # r_k <= D / 2: root side
        n_classes = len(counts) + 3
        ids = np.sort(rng.choice(n_classes, size=len(counts), replace=False))
        feats = rng.normal(size=(sum(counts), dim)) * 2.0
        store = fit_class_statistics(feats, np.repeat(ids, counts))
        wide = padded(store, dim)
        clf = make_clf(rng, dim, n_classes)
        cfg = LossConfig(gamma=gamma)
        root, dense = vpr_loss(store, clf, cfg), vpr_loss(wide, clf, cfg)
        assert not took_dense_path(store) and took_dense_path(wide)
        assert dense.value == pytest.approx(root.value, rel=1e-12)
        for got, want in ((dense.grad_W, root.grad_W), (dense.grad_b, root.grad_b)):
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max(initial=0.0))


class TestTceLoss:
    def test_single_class_task_zero(self, rng):
        clf = make_clf(rng, 3, 5)
        value, d = tce_loss(head_logits(clf, rng.normal(size=(4, 3))), [4] * 4, (4, 5))
        assert value == 0.0
        assert d.shape == (4, 1) and not d.any()

    def test_uniform_logits_ln_d(self, rng):
        clf = make_clf(rng, 3, 6)
        clf.W[2:6] = clf.W[2]
        clf.b[2:6] = clf.b[2]
        value, _ = tce_loss(head_logits(clf, rng.normal(size=(3, 3))), [3, 2, 5], (2, 6))
        assert value == pytest.approx(math.log(4))

    def test_grads_outside_range_exactly_zero(self, rng):
        clf = make_clf(rng, 3, 6)
        out = tce_head(rng.normal(size=(4, 3)), [4, 5, 4, 5], clf, (4, 6))
        assert not out.grad_W[:4].any() and not out.grad_b[:4].any()
        assert out.grad_W[4:].any()

    def test_label_outside_range(self, rng):
        clf = make_clf(rng, 3, 6)
        with pytest.raises(InvalidArgumentError):
            tce_loss(head_logits(clf, rng.normal(size=(1, 3))), [1], (4, 6))

    @pytest.mark.parametrize("n_labels", [2, 6])
    def test_label_count_must_match_rows(self, rng, n_labels):
        # too few would leave rows with a gradient and no target; too many
        # would otherwise raise a bare IndexError
        clf = make_clf(rng, 3, 6)
        logits = head_logits(clf, rng.normal(size=(4, 3)))
        with pytest.raises(InvalidArgumentError, match=f"{n_labels} labels for 4 logit rows"):
            tce_loss(logits, [4] * n_labels, (4, 6))

    def test_gradient_fd(self, rng):
        for _ in range(5):
            clf = make_clf(rng, 4, 5)
            feats = rng.normal(size=(6, 4))
            labels = rng.integers(2, 5, size=6)
            out = tce_head(feats, labels, clf, (2, 5))
            fw, fb = fd_gradients(lambda c: tce_head(feats, labels, c, (2, 5)), clf)
            assert max_rel_error(out, fw, fb) < 1e-4


class TestTotalLoss:
    """total_loss(value, dlogits, features, vpr): the head gradient
    dlogits.T @ features and dlogits.sum(0), plus VPR's."""

    def _lvg(self, rng, shape_w, shape_b, zero=False):
        if zero:
            return LossValueGrad(0.0, np.zeros(shape_w), np.zeros(shape_b))
        return LossValueGrad(float(rng.normal()), rng.normal(size=shape_w),
                             rng.normal(size=shape_b))

    def test_all_zero(self, rng):
        out = total_loss(0.0, np.zeros((4, 3)), rng.normal(size=(4, 2)),
                         self._lvg(rng, (3, 2), (3,), zero=True))
        assert out.value == 0.0 and not out.grad_W.any() and not out.grad_b.any()

    def test_single_component_identity(self, rng):
        feats, dlogits = rng.normal(size=(4, 2)), rng.normal(size=(4, 3))
        out = total_loss(0.7, dlogits, feats)
        assert out.value == 0.7
        assert np.array_equal(out.grad_W, dlogits.T @ feats)
        assert np.array_equal(out.grad_b, dlogits.sum(axis=0))
        c = self._lvg(rng, (3, 2), (3,))
        out = total_loss(0.0, np.zeros((4, 3)), feats, c)
        assert out.value == c.value and np.array_equal(out.grad_W, c.grad_W)
        assert np.array_equal(out.grad_b, c.grad_b)

    def test_linearity(self, rng):
        feats = rng.normal(size=(4, 2))
        d1, d2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        vpr = self._lvg(rng, (3, 2), (3,))
        out = total_loss(0.5 + 0.25, d1 + d2, feats, vpr)
        parts = [total_loss(0.5, d1, feats), total_loss(0.25, d2, feats), vpr]
        assert out.value == pytest.approx(sum(c.value for c in parts))
        assert np.allclose(out.grad_W, sum(c.grad_W for c in parts))
        assert np.allclose(out.grad_b, sum(c.grad_b for c in parts))

    def test_shape_mismatch(self, rng):
        feats = rng.normal(size=(4, 2))
        with pytest.raises(InvalidArgumentError):
            total_loss(0.0, rng.normal(size=(5, 3)), feats)
        with pytest.raises(InvalidArgumentError):
            total_loss(0.0, rng.normal(size=(4, 3)), feats, self._lvg(rng, (4, 2), (4,)))
