import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ReferenceAdam
from pgpfr.classifier import (BETA1, BETA2, AdamState, IncrementalClassifier,
                              adam_step, expand, new_adam_state,
                              new_classifier, predict)
from pgpfr.errors import InvalidArgumentError
from pgpfr.losses import LossValueGrad


class TestNewClassifier:
    def test_shape_and_range(self):
        clf = new_classifier(4, 8, seed=3)
        assert clf.W.shape == (8, 4)
        assert clf.b.shape == (8,)
        assert clf.task_ranges == [(0, 8)]

    def test_deterministic(self):
        a = new_classifier(5, 3, seed=11)
        b = new_classifier(5, 3, seed=11)
        assert a.W.tobytes() == b.W.tobytes()

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidArgumentError):
            new_classifier(4, 0, seed=0)
        with pytest.raises(InvalidArgumentError):
            new_classifier(0, 4, seed=0)


class TestExpand:
    def test_single_class_added(self):
        clf = expand(new_classifier(4, 8, seed=0), 1, seed=0)
        assert clf.n_classes == 9
        assert clf.task_ranges == [(0, 8), (8, 9)]

    def test_old_rows_bitwise_unchanged(self):
        base = new_classifier(6, 8, seed=1)
        before = base.W.copy()
        grown = expand(base, 3, seed=1)
        assert grown.W[:8].tobytes() == before.tobytes()

    def test_egogesture_style_counts(self):
        clf = new_classifier(4, 59, seed=0)
        clf = expand(clf, 4, seed=0)
        assert clf.n_classes == 63

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgumentError):
            expand(new_classifier(4, 2, seed=0), 0, seed=0)


def scalar_logits(clf, row) -> list[float]:
    """Each class's w_c . x + b_c, with plain python floats."""
    return [sum(float(clf.W[c, j]) * float(row[j]) for j in range(clf.dim)) + float(clf.b[c])
            for c in range(clf.n_classes)]


class TestLogitsPredict:
    def test_zero_params(self):
        # zero weights leave the bias as every row's logits
        clf = new_classifier(3, 2, seed=0)
        clf.W[:] = 0
        clf.b[:] = [0.0, 1e-300]
        assert predict(clf, [[1, 2, 3], [-4, 5, -6]]).tolist() == [1, 1]

    def test_identity_weights(self):
        clf = new_classifier(3, 3, seed=0)
        clf.W[:] = np.eye(3)
        clf.b[:] = 0
        x = np.array([[0.5, -1.0, 2.0], [3.0, -1.0, 2.0], [-3.0, -1.0, -2.0]])
        assert predict(clf, x).tolist() == [2, 0, 1]

    def test_scalar_oracle(self, rng):
        clf = new_classifier(4, 3, seed=2)
        clf.W[:] = rng.normal(size=(3, 4))
        clf.b[:] = rng.normal(size=3)
        x = rng.normal(size=(30, 4))
        want = [int(np.argmax(scalar_logits(clf, row))) for row in x]
        assert predict(clf, x).tolist() == want

    def test_predict_matches_max_scan(self, rng):
        clf = new_classifier(5, 4, seed=7)
        clf.W[:] = rng.normal(size=(4, 5))
        x = rng.normal(size=(20, 5))
        z = [scalar_logits(clf, row) for row in x]
        brute = [max(range(4), key=lambda c: z[i][c]) for i in range(20)]
        assert list(predict(clf, x)) == brute

    def test_tie_breaks_to_smallest(self):
        clf = new_classifier(2, 3, seed=0)
        clf.W[:] = 0
        clf.b[:] = 0
        assert predict(clf, [[1.0, 1.0]])[0] == 0

    def test_shift_invariance(self, rng):
        clf = new_classifier(3, 4, seed=1)
        clf.W[:] = rng.normal(size=(4, 3))
        x = rng.normal(size=(10, 3))
        shifted = IncrementalClassifier(clf.W, clf.b + 5.0, clf.task_ranges)
        assert (predict(clf, x) == predict(shifted, x)).all()

    def test_dim_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            predict(new_classifier(3, 2, seed=0), [[1, 2]])


class TestAdam:
    def _grads(self, clf, gw, gb):
        return LossValueGrad(0.0, gw, gb)

    def test_zero_gradient_no_change(self):
        clf = new_classifier(3, 2, seed=0)
        before = clf.W.copy()
        adam_step(clf, self._grads(clf, np.zeros_like(clf.W), np.zeros_like(clf.b)),
                  new_adam_state(clf.params))
        assert np.array_equal(clf.W, before)

    def test_first_step_magnitude(self):
        # at t=1: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps)
        clf = new_classifier(2, 2, seed=0)
        before = clf.W.copy()
        g = np.full_like(clf.W, 0.37)
        state = new_adam_state(clf.params, lr=0.001)
        adam_step(clf, self._grads(clf, g, np.zeros_like(clf.b)), state)
        expected = 0.001 * 0.37 / (np.sqrt(0.37 ** 2) + 1e-8)
        assert np.allclose(before - clf.W, expected, rtol=1e-12)

    def test_deterministic(self, rng):
        g = rng.normal(size=(3, 4))
        outs = []
        for _ in range(2):
            clf = new_classifier(4, 3, seed=5)
            state = new_adam_state(clf.params)
            for _ in range(5):
                adam_step(clf, self._grads(clf, g, np.zeros_like(clf.b)), state)
            outs.append(clf.W.tobytes())
        assert outs[0] == outs[1]

    def test_shape_mismatch(self):
        clf = new_classifier(3, 2, seed=0)
        with pytest.raises(InvalidArgumentError):
            adam_step(clf, self._grads(clf, np.zeros((5, 3)), np.zeros(2)),
                      new_adam_state(clf.params))

    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan")])
    def test_rejects_non_positive_or_nan_lr(self, lr):
        with pytest.raises(InvalidArgumentError, match="lr must be positive"):
            new_adam_state({"W": np.zeros(2)}, lr=lr)

    @given(shapes=st.lists(st.lists(st.integers(0, 4), max_size=3), min_size=1, max_size=3),
           steps=st.integers(1, 50), lr=st.floats(1e-5, 1.0),
           zero_steps=st.sets(st.integers(0, 49)), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_textbook_adam(self, shapes, steps, lr, zero_steps, seed):
        # the folded step is the bias-corrected one reordered: several named
        # parameters of any shape (empty ones too), some steps with all-zero
        # gradients and some gradient entries exactly zero
        rng = np.random.default_rng(seed)
        params = {f"p{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
        ref_params = {k: p.copy() for k, p in params.items()}
        state, ref = new_adam_state(params, lr=lr), ReferenceAdam(ref_params, lr)
        for t in range(steps):
            grads = {k: rng.normal(size=p.shape) * 10.0 ** rng.integers(-3, 4)
                        * (rng.random(p.shape) < 0.8) * (t not in zero_steps)
                     for k, p in params.items()}
            state.update(params, grads)
            ref.update(ref_params, grads)
        assert state.step_count == steps
        for k in params:
            # rtol on the values, and the same 1e-12 on the distance moved
            # (Adam moves a value by about lr per step), where a value crosses zero
            np.testing.assert_allclose(params[k], ref_params[k], rtol=1e-12,
                                       atol=1e-12 * lr * steps)
            # m and v are the raw sums: the textbook moments without (1 - beta);
            # m's entries can cancel to near zero, so its atol is scaled too
            np.testing.assert_allclose((1 - BETA1) * state.m[k], ref.m[k], rtol=1e-12,
                                       atol=1e-12 * np.abs(ref.m[k]).max(initial=0.0))
            np.testing.assert_allclose((1 - BETA2) * state.v[k], ref.v[k], rtol=1e-12)

    def test_step_count_increments(self):
        clf = new_classifier(2, 2, seed=0)
        state = new_adam_state(clf.params)
        adam_step(clf, self._grads(clf, np.zeros_like(clf.W), np.zeros_like(clf.b)), state)
        assert state.step_count == 1
