import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgpfr.errors import InvalidArgumentError
from pgpfr.numerics import cosine_sim, covariance, mean_rows

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestCosineSim:
    def test_examples(self):
        assert cosine_sim([1, 0], [1, 0]) == pytest.approx(1.0)
        assert cosine_sim([1, 0], [0, 1]) == pytest.approx(0.0)
        assert cosine_sim([1, 2], [2, 4]) == pytest.approx(1.0)

    def test_zero_norm_convention(self):
        assert cosine_sim([0, 0], [1, 2]) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            cosine_sim([1, 2], [1, 2, 3])

    @given(st.lists(finite_floats, min_size=2, max_size=6),
           st.floats(min_value=0.1, max_value=10),
           st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=50)
    def test_scale_invariance_and_symmetry(self, v, alpha, beta):
        u = np.asarray(v) + 1.0  # avoid the zero vector
        w = np.asarray(v) - 0.5
        if np.linalg.norm(u) < 1e-6 or np.linalg.norm(w) < 1e-6:
            return
        assert cosine_sim(alpha * u, beta * w) == pytest.approx(cosine_sim(u, w), abs=1e-12)
        assert cosine_sim(u, w) == pytest.approx(cosine_sim(w, u), abs=1e-12)
        assert -1.0 <= cosine_sim(u, w) <= 1.0


class TestMeanRows:
    def test_examples(self):
        assert np.allclose(mean_rows([[1, 1]]), [1, 1])
        assert np.allclose(mean_rows([[0, 0], [2, 0]]), [1, 0])
        assert np.allclose(mean_rows([[3.5, 3.5]] * 7), [3.5, 3.5])

    def test_empty(self):
        with pytest.raises(InvalidArgumentError):
            mean_rows(np.empty((0, 3)))


class TestCovariance:
    def test_constant_rows_zero(self):
        assert np.allclose(covariance([[2, 3], [2, 3], [2, 3]]), 0.0)

    def test_single_row_convention(self):
        assert np.allclose(covariance([[1, 2, 3]]), 0.0)

    def test_hand_computed(self):
        # rows [0,0] and [2,0]: var of first coord = (1+1)/(2-1) = 2
        assert np.allclose(covariance([[0, 0], [2, 0]]), [[2, 0], [0, 0]])

    def test_empty(self):
        with pytest.raises(InvalidArgumentError):
            covariance(np.empty((0, 2)))

    def test_symmetric_psd(self, rng):
        m = rng.normal(size=(20, 5))
        c = covariance(m)
        assert np.abs(c - c.T).max() <= 1e-9
        for _ in range(10):
            x = rng.normal(size=5)
            assert x @ c @ x >= -1e-9

    def test_translation_invariance(self, rng):
        m = rng.normal(size=(15, 4))
        t = rng.normal(size=4) * 100
        assert np.abs(covariance(m + t) - covariance(m)).max() < 1e-9

