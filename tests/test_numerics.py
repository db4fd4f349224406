import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgpfr.errors import InvalidArgumentError
from pgpfr.numerics import check_addressable, cosine_sim
from conftest import covariance

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestCosineSim:
    def test_shape(self):
        assert cosine_sim(np.ones((3, 4)), np.ones((5, 4))).shape == (3, 5)

    def test_examples(self):
        c = cosine_sim([[1, 0], [1, 2]], [[1, 0], [0, 1], [2, 4]])
        assert c[0, 0] == pytest.approx(1.0)
        assert c[0, 1] == pytest.approx(0.0)
        assert c[1, 2] == pytest.approx(1.0)

    def test_zero_norm_convention(self):
        c = cosine_sim([[0, 0], [1, 0]], [[1, 2], [0, 0]])
        assert c[0, 0] == 0.0 and c[0, 1] == 0.0 and c[1, 1] == 0.0
        assert c[1, 0] == pytest.approx(1 / np.sqrt(5))

    def test_dim_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            cosine_sim([[1, 2]], [[1, 2, 3]])
        with pytest.raises(InvalidArgumentError):
            cosine_sim([1, 2], [1, 2])  # vectors, not (N, D) matrices

    def test_equal_rows_score_exactly_equal(self, rng):
        # the pseudo-label tie rule needs bitwise-equal scores for equal
        # prototypes, at any column position
        c = cosine_sim(rng.normal(size=(3, 64)), np.tile(rng.normal(size=64), (23, 1)))
        assert (c == c[:, :1]).all()

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 6), st.data(),
           st.floats(min_value=0.1, max_value=10),
           st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=50)
    def test_scale_invariance_and_symmetry(self, n, m, dim, data, alpha, beta):
        def matrix(rows):
            return np.asarray(data.draw(st.lists(
                st.lists(finite_floats, min_size=dim, max_size=dim),
                min_size=rows, max_size=rows)))
        u = matrix(n) + 1.0  # shifted away from the zero vector
        w = matrix(m) - 0.5
        if (np.linalg.norm(u, axis=1) < 1e-6).any() or (np.linalg.norm(w, axis=1) < 1e-6).any():
            return
        c = cosine_sim(u, w)
        assert np.abs(cosine_sim(alpha * u, beta * w) - c).max() <= 1e-12
        assert np.abs(cosine_sim(w, u).T - c).max() <= 1e-12
        assert (np.abs(c) <= 1.0).all()


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



class TestCheckAddressable:
    @pytest.mark.parametrize("shapes", [[(2 ** 63,)], [(3, 2 ** 62)], [(2, 2), (10 ** 20, 1)]])
    def test_beyond_numpys_limit_is_a_memory_error(self, shapes):
        with pytest.raises(MemoryError, match="more bytes than numpy can address"):
            check_addressable(*shapes)

    def test_limit_is_numpys(self):
        # 2**60 float64s are 2**63 bytes, one more than numpy can address
        with pytest.raises(ValueError, match="array is too big"):
            np.empty(2 ** 60)
        with pytest.raises(MemoryError):
            check_addressable((2 ** 60,))
        check_addressable((2 ** 60 - 1,), (2, 3))   # left to numpy's allocation
