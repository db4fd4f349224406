import numpy as np
import pytest

from pgpfr.errors import InvalidArgumentError, InvalidStateError
from pgpfr.numerics import covariance
from pgpfr.prototypes import (ClassStatistics, PrototypeStore,
                              batch_class_prototypes, fit_class_statistics,
                              register)


class TestFitClassStatistics:
    def test_constant_rows(self):
        stats = fit_class_statistics([[2.0, 5.0]] * 4, [1, 1, 1, 1])
        assert np.allclose(stats[1].prototype, [2, 5])
        assert np.allclose(stats[1].covariance, 0.0)
        assert stats[1].count == 4

    def test_single_row_zero_covariance(self):
        stats = fit_class_statistics([[1.0, -1.0]], [3])
        assert np.allclose(stats[3].prototype, [1, -1])
        assert np.allclose(stats[3].covariance, 0.0)

    def test_hand_computed(self):
        stats = fit_class_statistics([[0, 0], [2, 0]], [0, 0])
        assert np.allclose(stats[0].prototype, [1, 0])
        assert np.allclose(stats[0].covariance, [[2, 0], [0, 0]])

    def test_empty(self):
        with pytest.raises(InvalidArgumentError):
            fit_class_statistics(np.empty((0, 2)), [])

    def test_permutation_invariance(self, rng):
        feats = rng.normal(size=(30, 4))
        labels = rng.integers(0, 3, size=30)
        perm = rng.permutation(30)
        a = fit_class_statistics(feats, labels)
        b = fit_class_statistics(feats[perm], labels[perm])
        for cid in a:
            assert np.abs(a[cid].prototype - b[cid].prototype).max() < 1e-12
            assert np.abs(a[cid].covariance - b[cid].covariance).max() < 1e-12


class TestCovarianceForms:
    @pytest.mark.parametrize("n, dim", [
        (2, 6), (5, 11), (20, 64), (1, 3), (1, 2), (2, 5), (3, 6), (3, 7), (4, 8),
        (20, 512), (64, 64), (200, 64)])
    def test_dense_view_matches_covariance(self, rng, n, dim):
        rows = rng.normal(size=(n, dim)) * 3.0 + rng.normal(size=dim)
        st = fit_class_statistics(rows, [7] * n)[7]
        assert st.factor.shape == ((min(n, dim) if n >= 2 else 0), dim)
        assert st.covariance.shape == (dim, dim)
        assert np.abs(st.covariance - covariance(rows)).max() < 1e-12
        assert np.array_equal(st.covariance, st.covariance.T)

    def test_factor_class_holds_no_dense_matrix(self, rng):
        st = fit_class_statistics(rng.normal(size=(20, 512)), [0] * 20)[0]
        held = sum(v.nbytes for v in vars(st).values() if isinstance(v, np.ndarray))
        assert held == (20 + 1) * 512 * 8   # factor and prototype


class TestBatchClassPrototypes:
    def test_midpoint(self):
        protos = batch_class_prototypes([[1, 0], [3, 0]], [5, 5])
        assert np.allclose(protos[5], [2, 0])

    def test_singletons(self):
        protos = batch_class_prototypes([[1, 2], [3, 4]], [0, 1])
        assert np.allclose(protos[0], [1, 2])
        assert np.allclose(protos[1], [3, 4])

    def test_mixed_batch(self):
        protos = batch_class_prototypes([[0, 0], [2, 2], [4, 0]], [0, 0, 1])
        assert np.allclose(protos[0], [1, 1])
        assert np.allclose(protos[1], [4, 0])

    def test_full_dataset_matches_fit(self, rng):
        feats = rng.normal(size=(40, 3))
        labels = rng.integers(0, 4, size=40)
        protos = batch_class_prototypes(feats, labels)
        stats = fit_class_statistics(feats, labels)
        for cid in protos:
            assert np.array_equal(protos[cid], stats[cid].prototype)

    def test_empty(self):
        with pytest.raises(InvalidArgumentError):
            batch_class_prototypes(np.empty((0, 2)), [])


def _stats(dim=2):
    return ClassStatistics(np.zeros(dim), np.zeros((0, dim)), 1)


class TestRegister:
    def test_grow_from_empty(self):
        store = register(PrototypeStore(), {0: _stats()})
        assert len(store) == 1 and 0 in store

    def test_duplicate_rejected(self):
        store = register(PrototypeStore(), {0: _stats(), 1: _stats()})
        with pytest.raises(InvalidStateError):
            register(store, {1: _stats()})

    def test_counting_and_order(self):
        store = register(PrototypeStore(), {i: _stats() for i in range(8)})
        store = register(store, {8: _stats()})
        assert len(store) == 9
        assert store.class_ids == list(range(9))
