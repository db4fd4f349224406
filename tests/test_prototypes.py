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

    @pytest.mark.parametrize("n, dim, n_labels", [(32, 64, 15), (7, 3, 7), (200, 5, 2)])
    def test_matches_masked_means(self, rng, n, dim, n_labels):
        feats = rng.normal(size=(n, dim))
        labels = rng.integers(0, n_labels, size=n) * 3 + 1
        protos = batch_class_prototypes(feats, labels)
        assert list(protos) == sorted(set(labels.tolist()))
        for cid, p in protos.items():
            assert np.abs(p - feats[labels == cid].mean(axis=0)).max() < 1e-12

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


class TestPackedStore:
    def _store(self, rng, counts=(1, 3, 12, 5), dim=8, ids=(7, 2, 11, 4)):
        feats = rng.normal(size=(sum(counts), dim))
        stats = fit_class_statistics(feats, np.repeat(ids, counts))
        return stats, PrototypeStore(stats)

    def test_ascending_ids_and_padded_slots(self, rng):
        stats, store = self._store(rng)
        assert store.class_ids == [2, 4, 7, 11] and store.ids.tolist() == [2, 4, 7, 11]
        assert store.r_max == 8 and store.roots.shape == (4 * 8, 8)
        slots = store.roots.reshape(4, 8, 8)
        for k, cid in enumerate(store.class_ids):
            r = len(stats[cid].factor)
            assert np.array_equal(slots[k, :r], stats[cid].factor)
            assert not slots[k, r:].any()
            assert np.array_equal(store.prototypes[k], stats[cid].prototype)
            assert store.get(cid).count == stats[cid].count

    def test_each_root_held_once(self, rng):
        _, store = self._store(rng)
        for st in store.stats.values():
            # an empty (0, D) root has no memory to share
            assert np.shares_memory(st.factor, store.roots) or st.factor.shape == (0, 8)
            assert np.shares_memory(st.prototype, store.prototypes)
            with pytest.raises(ValueError):
                st.prototype[0] = 1.0   # the packed arrays are read-only

    def test_empty_store(self):
        store = PrototypeStore()
        assert len(store) == 0 and store.ids.shape == (0,) and store.r_max == 0

    def test_dims_must_agree(self):
        with pytest.raises(InvalidArgumentError, match="store's dim is 2"):
            PrototypeStore({0: _stats(2), 1: _stats(3)})
