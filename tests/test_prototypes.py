import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgpfr.errors import InvalidArgumentError, InvalidStateError
from pgpfr.numerics import cosine_sim
from pgpfr.prototypes import PrototypeStore, fit_class_statistics, register
from pgpfr.replay import generate_pseudo_batch
from conftest import covariance, dense_covariances, random_store


class TestFitClassStatistics:
    def test_constant_rows(self):
        store = fit_class_statistics([[2.0, 5.0]] * 4, [1, 1, 1, 1])
        assert store.ids.tolist() == [1]
        assert np.allclose(store.prototypes[0], [2, 5])
        assert np.allclose(dense_covariances(store)[0], 0.0)
        assert store.r_max == 2   # min(4 rows, D = 2): the row count sizes the root

    def test_single_row_zero_covariance(self):
        store = fit_class_statistics([[1.0, -1.0]], [3])
        assert np.allclose(store.prototypes[0], [1, -1])
        assert store.r_max == 0 and store.roots.shape == (0, 2)
        assert np.allclose(dense_covariances(store)[0], 0.0)

    def test_hand_computed(self):
        store = fit_class_statistics([[0, 0], [2, 0]], [0, 0])
        assert np.allclose(store.prototypes[0], [1, 0])
        assert np.allclose(dense_covariances(store)[0], [[2, 0], [0, 0]])

    def test_empty(self):
        with pytest.raises(InvalidArgumentError):
            fit_class_statistics(np.empty((0, 2)), [])

    def test_permutation_invariance(self, rng):
        feats = rng.normal(size=(30, 4))
        labels = rng.integers(0, 3, size=30)
        perm = rng.permutation(30)
        a = fit_class_statistics(feats, labels)
        b = fit_class_statistics(feats[perm], labels[perm])
        assert np.array_equal(a.ids, b.ids) and a.roots.shape == b.roots.shape
        assert np.abs(a.prototypes - b.prototypes).max() < 1e-12
        assert np.abs(dense_covariances(a) - dense_covariances(b)).max() < 1e-12


class TestCovarianceForms:
    @pytest.mark.parametrize("n, dim", [
        (2, 6), (5, 11), (20, 64), (1, 3), (1, 2), (2, 5), (3, 6), (3, 7), (4, 8),
        (20, 512), (64, 64), (200, 64)])
    def test_dense_view_matches_covariance(self, rng, n, dim):
        rows = rng.normal(size=(n, dim)) * 3.0 + rng.normal(size=dim)
        store = fit_class_statistics(rows, [7] * n)
        assert store.roots.shape == ((min(n, dim) if n >= 2 else 0), dim)
        cov = dense_covariances(store)[0]
        assert cov.shape == (dim, dim)
        assert np.abs(cov - covariance(rows)).max() < 1e-12
        assert np.array_equal(cov, cov.T)

    def test_factor_class_holds_no_dense_matrix(self, rng):
        store = fit_class_statistics(rng.normal(size=(20, 512)), [0] * 20)
        held = sum(v.nbytes for v in vars(store).values() if isinstance(v, np.ndarray))
        assert held == (20 + 1) * 512 * 8 + 8   # root, prototype and id


def batch_prototypes(features, labels, batch_sizes=None) -> np.ndarray:
    """Each row's batch class prototype as `generate_pseudo_batch` translates
    by it: against one old class at the origin, a pseudo row is f - mu_hat."""
    features = np.asarray(features, dtype=np.float64)
    origin = PrototypeStore([0], np.zeros((1, features.shape[1])))
    return features - generate_pseudo_batch(features, labels, origin, batch_sizes)[0]


class TestDerivedCovariances:
    """The (D, No * D) dense covariance block [C_1 ... C_No] a store derives
    from its roots."""

    def test_matches_the_roots(self, rng):
        store = fit_class_statistics(rng.normal(size=(23, 5)), np.repeat([4, 0, 9], [1, 12, 10]))
        assert store.covariances.shape == (5, 3 * 5)
        assert store.covariances.flags.c_contiguous
        block = store.covariances.reshape(5, 3, 5).transpose(1, 0, 2)
        assert np.abs(block - dense_covariances(store)).max() < 1e-12
        assert all(np.array_equal(c, c.T) for c in block)
        assert block[0].any() and not block[1].any()   # class 4 has one row: zero

    def test_read_only_and_built_once(self, rng):
        store = random_store(rng, 3, 4)
        block = store.covariances
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
        assert store.covariances is block

    def test_empty_store(self):
        assert PrototypeStore().covariances.shape == (0, 0)


class TestBatchClassPrototypes:
    """Batch class prototypes, the mean of one label's rows within one batch,
    which pseudo-feature generation groups and translates by."""

    def test_midpoint(self):
        assert np.allclose(batch_prototypes([[1, 0], [3, 0]], [5, 5]), [[2, 0]] * 2)

    def test_singletons(self):
        assert np.allclose(batch_prototypes([[1, 2], [3, 4]], [0, 1]), [[1, 2], [3, 4]])
        assert np.allclose(batch_prototypes([[1, 2], [3, 4]], [0, 0], [1, 1]),
                           [[1, 2], [3, 4]])

    def test_mixed_batch(self):
        assert np.allclose(batch_prototypes([[0, 0], [2, 2], [4, 0]], [1, 1, 0]),
                           [[1, 1], [1, 1], [4, 0]])

    @pytest.mark.parametrize("n, dim, n_labels", [(32, 64, 15), (7, 3, 7), (200, 5, 2)])
    def test_matches_masked_means(self, rng, n, dim, n_labels):
        feats = rng.normal(size=(n, dim))
        labels = rng.integers(0, n_labels, size=n) * 3 + 1
        sizes = [min(8, n - i) for i in range(0, n, 8)]   # the last batch may be short
        batch = np.repeat(np.arange(len(sizes)), sizes)
        protos = batch_prototypes(feats, labels, sizes)
        for b, cid in set(zip(batch.tolist(), labels.tolist())):
            sel = (batch == b) & (labels == cid)
            assert np.abs(protos[sel] - feats[sel].mean(axis=0)).max() < 1e-12

    def test_full_dataset_matches_fit(self, rng):
        # one batch of every row translates by exactly the fitted prototypes
        feats = rng.normal(size=(40, 3))
        labels = rng.integers(0, 4, size=40)
        store = random_store(rng, 3, 3)
        fit = fit_class_statistics(feats, labels)
        best = cosine_sim(fit.prototypes, store.prototypes).argmax(axis=1)
        at = np.searchsorted(fit.ids, labels)
        px, py = generate_pseudo_batch(feats, labels, store)
        assert np.array_equal(px, feats + (store.prototypes[best] - fit.prototypes)[at])
        assert np.array_equal(py, store.ids[best][at])

    def test_empty(self):
        with pytest.raises(InvalidArgumentError):
            batch_prototypes(np.empty((0, 2)), [])


def _store(ids, dim=2):
    """Zero prototypes and empty roots for the given ascending ids."""
    return PrototypeStore(ids, np.zeros((len(ids), dim)))


class TestRegister:
    def test_grow_from_empty(self):
        store = register(PrototypeStore(), _store([0]))
        assert len(store) == 1 and store.ids.tolist() == [0]

    def test_duplicate_rejected(self):
        store = register(PrototypeStore(), _store([0, 1]))
        with pytest.raises(InvalidStateError, match="class 1 already registered"):
            register(store, _store([1, 4]))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError, match="dim 3 into a store of dim 2"):
            register(_store([0]), _store([1], dim=3))

    def test_counting_and_order(self):
        store = register(PrototypeStore(), _store(list(range(8))))
        store = register(store, _store([8]))
        assert len(store) == 9
        assert store.ids.tolist() == list(range(9))

    @given(dim=st.integers(1, 5),
           tasks=st.lists(st.lists(st.integers(1, 8), min_size=1, max_size=4),
                          min_size=1, max_size=4),
           seed=st.integers(0, 2**16))
    # r_max 0, then 3 (grows), then a part of r_max 2 into a block of 3
    @example(dim=3, tasks=[[1, 1], [5, 2], [2]], seed=0)
    # r_max 2, then 3, then a part with no root rows at all
    @example(dim=3, tasks=[[2], [5, 1], [1, 1]], seed=1)
    @settings(max_examples=60, deadline=None)
    def test_per_task_fits_equal_one_fit(self, dim, tasks, seed):
        """Registering per-task stores, whose class ids interleave, gives the
        arrays of one fit over all rows; a class may have n < 2 or n > D."""
        rng = np.random.default_rng(seed)
        counts = [n for task in tasks for n in task]
        class_ids = rng.permutation(len(counts)) * 2 + 1     # tasks interleave in id
        labels = rng.permutation(np.repeat(class_ids, counts))
        feats = rng.normal(size=(len(labels), dim)) * 2.0
        task_of = np.repeat(np.arange(len(tasks)), [len(t) for t in tasks])
        store = PrototypeStore()
        for t in range(len(tasks)):
            sel = np.isin(labels, class_ids[task_of == t])
            store = register(store, fit_class_statistics(feats[sel], labels[sel]))
        whole = fit_class_statistics(feats, labels)
        for name in ("ids", "prototypes", "roots"):
            assert np.array_equal(getattr(store, name), getattr(whole, name)), name
        assert store.r_max == whole.r_max


class TestPackedStore:
    def _fit(self, rng, counts=(1, 3, 12, 5), dim=8, ids=(7, 2, 11, 4)):
        feats = rng.normal(size=(sum(counts), dim))
        labels = np.repeat(ids, counts)
        return feats, labels, fit_class_statistics(feats, labels)

    def test_ascending_ids_and_padded_slots(self, rng):
        feats, labels, store = self._fit(rng)
        assert store.ids.tolist() == [2, 4, 7, 11]
        assert store.r_max == 8 and store.roots.shape == (4 * 8, 8)
        slots = store.roots.reshape(4, 8, 8)
        for k, cid in enumerate(store.ids):
            rows = feats[labels == cid]
            r = min(len(rows), 8) if len(rows) >= 2 else 0
            root = np.linalg.qr((rows - rows.mean(axis=0)) / np.sqrt(max(len(rows) - 1, 1)),
                                mode="r")
            assert np.abs(slots[k, :r] - root[:r]).max(initial=0.0) < 1e-12
            assert not slots[k, r:].any()
            assert np.abs(store.prototypes[k] - rows.mean(axis=0)).max() < 1e-12

    def test_each_root_held_once(self, rng):
        _, _, store = self._fit(rng)
        arrays = [v for v in vars(store).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 3
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])
        assert sum(a.nbytes for a in arrays) == (4 + 4 * 8 + 4 * 8 * 8) * 8

    def test_packed_arrays_are_read_only(self, rng):
        _, _, store = self._fit(rng)
        for name in ("ids", "prototypes", "roots"):
            with pytest.raises(ValueError):
                getattr(store, name)[0] = 1
        merged = register(store, _store([20], dim=8))
        assert not any(a.flags.writeable for a in vars(merged).values())

    def test_empty_store(self):
        store = PrototypeStore()
        assert len(store) == 0 and store.ids.shape == (0,) and store.r_max == 0

    def test_dims_must_agree(self):
        with pytest.raises(InvalidArgumentError, match="store arrays disagree"):
            PrototypeStore([0, 1], np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("ids, protos, roots", [
        ([0, 1], (1, 2), (0, 2)),      # one prototype for two ids
        ([0, 1], (3, 2), (0, 2)),      # three prototypes for two ids
        ([0, 1], (2, 2), (3, 2)),      # root rows not a multiple of No
        ([], (0, 2), (1, 2)),          # root rows without classes
        ([[0, 1]], (2, 2), (0, 2)),    # ids not a vector
        ([0, 1], (2, 2), (2,)),        # roots not a matrix
    ])
    def test_shapes_must_agree(self, ids, protos, roots):
        with pytest.raises(InvalidArgumentError, match="store arrays disagree"):
            PrototypeStore(ids, np.zeros(protos), np.zeros(roots))

    @pytest.mark.parametrize("ids", [[1, 0], [3, 3], [0, 2, 1]])
    def test_ids_must_ascend(self, ids):
        n = len(ids)
        with pytest.raises(InvalidArgumentError, match="ids must ascend"):
            PrototypeStore(ids, np.zeros((n, 2)))
