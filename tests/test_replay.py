import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pgpfr.errors import InvalidArgumentError, InvalidStateError
from pgpfr.numerics import ZERO_NORM_EPS
from pgpfr.prototypes import PrototypeStore
from pgpfr.replay import generate_pseudo_batch, merge
from conftest import covariance, random_store

coords = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_subnormal=False)


def store_with_protos(protos):
    """A store of the given {class id: prototype}, in any id order, with
    empty roots."""
    ids = sorted(protos)
    return PrototypeStore(ids, [protos[cid] for cid in ids])


def proto_of(store, cid) -> np.ndarray:
    return store.prototypes[np.searchsorted(store.ids, cid)]


def assigned_label(batch_proto, store) -> int:
    """Pseudo label of a one-row batch, whose prototype is that row."""
    return int(generate_pseudo_batch([batch_proto], [99], store)[1][0])


def reference_label(batch_proto, store) -> tuple[int, dict]:
    """Per-pair cosine argmax with plain np.dot; ties -> smallest id."""
    u = np.asarray(batch_proto, dtype=float)
    scores = {}
    for cid, v in zip(store.ids.tolist(), store.prototypes):
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        scores[cid] = 0.0 if nu < ZERO_NORM_EPS or nv < ZERO_NORM_EPS \
            else float(np.dot(u, v) / (nu * nv))
    best = max(scores.values())
    return min(cid for cid, s in scores.items() if s == best), scores


class TestAssignPseudoLabel:
    def test_exact_match_wins(self):
        store = store_with_protos({0: [1, 0], 1: [0, 1], 2: [-1, 0]})
        assert assigned_label([0, 1], store) == 1

    def test_single_class_store(self):
        store = store_with_protos({4: [3, 3]})
        assert assigned_label([-10, 2], store) == 4

    def test_computed_cosines(self):
        store = store_with_protos({0: [0.9, 0.1], 1: [-1, 0]})
        assert assigned_label([1, 0], store) == 0

    def test_tie_breaks_to_smallest_id(self):
        store = store_with_protos({3: [1, 0], 1: [2, 0]})  # both cosine 1
        assert assigned_label([5, 0], store) == 1

    def test_empty_store(self):
        with pytest.raises(InvalidStateError):
            generate_pseudo_batch([[1.0, 0.0]], [99], PrototypeStore())

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_pair_cosine_argmax(self, data):
        dim = data.draw(st.integers(1, 40), label="dim")
        vec = st.lists(coords, min_size=dim, max_size=dim)
        ids = data.draw(st.lists(st.integers(0, 50), min_size=1, max_size=12, unique=True),
                        label="store ids (insertion order)")
        protos = {cid: data.draw(vec, label=f"prototype {cid}") for cid in ids}
        # exact duplicates force ties between distinct ids
        for cid in data.draw(st.lists(st.sampled_from(ids), max_size=3), label="copies"):
            protos[cid] = protos[data.draw(st.sampled_from(ids), label="copied from")]
        store = store_with_protos(protos)
        groups = data.draw(st.lists(vec, min_size=1, max_size=4), label="group rows")
        rows = [np.asarray(g, dtype=float) for g in groups]
        labels = list(range(len(rows)))
        if data.draw(st.booleans(), label="zero-prototype group"):
            rows += [rows[0], -rows[0]]  # its mean is exactly 0
            labels += [len(groups), len(groups)]
        rows, labels = np.asarray(rows), np.asarray(labels)
        px, py = generate_pseudo_batch(rows, labels, store)
        for g in np.unique(labels):
            sel = labels == g
            proto = rows[sel].mean(axis=0)
            expected, scores = reference_label(proto, store)
            # a near-tie between different prototypes may round either way
            top = [cid for cid, s in scores.items() if s >= scores[expected] - 1e-9]
            assume(all(np.array_equal(protos[c], protos[expected]) for c in top)
                   or np.linalg.norm(proto) < ZERO_NORM_EPS)
            assert (py[sel] == expected).all()
            translated = rows[sel] + proto_of(store, expected) - proto
            assert np.abs(px[sel] - translated).max() < 1e-12


class TestGeneratePseudoBatch:
    def test_prototype_coincidence(self):
        # batch prototype equals the stored prototype: translation is zero
        feats = np.array([[1.0, 0.0], [3.0, 0.0]])  # group mean [2, 0]
        store = store_with_protos({0: [2, 0]})
        px, py = generate_pseudo_batch(feats, [7, 7], store)
        assert np.allclose(px, feats)
        assert (py == 0).all()

    def test_single_sample_group_lands_on_prototype(self):
        store = store_with_protos({0: [5, 5]})
        px, _ = generate_pseudo_batch([[1.0, 2.0]], [9], store)
        assert np.allclose(px, [[5, 5]])

    def test_translation_arithmetic(self):
        # f + mu_p - mu_hat = [1,1] + [3,0] - [1,0] = [3,1], and [3,-1] for [1,-1]
        store = store_with_protos({0: [3, 0]})
        px, _ = generate_pseudo_batch([[1.0, 1.0], [1.0, -1.0]], [4, 4], store)
        assert np.allclose(px, [[3, 1], [3, -1]])

    def test_whole_task_prototypes_beyond_the_batch(self):
        # an epoch of two batches with labels 9, 2 each: per batch, each row is
        # its group's only row and lands on its prototype; as one batch, the
        # label means [0.5, 3] and [2, 0.5] span both batches
        store = store_with_protos({0: [1, 0], 1: [0, 1]})
        feats = np.array([[1.0, 4.0], [3.0, 1.0], [0.0, 2.0], [1.0, 0.0]])
        labels = [9, 2, 9, 2]
        per_batch_x, per_batch_y = generate_pseudo_batch(feats, labels, store, [2, 2])
        whole_x, whole_y = generate_pseudo_batch(feats, labels, store)
        assert per_batch_y.tolist() == whole_y.tolist() == [1, 0, 1, 0]
        assert np.allclose(per_batch_x, [[0, 1], [1, 0], [0, 1], [1, 0]])
        assert np.allclose(whole_x, [[0.5, 2], [2, 0.5], [-0.5, 0], [0, -0.5]])

    @given(labels=st.lists(st.sampled_from([-2 ** 63, -3, -1, 0, 1, 2, 7, 2 ** 32,
                                            2 ** 32 + 1, 2 ** 63 - 1]),
                           min_size=1, max_size=40),
           batch_size=st.integers(1, 12), dim=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    # batch 0 / label 1 and batch 1 / label -1 share key 1 under
    # batch * (max + 1) + label; batch size 1
    @example(labels=[1, -1], batch_size=1, dim=2, seed=0)
    # single-group batches with a short final batch
    @example(labels=[7] * 6, batch_size=4, dim=3, seed=1)
    # large ids split over batches, short final batch
    @example(labels=[2 ** 32, 2 ** 32 + 1, -3, 2 ** 32, -3], batch_size=2, dim=2, seed=2)
    @settings(max_examples=80, deadline=None)
    def test_one_call_per_epoch_equals_one_call_per_batch(self, labels, batch_size,
                                                           dim, seed):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(len(labels), dim)) * 3.0
        store = random_store(rng, 4, dim)
        labels = np.array(labels, dtype=np.int64)
        bounds = list(range(0, len(labels), batch_size)) + [len(labels)]
        epoch_x, epoch_y = generate_pseudo_batch(feats, labels, store, np.diff(bounds))
        per_batch = [generate_pseudo_batch(feats[lo:hi], labels[lo:hi], store)
                     for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert np.array_equal(epoch_x, np.vstack([x for x, _ in per_batch]))
        assert np.array_equal(epoch_y, np.concatenate([y for _, y in per_batch]))

    def test_group_mean_fidelity_and_dispersion(self, rng):
        store = random_store(rng, 4, 5)
        feats = rng.normal(size=(24, 5))
        labels = rng.integers(10, 13, size=24)
        px, py = generate_pseudo_batch(feats, labels, store)
        for g in np.unique(labels):
            sel = labels == g
            p = int(py[sel][0])
            assert (py[sel] == p).all()
            assert np.abs(px[sel].mean(axis=0) - proto_of(store, p)).max() < 1e-9
            assert np.abs(covariance(px[sel]) - covariance(feats[sel])).max() < 1e-9

    def test_labels_always_old_classes(self, rng):
        store = random_store(rng, 3, 4)
        _, py = generate_pseudo_batch(rng.normal(size=(10, 4)),
                                      rng.integers(50, 53, size=10), store)
        assert set(int(l) for l in py) <= set(store.ids.tolist())

    def test_row_order_matches_input(self, rng):
        store = random_store(rng, 2, 3)
        feats = rng.normal(size=(6, 3))
        labels = np.array([1, 0, 1, 0, 1, 0]) + 100
        px, _ = generate_pseudo_batch(feats, labels, store)
        # each output row is its input row plus that group's fixed translation
        for g in (100, 101):
            sel = labels == g
            deltas = px[sel] - feats[sel]
            assert np.abs(deltas - deltas[0]).max() < 1e-12

    def test_errors(self, rng):
        with pytest.raises(InvalidStateError):
            generate_pseudo_batch([[1.0, 2.0]], [0], PrototypeStore())
        with pytest.raises(InvalidArgumentError):
            generate_pseudo_batch(np.empty((0, 2)), [], random_store(rng, 2, 2))

    @pytest.mark.parametrize("batch_sizes", [[1], [1, 2], [3, -1], [[2]], [1.5, 0.5]])
    def test_batch_sizes_must_split_the_rows(self, batch_sizes):
        store = store_with_protos({0: [1, 0]})
        with pytest.raises(InvalidArgumentError, match="do not split 2 rows"):
            generate_pseudo_batch([[1.0, 1.0], [2.0, 2.0]], [4, 5], store, batch_sizes)

    def test_store_dim_must_match_features(self):
        store = store_with_protos({0: [1, 0]})
        with pytest.raises(InvalidArgumentError, match=r"\(1, 3\) and \(1, 2\)"):
            generate_pseudo_batch([[1.0, 1.0, 1.0]], [4], store)

    @pytest.mark.parametrize("batch_sizes", [None, [1, 1]])
    def test_label_count_must_match_rows(self, batch_sizes):
        store = store_with_protos({0: [1, 0]})
        with pytest.raises(InvalidArgumentError, match="3 labels for 2 feature rows"):
            generate_pseudo_batch([[1.0, 1.0], [2.0, 2.0]], [4, 4, 4], store, batch_sizes)


class TestMerge:
    def test_empty_pseudo(self):
        feats, labels = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1])
        x, y = merge(np.empty((0, 2)), np.empty(0, dtype=np.int64), feats, labels)
        # the real arrays themselves, uncopied
        assert x is feats and y is labels

    def test_counting_and_mask(self, rng):
        store = random_store(rng, 2, 3)
        feats = rng.normal(size=(5, 3))
        px, py = generate_pseudo_batch(feats, [9] * 5, store)
        x, y = merge(px, py, feats, [9] * 5)
        assert len(x) == len(y) == 10

    def test_round_trip_split(self, rng):
        store = random_store(rng, 2, 3)
        feats = rng.normal(size=(4, 3))
        labels = np.array([7, 7, 8, 8])
        px, py = generate_pseudo_batch(feats, labels, store)
        x, y = merge(px, py, feats, labels)
        assert np.array_equal(x[:len(px)], px)
        assert np.array_equal(y[:len(px)], py)
        assert np.array_equal(x[len(px):], feats)
        assert np.array_equal(y[len(px):], labels)

    def test_dim_mismatch(self, rng):
        store = random_store(rng, 2, 3)
        px, py = generate_pseudo_batch(rng.normal(size=(2, 3)), [5, 5], store)
        with pytest.raises(InvalidArgumentError):
            merge(px, py, rng.normal(size=(2, 4)), [0, 0])
