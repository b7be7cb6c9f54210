from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densemulticut import core
from densemulticut.core import (
    AlphaSign,
    ContractionForest,
    ContractionState,
    FeatureMatrix,
    Partition,
    SparseWeightedGraph,
    _extended_rows,
    canonical_labels,
    enumerate_optimal,
    materialize_cost_matrix,
    objective,
    similarity,
)
from densemulticut.errors import ArgumentError, CapacityError, StateError

from conftest import make_instance


def fm_from(rows, alpha=None, sign=AlphaSign.OFF):
    fm = FeatureMatrix(np.asarray(rows, dtype=np.float32))
    if alpha is not None:
        fm = fm.with_affinity(alpha, sign)
    return fm


def brute_objective(instance, labels):
    """Independent pairwise recomputation of the cut cost."""
    if isinstance(instance, SparseWeightedGraph):
        return sum(c for u, v, c in instance.edges() if labels[u] != labels[v])
    total = 0.0
    for i in range(instance.n):
        for j in range(i + 1, instance.n):
            if labels[i] != labels[j]:
                total += similarity(instance, i, j)
    return total


def all_partitions(n):
    """Every set partition of range(n) as a canonical label list."""
    if n == 1:
        yield [0]
        return
    for rest in all_partitions(n - 1):
        k = max(rest) + 1
        for c in range(k + 1):
            yield rest + [c]


class TestFeatureMatrix:
    def test_basic_shape(self):
        fm = fm_from([[1.0, 0.0], [0.0, 1.0]])
        assert fm.n == 2 and fm.d == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ArgumentError):
            fm_from([[np.nan, 0.0]])

    def test_rejects_empty(self):
        with pytest.raises(ArgumentError):
            FeatureMatrix(np.zeros((0, 3), dtype=np.float32))

    def test_rejects_negative_alpha(self):
        with pytest.raises(ArgumentError):
            FeatureMatrix(
                np.ones((2, 2), dtype=np.float32),
                np.array([0.5, -0.1], dtype=np.float32),
                AlphaSign.MINUS,
            )

    def test_with_affinity_keeps_per_node_alphas(self):
        fm = FeatureMatrix(
            np.ones((3, 2), dtype=np.float32),
            np.array([0.1, 0.2, 0.3], dtype=np.float32),
            AlphaSign.OFF,
        )
        out = fm.with_affinity(0.9, AlphaSign.MINUS)
        assert np.allclose(out.alpha, [0.1, 0.2, 0.3])
        assert out.alpha_sign is AlphaSign.MINUS

    def test_data_is_immutable(self):
        fm = fm_from([[1.0, 2.0]])
        with pytest.raises(ValueError):
            fm.data[0, 0] = 3.0


class TestSimilarity:
    def test_orthogonal_vectors(self):
        fm = fm_from([[1, 0], [0, 1]])
        assert similarity(fm, 0, 1) == 0.0

    def test_affinity_minus_parallel(self):
        fm = fm_from([[1, 0], [1, 0]], alpha=0.4, sign=AlphaSign.MINUS)
        # f32 storage of alpha=0.4 shifts the product by ~1e-8
        assert similarity(fm, 0, 1) == pytest.approx(0.84, abs=1e-7)

    def test_affinity_minus_orthogonal(self):
        fm = fm_from([[1, 0], [0, 1]], alpha=0.4, sign=AlphaSign.MINUS)
        assert similarity(fm, 0, 1) == pytest.approx(-0.16, abs=1e-7)

    def test_affinity_plus(self):
        fm = fm_from([[1, 0], [0, 1]], alpha=0.4, sign=AlphaSign.PLUS)
        assert similarity(fm, 0, 1) == pytest.approx(0.16, abs=1e-7)

    def test_invalid_node(self):
        fm = fm_from([[1, 0], [0, 1]])
        with pytest.raises(ArgumentError):
            similarity(fm, 0, 2)
        with pytest.raises(ArgumentError):
            similarity(fm, 1, 1)

    def test_symmetry(self):
        fm = make_instance(20, 5, seed=3, alpha=0.4, sign=AlphaSign.MINUS)
        for i, j in [(0, 1), (3, 17), (19, 4)]:
            assert similarity(fm, i, j) == similarity(fm, j, i)


class TestAggregate:
    def test_componentwise_addition(self):
        fm = fm_from([[1, 2], [3, -1], [0, 0]])
        state = ContractionState(fm)
        m = state.contract(0, 1)
        assert np.array_equal(state.packed[state.slot[m]], [4.0, 1.0])

    def test_alpha_addition(self):
        fm = fm_from([[1, 2], [3, -1]], alpha=0.4, sign=AlphaSign.MINUS)
        state = ContractionState(fm)
        m = state.contract(0, 1)
        assert state.packed[state.slot[m], -1] == pytest.approx(0.8, abs=1e-7)

    def test_merged_similarity_is_additive_exact_integers(self):
        # integer-valued features: the additivity identity holds exactly
        fm = fm_from([[1, 2], [3, -1], [2, 5]])
        state = ContractionState(fm)
        s_il = state.sim(0, 2)
        s_jl = state.sim(1, 2)
        m = state.contract(0, 1)
        assert state.sim(m, 2) == s_il + s_jl

    def test_dead_node_rejected(self):
        fm = fm_from([[1, 2], [3, -1], [2, 5]])
        state = ContractionState(fm)
        state.contract(0, 1)
        with pytest.raises(StateError):
            state.contract(0, 2)

    def test_sim_of_dead_node_rejected(self):
        # a dead node has no row; its slot must not read another node's
        state = ContractionState(fm_from([[1, 2], [3, -1], [2, 5]]))
        m = state.contract(0, 2)
        for i, j in ((0, 1), (1, 2), (m, 0)):
            with pytest.raises(StateError):
                state.sim(i, j)

    @pytest.mark.parametrize("sign", [AlphaSign.OFF, AlphaSign.PLUS, AlphaSign.MINUS])
    def test_merged_similarity_additivity_random(self, sign):
        # random contractions: additivity within 1e-9 relative
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(3, 50))
            d = int(rng.integers(1, 16))
            alpha = None if sign is AlphaSign.OFF else 0.4
            fm = make_instance(n, d, seed=100 + trial, alpha=alpha, sign=sign)
            state = ContractionState(fm)
            for _ in range(int(rng.integers(1, n - 1))):
                ids = state.alive_ids()
                i, j = rng.choice(ids, size=2, replace=False)
                pre = {
                    int(l): state.sim(int(i), int(l)) + state.sim(int(j), int(l))
                    for l in ids
                    if l not in (i, j)
                }
                m = state.contract(int(i), int(j))
                for l, expected in pre.items():
                    got = state.sim(m, l)
                    assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestObjective:
    def test_single_cluster_zero(self):
        fm = fm_from([[1, 0], [1, 0], [0, 1]])
        assert objective(fm, [0, 0, 0]) == 0.0

    def test_two_cut_edges_cancel(self):
        fm = fm_from([[1, 0], [1, 0], [0, 1]])
        assert objective(fm, [0, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_affinity_minus_cut(self):
        fm = fm_from([[1, 0], [1, 0], [0, 1]], alpha=0.4, sign=AlphaSign.MINUS)
        assert objective(fm, [0, 0, 1]) == pytest.approx(-0.32, abs=1e-7)

    def test_length_mismatch(self):
        fm = fm_from([[1, 0], [0, 1]])
        with pytest.raises(ArgumentError):
            objective(fm, [0, 1, 1])

    def test_matches_brute_force(self):
        for seed in range(5):
            fm = make_instance(17, 4, seed=seed, alpha=0.4, sign=AlphaSign.MINUS)
            rng = np.random.default_rng(seed)
            labels = rng.integers(0, 4, size=17)
            got = objective(fm, labels)
            want = brute_objective(fm, labels)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_sparse_graph_path(self):
        g = SparseWeightedGraph.from_edges(4, [(0, 1, 2.0), (1, 2, -1.5), (2, 3, 0.5)])
        assert objective(g, [0, 0, 1, 1]) == pytest.approx(-1.5)
        assert objective(g, [0, 1, 2, 3]) == pytest.approx(1.0)

    def test_dense_matches_materialized(self):
        fm = make_instance(30, 6, seed=9, alpha=0.4, sign=AlphaSign.MINUS)
        g = materialize_cost_matrix(fm)
        rng = np.random.default_rng(2)
        for _ in range(5):
            labels = rng.integers(0, 5, size=30)
            a = objective(fm, labels)
            b = objective(g, labels)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


@st.composite
def degenerate_instance(draw):
    """Small integer-valued rows at one scale, with duplicate and zero rows
    common, an affinity sign and arbitrary (non-contiguous) labels."""
    n = draw(st.integers(1, 9))
    d = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 1e-3, 0.37, 1e4]))
    pool = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=d, max_size=d),
            min_size=1,
            max_size=n,
        )
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    rows = np.array([pool[p] for p in picks], dtype=np.float64) * scale
    sign = draw(st.sampled_from([AlphaSign.PLUS, AlphaSign.MINUS, AlphaSign.OFF]))
    alpha = draw(st.sampled_from([0.0, 0.5, 3.0])) * scale
    labels = draw(st.lists(st.integers(-5, 40), min_size=n, max_size=n))
    return fm_from(rows, alpha=alpha, sign=sign), np.array(labels)


class TestObjectiveDegenerate:
    @settings(max_examples=200, deadline=None)
    @given(case=degenerate_instance())
    def test_matches_brute_force(self, case):
        fm, labels = case
        abs_total = sum(
            abs(similarity(fm, i, j)) for i in range(fm.n) for j in range(i + 1, fm.n)
        )
        got = objective(fm, labels)
        assert abs(got - brute_objective(fm, labels)) <= 1e-9 * max(1.0, abs_total)
        assert objective(fm, canonical_labels(labels)) == pytest.approx(
            got, rel=1e-12, abs=1e-12 * max(1.0, abs_total)
        )
        assert objective(fm, np.full(fm.n, labels[0])) == 0.0

    def test_single_cluster_is_exactly_zero(self):
        fm = make_instance(50, 7, seed=3, alpha=0.4, sign=AlphaSign.MINUS, scale=1e3)
        assert objective(fm, np.zeros(50, dtype=np.int64)) == 0.0
        assert objective(fm, np.full(50, 9)) == 0.0

    def test_non_contiguous_labels(self):
        fm = fm_from([[1, 0.5], [1, 0], [0.25, 1]], alpha=0.4, sign=AlphaSign.MINUS)
        assert objective(fm, [5, 5, 2]) == objective(fm, [0, 0, 1])
        assert objective(fm, [7, -1, 7]) == pytest.approx(objective(fm, [0, 1, 0]))


def whole_copy_objective(fm, labels):
    """The dense objective with every cluster sum taken from one float64
    copy of all the features, in the same order of operations."""
    labels = np.asarray(labels, dtype=np.int64)
    order = np.argsort(labels, kind="stable")
    grouped = labels[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    x_c = np.add.reduceat(fm.data[order].T.astype(np.float64, order="C"), starts, axis=1)
    total = float(np.einsum("ij,ij->", x_c, x_c.sum(axis=1, keepdims=True) - x_c))
    if fm.alpha_sign is not AlphaSign.OFF and fm.alpha is not None:
        a_c = np.add.reduceat(fm.alpha[order].astype(np.float64), starts)
        total += fm.alpha_sign.factor * float(a_c @ (a_c.sum() - a_c))
    return total / 2.0


def stacked_extended_rows(fm):
    """:func:`_extended_rows` from a float64 copy of the features with the
    affinity column stacked on, the query side negated under MINUS."""
    base = fm.data.astype(np.float64)
    if fm.alpha_sign is AlphaSign.OFF or fm.alpha is None:
        return base, base
    db = np.hstack([base, fm.alpha.astype(np.float64)[:, None]])
    if fm.alpha_sign is AlphaSign.PLUS:
        return db, db
    qr = db.copy()
    qr[:, -1] = -qr[:, -1]
    return qr, db


def float_bits(x):
    return np.float64(x).view(np.uint64)


SIGNS = [AlphaSign.PLUS, AlphaSign.MINUS, AlphaSign.OFF]


class TestBoundedTemporaries:
    # the chunked objective and the in-place extended rows must give the
    # bits of the whole copies they replace
    @pytest.mark.parametrize("sign", SIGNS)
    @pytest.mark.parametrize("d", [1, 15, 16, 17, 129])
    def test_chunked_objective_equals_one_whole_copy(self, d, sign):
        n = 300
        rng = np.random.default_rng(d)
        rows = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        fm = fm_from(rows, alpha=0.7, sign=sign)
        partitions = (rng.integers(0, 7, n), rng.integers(0, n, n), np.zeros(n))
        # 16 features per chunk, so d = 15, 16, 17 and 129 end a chunk
        # before, at and after a boundary
        with mock.patch.object(core, "_SUM_BYTES", 16 * 8 * n):
            for labels in partitions:
                got = objective(fm, labels)
                assert float_bits(got) == float_bits(whole_copy_objective(fm, labels))

    @pytest.mark.parametrize("sign", SIGNS)
    @pytest.mark.parametrize("alpha", [None, 0.4])
    @pytest.mark.parametrize("d", [1, 7, 33])
    def test_extended_rows_equal_stacked_copies(self, d, alpha, sign):
        # d = 7 gives rows of 8 float64, a 64-byte stride for the affinity
        # column
        fm = make_instance(50, d, seed=d, alpha=alpha, sign=sign)
        qr, db = _extended_rows(fm)
        qr0, db0 = stacked_extended_rows(fm)
        assert (qr is db) == (qr0 is db0)
        for got, want in ((qr, qr0), (db, db0)):
            assert got.flags.c_contiguous and got.dtype == np.float64
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestMaterialize:
    def test_edge_counts(self):
        assert materialize_cost_matrix(make_instance(2, 3, seed=0)).n_edges == 1
        assert materialize_cost_matrix(make_instance(5, 3, seed=0)).n_edges == 10

    def test_costs_match_similarity(self):
        fm = make_instance(12, 5, seed=4, alpha=0.3, sign=AlphaSign.PLUS)
        g = materialize_cost_matrix(fm)
        for u, v, c in g.edges():
            assert c == pytest.approx(similarity(fm, u, v), rel=1e-12, abs=1e-15)

    def test_capacity(self):
        fm = make_instance(100, 2, seed=0)
        with pytest.raises(CapacityError):
            materialize_cost_matrix(fm, max_edges=1000)


class TestSparseWeightedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ArgumentError):
            SparseWeightedGraph.from_edges(3, [(1, 1, 0.5)])

    def test_rejects_duplicates(self):
        with pytest.raises(ArgumentError):
            SparseWeightedGraph.from_edges(3, [(0, 1, 0.5), (1, 0, 0.2)])

    def test_normalizes_orientation(self):
        g = SparseWeightedGraph.from_edges(3, [(2, 0, 0.5)])
        assert g.edges() == [(0, 2, 0.5)]


class TestContractionForest:
    def test_fresh_ids_and_alive_count(self):
        f = ContractionForest(4)
        m = f.merge(0, 1)
        assert m == 4
        assert f.n_alive == 3
        m2 = f.merge(m, 2)
        assert m2 == 5
        assert f.n_alive == 2

    def test_resolution(self):
        f = ContractionForest(4)
        m = f.merge(0, 1)
        f.merge(m, 3)
        labels = f.labels()
        assert labels[0] == labels[1] == labels[3]
        assert labels[2] != labels[0]

    def test_merge_dead_raises(self):
        f = ContractionForest(3)
        f.merge(0, 1)
        with pytest.raises(StateError):
            f.merge(0, 2)


class TestEnumerateOptimal:
    def test_single_node(self):
        part, value = enumerate_optimal(fm_from([[1.0, 0.0]]))
        assert value == 0.0
        assert part.n_clusters == 1

    def test_antipodal_pair_split(self):
        fm = fm_from([[1, 0], [1, 0], [-1, 0]])
        part, value = enumerate_optimal(fm)
        assert value == pytest.approx(-2.0, abs=1e-12)
        assert list(part.labels) == [0, 0, 1]

    def test_affinity_minus_split(self):
        fm = fm_from([[1, 0], [1, 0], [0, 1]], alpha=0.4, sign=AlphaSign.MINUS)
        part, value = enumerate_optimal(fm)
        assert value == pytest.approx(-0.32, abs=1e-7)
        assert list(part.labels) == [0, 0, 1]

    def test_capacity_error(self):
        fm = make_instance(13, 2, seed=0)
        with pytest.raises(CapacityError):
            enumerate_optimal(fm)

    def test_matches_independent_enumeration(self):
        # second, structurally different enumeration as a cross-check
        for seed in range(8):
            n = 4 + seed % 4
            fm = make_instance(n, 3, seed=seed, alpha=0.4, sign=AlphaSign.MINUS)
            _, value = enumerate_optimal(fm)
            best = min(brute_objective(fm, labels) for labels in all_partitions(n))
            assert value == pytest.approx(best, rel=1e-9, abs=1e-12)

    def test_tie_breaks_toward_fewer_clusters(self):
        # orthogonal vectors: every partition has objective 0
        fm = fm_from([[1, 0], [0, 1]])
        part, value = enumerate_optimal(fm)
        assert value == 0.0
        assert part.n_clusters == 1

    def test_sparse_instance(self):
        g = SparseWeightedGraph.from_edges(
            3, [(0, 1, 1.0), (0, 2, -1.0), (1, 2, -1.0)]
        )
        part, value = enumerate_optimal(g)
        assert value == pytest.approx(-2.0)
        assert list(part.labels) == [0, 0, 1]


class TestPartition:
    def test_contiguity_required(self):
        with pytest.raises(ArgumentError):
            Partition(np.array([0, 2]), 2, 0.0)

    def test_objective_consistency_invariant(self):
        fm = make_instance(15, 4, seed=11, alpha=0.4, sign=AlphaSign.MINUS)
        labels = np.random.default_rng(0).integers(0, 3, size=15)
        from densemulticut.core import canonical_labels

        labels = canonical_labels(labels)
        obj = objective(fm, labels)
        part = Partition(labels, int(labels.max()) + 1, obj)
        assert part.objective == pytest.approx(objective(fm, part.labels), rel=1e-9)


def assert_packed_consistent(state):
    """Slots name the alive ids, and each alive row is the sum of the input
    rows of its cluster's original nodes (exact for integer features)."""
    n = state.n_alive
    order = state.order[:n]
    assert np.array_equal(np.sort(order), state.alive_ids())
    root = state.forest.parent
    while not np.array_equal(root[root], root):
        root = root[root]
    qr0, db0 = _extended_rows(state.fm)
    assert (state.query_sign is None) == (qr0 is db0)
    for u in order.tolist():
        members = np.flatnonzero(root[: state.n0] == u)
        assert np.array_equal(state.packed[state.slot[u]], db0[members].sum(axis=0))
        assert np.array_equal(state.query_row(u), qr0[members].sum(axis=0))
    assert np.array_equal(state.slot[order], np.arange(n))
    assert (state.slot[~state.alive] == -1).all()


class TestPackedRows:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 40),
        d=st.integers(1, 3),
        sign=st.sampled_from([AlphaSign.PLUS, AlphaSign.MINUS, AlphaSign.OFF]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_packed_rows_follow_random_merges(self, n, d, sign, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(-2, 3, size=(n, d)).astype(np.float32)
        state = ContractionState(FeatureMatrix(data).with_affinity(0.5, sign))
        assert_packed_consistent(state)
        for _ in range(int(rng.integers(1, n))):
            i, j = rng.choice(state.alive_ids(), size=2, replace=False)
            state.contract(int(i), int(j))
            assert_packed_consistent(state)

    @pytest.mark.parametrize("sign", [AlphaSign.PLUS, AlphaSign.MINUS, AlphaSign.OFF])
    def test_rows_only_of_the_input_nodes(self, sign):
        # one float64 row per input node under every sign, no row for the
        # merged ids a solve creates, and a sign row only under MINUS
        n, d = 9, 3
        state = ContractionState(make_instance(n, d, seed=5, alpha=0.4, sign=sign))
        rows = {
            id(a): a
            for a in vars(state).values()
            if isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 2
        }
        assert sum(a.nbytes for a in rows.values()) == n * state.dim * 8
        assert (state.query_sign is None) == (sign is not AlphaSign.MINUS)

    def test_rejected_contraction_writes_nothing(self):
        state = ContractionState(make_instance(6, 3, seed=4, alpha=0.4, sign=AlphaSign.MINUS))
        m = state.contract(1, 4)
        before = [a.copy() for a in (state.packed, state.order, state.slot)]
        for i, j, err in ((2, 2, ArgumentError), (1, 3, StateError), (3, 4, StateError)):
            with pytest.raises(err):
                state.contract(i, j)
        after = (state.packed, state.order, state.slot)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert state.n_alive == 5 and state.alive[m]
        assert_packed_consistent(state)
