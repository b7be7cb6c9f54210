import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densemulticut.ann import AnnParams, ExactIndex, ProximityGraphIndex, ann_default_build
from densemulticut.core import AlphaSign, ContractionState, FeatureMatrix
from densemulticut.errors import ArgumentError
from densemulticut.knn import _BLOCK, NeighbourLists, topk_exact

from conftest import simplex_centers


def synth_rows(n, d, k, sigma, seed):
    rng = np.random.default_rng(seed)
    centers = simplex_centers(k, d, rng)
    labels = rng.permutation(np.arange(n) % k)
    pts = centers[labels] + rng.normal(scale=sigma, size=(n, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts.astype(np.float64)


def whole_product_seed(db, qr, k, params, seed):
    """The default index's lists computed with the whole assignment
    product held at once: one argmax over all query rows, one
    ``flatnonzero`` pass per anchor group, probed anchors from a stable
    argsort and candidates from ``np.unique``; each row is ranked by one
    lexsort by (-sim, id). Returns the lists and the number of empty
    anchor groups."""
    n = db.shape[0]
    rng = np.random.default_rng(seed)
    n_anchor = min(n, max(8, int(4.0 * np.sqrt(n))))
    anchors = np.sort(rng.choice(n, size=n_anchor, replace=False))
    own = np.argmax(qr @ db[anchors].T, axis=1)
    members = [np.flatnonzero(own == c) for c in range(n_anchor)]
    anchor_sims = db[anchors] @ db[anchors].T
    probes = int(np.clip(round(params.ef_construction / max(1.0, n / n_anchor)), 2, n_anchor))
    near = np.argsort(-anchor_sims, axis=1, kind="stable")[:, :probes]
    keep = min(k, params.m_links)
    ids = np.full((n, k), -1, dtype=np.int64)
    sims = np.full((n, k), -np.inf)
    for c in range(n_anchor):
        cand = np.unique(np.concatenate([members[a] for a in near[c]]))
        for u in members[c]:
            others = cand[cand != u]
            row = qr[u] @ db[others].T
            top = np.lexsort((others, -row))[:keep]
            ids[u, : top.size] = others[top]
            sims[u, : top.size] = row[top]
    return NeighbourLists(ids, sims), sum(m.size == 0 for m in members)


def assert_well_formed(rows, lists):
    """No self arc, no repeated id, descending similarity with ties toward
    the smaller id, and every similarity the float64 dot product."""
    assert np.array_equal(lists.ids < 0, lists.sims == -np.inf)
    for q, arcs in enumerate(lists):
        ids = [t for t, _ in arcs]
        assert q not in ids
        assert len(set(ids)) == len(ids)
        keys = [(-s, t) for t, s in arcs]
        assert keys == sorted(keys)
        for t, s in arcs:
            assert s == pytest.approx(float(rows[q] @ rows[t]), rel=1e-12)


def degenerate_rows(n, d, rng):
    """Integer rows up to 1e6 in magnitude, each row of the pool at its own
    scale, drawn from a pool of at most n rows so that rows repeat, with
    about a tenth of them zero; every product is exact."""
    size = int(rng.integers(1, n + 1))
    pool = np.rint(rng.uniform(-1, 1, size=(size, d)) * 10.0 ** rng.integers(0, 7, size=(size, 1)))
    rows = pool[rng.integers(0, size, size=n)]
    rows[rng.random(n) < 0.1] = 0.0
    return rows


class TestParams:
    def test_validation(self):
        with pytest.raises(ArgumentError):
            AnnParams(m_links=1)
        with pytest.raises(ArgumentError):
            AnnParams(ef_construction=4)


class TestExactIndex:
    def test_self_knn_two_nodes(self):
        lists = ExactIndex(np.array([[1.0, 0.0], [0.8, 0.6]])).self_knn(1)
        assert [[t for t, _ in row] for row in lists] == [[1], [0]]

    def test_self_knn_matches_topk(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(40, 6))
        fm = FeatureMatrix(rows.astype(np.float32))
        state = ContractionState(fm)
        idx = ExactIndex(state.packed, state.query_sign)
        lists = idx.self_knn(4)
        for q in range(40):
            want = topk_exact(state, q, 4)
            assert [t for t, _ in lists[q]] == [t for t, _ in want]


class TestProximityGraphIndex:
    def test_self_knn_two_nodes(self):
        lists = ann_default_build(np.array([[1.0, 0.0], [0.8, 0.6]])).self_knn(1)
        assert [[t for t, _ in row] for row in lists] == [[1], [0]]

    def test_self_knn_one_node(self):
        lists = ann_default_build(np.array([[0.6, 0.8]])).self_knn(1)
        assert len(lists) == 1
        assert lists[0] == []

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(2, 8).flatmap(
            lambda n: st.integers(1, 3).flatmap(
                lambda d: st.lists(
                    st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                    min_size=n,
                    max_size=n,
                )
            )
        ),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_small_index_is_exact_under_ties(self, rows, seed, data):
        # up to 8 rows every node is an anchor and every anchor group is
        # probed, so the lists are exact; integer rows make ties common
        rows = np.array(rows, dtype=np.float64)
        k = data.draw(st.integers(1, len(rows) - 1))
        assert ProximityGraphIndex(rows, seed=seed).self_knn(k) == ExactIndex(rows).self_knn(k)

    def test_deterministic_under_seed(self):
        rows = synth_rows(500, 16, 8, 0.1, seed=2)
        a = ProximityGraphIndex(rows, seed=11)
        b = ProximityGraphIndex(rows, seed=11)
        assert a.self_knn(5) == b.self_knn(5)

    def test_recall_on_synthetic(self):
        # recall@5 against exact search on a clustered instance
        n = 5000
        rows = synth_rows(n, 32, 20, 0.05, seed=4)
        fm = FeatureMatrix(rows.astype(np.float32))
        fm = fm.with_affinity(0.4, AlphaSign.MINUS)
        state = ContractionState(fm)
        idx = ProximityGraphIndex(state.packed, state.query_sign, seed=0)
        approx = idx.self_knn(5)
        hits = total = 0
        rng = np.random.default_rng(0)
        for q in rng.choice(n, size=400, replace=False):
            exact = {t for t, _ in topk_exact(state, int(q), 5)}
            got = {t for t, _ in approx[int(q)]}
            hits += len(exact & got)
            total += len(exact)
        assert hits / total >= 0.9

    def test_cached_similarities_are_exact(self):
        rows = synth_rows(300, 8, 4, 0.05, seed=5)
        idx = ProximityGraphIndex(rows, seed=1)
        for q, arcs in enumerate(idx.self_knn(3)):
            for t, s in arcs:
                assert s == pytest.approx(float(rows[q] @ rows[t]), rel=1e-12)

    @pytest.mark.parametrize("n", [_BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("queries", ["self", "flipped"])
    def test_block_assignment_matches_whole_product(self, n, k, queries):
        # integer rows make every product exact, so the argmax cannot depend
        # on how the BLAS blocks it; few distinct rows make ties common and
        # leave anchor groups empty
        rng = np.random.default_rng(n + k)
        distinct = rng.integers(-3, 4, size=(64, 3)).astype(np.float64)
        db = distinct[rng.integers(0, 64, size=n)]
        sign = None if queries == "self" else np.array([1.0, 1.0, -1.0])
        qr = db if sign is None else db * sign
        want, empty = whole_product_seed(db, qr, k, AnnParams(), seed=5)
        assert empty > 0
        assert ProximityGraphIndex(db, sign, seed=5).self_knn(k) == want

    def test_self_knn_memory_below_the_assignment_product(self):
        # the build must never hold the whole n x n_anchor float64
        # assignment product, 14.8 MB here
        n = 6000
        rows = synth_rows(n, 32, 20, 0.1, seed=1)
        idx = ProximityGraphIndex(rows, seed=0)
        n_anchor = int(4.0 * np.sqrt(n))
        tracemalloc.start()
        try:
            idx.self_knn(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n_anchor * 8 / 2

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(9, 40),
        d=st.integers(1, 3),
        rows_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_degenerate_rows_above_eight(self, n, d, rows_seed, seed, data):
        # above 8 rows not every node is an anchor, so groups and probes
        # are real; zero rows, repeated rows and d = 1 make ties everywhere
        rows = degenerate_rows(n, d, np.random.default_rng(rows_seed))
        k = data.draw(st.integers(1, n - 1))
        lists = ProximityGraphIndex(rows, seed=seed).self_knn(k)
        assert_well_formed(rows, lists)
        assert ProximityGraphIndex(rows, seed=seed).self_knn(k) == lists

    def test_degenerate_rows_over_two_blocks(self):
        rows = degenerate_rows(1100, 2, np.random.default_rng(9))
        lists = ProximityGraphIndex(rows, seed=3).self_knn(5)
        assert_well_formed(rows, lists)
        assert ProximityGraphIndex(rows, seed=3).self_knn(5) == lists
