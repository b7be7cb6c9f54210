import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densemulticut.ann import AnnParams, ExactIndex, ProximityGraphIndex, ann_default_build
from densemulticut.core import AlphaSign, ContractionState, FeatureMatrix
from densemulticut.errors import ArgumentError
from densemulticut.knn import topk_exact

from conftest import simplex_centers


def synth_rows(n, d, k, sigma, seed):
    rng = np.random.default_rng(seed)
    centers = simplex_centers(k, d, rng)
    labels = rng.permutation(np.arange(n) % k)
    pts = centers[labels] + rng.normal(scale=sigma, size=(n, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts.astype(np.float64)


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
        idx = ExactIndex(state.packed, state.packed_q)
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
        idx = ProximityGraphIndex(state.packed, state.packed_q, seed=0)
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
