"""Array-backed NN graph, per-node candidate queue, block top-k, the
selection helper and the tie contract under exact similarity ties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densemulticut.core import AlphaSign, ContractionState, FeatureMatrix
from densemulticut.knn import (
    NNGraph,
    best_arc,
    build_nn_graph,
    select_rows,
    topk_batch,
)
from densemulticut.solvers import SolverConfig, solve

from conftest import make_instance
from test_knn import brute_topk


def integer_state(n, d, seed, low=-2, high=2):
    rng = np.random.default_rng(seed)
    data = rng.integers(low, high + 1, size=(n, d)).astype(np.float32)
    return ContractionState(FeatureMatrix(data))


def assert_matches_brute(state, queries, k, lists):
    assert len(lists) == len(queries)
    for q, got in zip(queries, lists):
        want = brute_topk(state, int(q), k)
        assert [t for t, _ in got] == [t for t, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


class TestBlockTopk:
    def test_tied_kth_values_across_blocks_and_slices(self):
        # 5^2 distinct rows among 700 nodes: nearly every k-th value is tied,
        # and the queries span two GEMM blocks and many selection slices
        state = integer_state(700, 2, seed=1)
        queries = np.arange(700)
        lists = topk_batch(state, queries, 4)
        sample = queries[::7]
        assert_matches_brute(state, sample, 4, [lists[int(q)] for q in sample])

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_ties_with_affinity(self, k):
        for seed in range(5):
            rows = integer_state(40, 2, seed=10 + seed).fm.data
            fm = FeatureMatrix(rows).with_affinity(0.5, AlphaSign.MINUS)
            state = ContractionState(fm)
            queries = np.arange(40)
            assert_matches_brute(state, queries, k, topk_batch(state, queries, k))

    def test_fewer_alive_than_k(self):
        state = integer_state(4, 3, seed=2)
        lists = topk_batch(state, np.arange(4), 5)
        assert all(len(row) == 3 for row in lists)
        assert_matches_brute(state, np.arange(4), 5, lists)

    def test_query_not_alive(self):
        fm = make_instance(30, 4, seed=3)
        state = ContractionState(fm)
        m = state.contract(2, 7)
        lists = topk_batch(state, np.array([2, m, 7]), 3)
        assert all(state.alive[t] for row in lists for t, _ in row)
        # a dead query ranks every alive node, the merged node included
        assert_matches_brute(state, [2, m, 7], 3, lists)
        dead_all = topk_batch(state, np.array([2]), 40)[0]
        assert len(dead_all) == state.n_alive


def brute_select(sims, ids, k):
    """Row-by-row reference: sort the finite entries by (-sim, id), cut at k."""
    r, c = sims.shape
    out_ids = np.full((r, k), -1, dtype=np.int64)
    out_sims = np.full((r, k), -np.inf)
    for row in range(r):
        best = sorted(
            (-float(sims[row, col]), int(ids[col]))
            for col in range(c)
            if sims[row, col] > -np.inf
        )[:k]
        for pos, (neg, t) in enumerate(best):
            out_ids[row, pos] = t
            out_sims[row, pos] = -neg
    return out_ids, out_sims


class TestSelectRows:
    # column counts on both sides of each group-size boundary: k at or
    # above c, k above c // 4 so that the group count is k, c around
    # 4 * 128 where the group count stops growing, and counts that leave a
    # tail of c mod G columns
    @settings(max_examples=300, deadline=None)
    @given(
        r=st.integers(1, 5),
        c=st.one_of(st.integers(1, 12), st.integers(13, 300), st.integers(500, 530)),
        k_kind=st.sampled_from(["one", "small", "groups", "all"]),
        values=st.sampled_from(["integer", "two-valued", "continuous"]),
        exclude=st.sampled_from([0.0, 0.3, 0.9]),
        sliced=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force(
        self, r, c, k_kind, values, exclude, sliced, seed
    ):
        rng = np.random.default_rng(seed)
        k = {
            "one": 1,
            "small": int(rng.integers(1, 9)),
            # more than c // 4 groups' worth, so the group count is k
            "groups": int(rng.integers(c // 4 + 1, c + 1)),
            "all": c + int(rng.integers(0, 3)),
        }[k_kind]
        if values == "integer":
            sims = rng.integers(-3, 4, size=(r, c)).astype(np.float64)
        elif values == "two-valued":
            sims = rng.integers(0, 2, size=(r, c)) * 0.5
        else:
            sims = rng.normal(size=(r, c))
        sims[rng.random((r, c)) < exclude] = -np.inf
        if sliced:
            # a non-contiguous view whose hidden columns would win if read
            sims = np.concatenate([sims, np.full((r, 7), 1e9)], axis=1)[:, :c]
        ids = rng.permutation(3 * c)[:c]
        got_ids, got_sims = select_rows(sims, ids, k)
        want_ids, want_sims = brute_select(sims, ids, k)
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_array_equal(got_sims, want_sims)


class TestArrayGraph:
    def test_grows_past_initial_capacity(self):
        graph = NNGraph(2)
        assert graph.capacity == 0
        graph.set_arcs(3, [(1, 0.5), (0, 0.25)], from_full=True)
        graph.set_arcs(40, [(3, 0.75)], from_full=False)
        graph.set_rows(
            np.array([100, 7]),
            np.array([[3, 40], [100, -1]]),
            np.array([[0.5, 0.1], [0.2, -np.inf]]),
            from_full=True,
        )
        assert graph.capacity >= 101
        assert graph.arcs(3) == [(1, 0.5), (0, 0.25)]
        assert graph.arcs(40) == [(3, 0.75)]
        assert graph.arcs(100) == [(3, 0.5), (40, 0.1)]
        assert graph.arcs(7) == [(100, 0.2)]
        assert graph.in_index[3] == {40, 100}
        assert graph.full_list[3] and not graph.full_list[40]
        assert graph.targets(99) == []

    def test_best_arc_skips_a_dead_best_target_without_a_push(self):
        fm = make_instance(30, 3, seed=8, alpha=0.4, sign=AlphaSign.PLUS)
        state = ContractionState(fm)
        graph, queue = build_nn_graph(state, 2)
        i, j, _ = best_arc(graph, queue, state)
        pointing = graph.in_index.get(i, set()) | graph.in_index.get(j, set())
        stale = [u for u in pointing - {i, j} if queue.best_dst[u] in (i, j)]
        assert stale, "instance should leave some cached bests pointing at i or j"
        m = state.contract(i, j)
        graph.drop_node(i)
        graph.drop_node(j)
        graph.set_arcs(m, [], from_full=False)
        # nothing is pushed: the cached bests of i, j and of the nodes that
        # pointed at them are stale, and best_arc must look past them
        got = best_arc(graph, queue, state)
        want = max(
            (s, -min(u, t), -max(u, t))
            for u in state.alive_ids()
            for t, s in graph.arcs(int(u))
        )
        assert got is not None
        assert got == (-want[1], -want[2], want[0])
        assert state.alive[got[0]] and state.alive[got[1]]


class TestTieContract:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(2, 24).flatmap(
            lambda n: st.integers(1, 3).flatmap(
                lambda d: st.lists(
                    st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                    min_size=n,
                    max_size=n,
                )
            )
        ),
        sign=st.sampled_from([AlphaSign.PLUS, AlphaSign.MINUS, AlphaSign.OFF]),
    )
    def test_dense_greedy_reproduces_gaec_under_ties(self, rows, sign):
        fm = FeatureMatrix(np.array(rows, dtype=np.float32))
        trace = {}
        for algo in ("gaec", "dgaec", "dgaec-inc"):
            cfg = SolverConfig(algorithm=algo, alpha=0.5, alpha_sign=sign)
            trace[algo] = [(s.i, s.j, s.m, s.similarity) for s in solve(fm, cfg).trace]
        assert trace["dgaec"] == trace["gaec"]
        assert trace["dgaec-inc"] == trace["gaec"]
