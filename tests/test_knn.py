import numpy as np
import pytest

from densemulticut import knn
from densemulticut.core import AlphaSign, ContractionState, FeatureMatrix
from densemulticut.errors import ArgumentError, StateError
from densemulticut.knn import (
    INF,
    CandidateQueue,
    NNGraph,
    best_arc,
    build_nn_graph,
    exhaustive_update,
    incremental_update,
    topk_batch,
    topk_exact,
)

from conftest import make_instance, set_arcs


def targets(graph, u):
    return [t for t, _ in graph.arcs(u)]


def bound(graph, i, j):
    """The lazy repair's contraction bound for merging i and j."""
    return knn._bound(graph.k, *((graph.arcs(u), graph.floor[u]) for u in (i, j)))


def state_from(rows, alpha=None, sign=AlphaSign.OFF):
    fm = FeatureMatrix(np.asarray(rows, dtype=np.float32))
    if alpha is not None:
        fm = fm.with_affinity(alpha, sign)
    return ContractionState(fm)


def spy_searches(monkeypatch):
    """Record every query node the repairs pass to ``knn.topk_batch``."""
    searched = []

    def spy(state, queries, k):
        searched.extend(np.asarray(queries).tolist())
        return topk_batch(state, queries, k)

    monkeypatch.setattr(knn, "topk_batch", spy)
    return searched


def brute_topk(state, q, k):
    """Slow reference ranking over alive nodes, same tie rule."""
    items = []
    for v in state.alive_ids():
        v = int(v)
        if v == q:
            continue
        items.append((v, state.sim(q, v)))
    items.sort(key=lambda t: (-t[1], t[0]))
    return items[:k]


class TestTopkExact:
    def test_three_node_example(self):
        state = state_from([[1, 0], [0.8, 0.6], [0, 1]])
        got = topk_exact(state, 0, 1)
        assert [t for t, _ in got] == [1]
        assert got[0][1] == pytest.approx(0.8, abs=1e-7)

    def test_k_at_least_n_returns_all_sorted(self):
        state = state_from([[1, 0], [0.8, 0.6], [0, 1], [-1, 0]])
        got = topk_exact(state, 0, 10)
        assert [t for t, _ in got] == [1, 2, 3]
        sims = [s for _, s in got]
        assert sims == sorted(sims, reverse=True)

    def test_duplicate_features_tie_break_by_id(self):
        state = state_from([[1, 0], [0.5, 0], [0.5, 0]])
        got = topk_exact(state, 0, 2)
        assert [t for t, _ in got] == [1, 2]

    def test_dead_query_rejected(self):
        state = state_from([[1, 0], [0, 1], [1, 1]])
        state.contract(0, 1)
        with pytest.raises(StateError):
            topk_exact(state, 0, 1)

    def test_dead_query_rejected_by_batch(self):
        state = ContractionState(make_instance(6, 3, seed=1))
        state.contract(0, 1)
        for queries in ([0], [2, 0], [3, 6, 1]):
            with pytest.raises(StateError):
                topk_batch(state, np.array(queries), 2)
        assert len(topk_batch(state, np.array([2, 6]), 2)) == 2

    def test_bad_k(self):
        state = state_from([[1, 0], [0, 1]])
        with pytest.raises(ArgumentError):
            topk_exact(state, 0, 0)

    @pytest.mark.parametrize("sign", [AlphaSign.OFF, AlphaSign.MINUS, AlphaSign.PLUS])
    def test_matches_brute_force(self, sign):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = int(rng.integers(3, 40))
            alpha = None if sign is AlphaSign.OFF else 0.4
            fm = make_instance(n, 5, seed=200 + trial, alpha=alpha, sign=sign)
            state = ContractionState(fm)
            k = int(rng.integers(1, 6))
            q = int(rng.integers(0, n))
            got = topk_exact(state, q, k)
            want = brute_topk(state, q, k)
            assert [t for t, _ in got] == [t for t, _ in want]
            for (_, a), (_, b) in zip(got, want):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    def test_batch_matches_single(self):
        fm = make_instance(50, 6, seed=5, alpha=0.4, sign=AlphaSign.MINUS)
        state = ContractionState(fm)
        queries = np.arange(50)
        batch = topk_batch(state, queries, 4)
        for q in range(50):
            single = topk_exact(state, q, 4)
            assert [t for t, _ in batch[q]] == [t for t, _ in single]


class TestBuildGraph:
    def test_two_nodes_point_at_each_other(self):
        state = state_from([[1, 0], [0.5, 0.5]])
        graph, queue = build_nn_graph(state, 1)
        assert targets(graph, 0) == [1]
        assert targets(graph, 1) == [0]
        assert len(queue) == 2

    def test_transpose_invariant(self):
        fm = make_instance(30, 4, seed=1)
        state = ContractionState(fm)
        graph, _ = build_nn_graph(state, 3)
        graph.validate(state)

    def test_arcs_dominate_non_neighbours(self):
        fm = make_instance(10, 4, seed=2)
        state = ContractionState(fm)
        graph, _ = build_nn_graph(state, 3)
        for i in range(10):
            arc_targets = set(targets(graph, i))
            worst = min(s for _, s in graph.arcs(i))
            for v in range(10):
                if v != i and v not in arc_targets:
                    assert state.sim(i, v) <= worst + 1e-12


class TestContractionBound:
    def _three_plus_state(self):
        # i=(1,0), j=(0,1), p=(0.8,0.6): 1-NN of i and of j are both p
        return state_from([[1, 0], [0, 1], [0.8, 0.6]])

    def test_hand_value(self):
        state = self._three_plus_state()
        graph, _ = build_nn_graph(state, 1)
        assert targets(graph, 0) == [2]
        assert targets(graph, 1) == [2]
        b = bound(graph, 0, 1)
        assert b == pytest.approx(1.4, abs=1e-7)

    def test_bound_dominates_outside_node(self):
        state = state_from([[1, 0], [0, 1], [0.8, 0.6], [-1, 0]])
        graph, _ = build_nn_graph(state, 1)
        b = bound(graph, 0, 1)
        m = state.contract(0, 1)
        assert state.sim(m, 3) <= b + 1e-12

    def test_empty_list_gives_sentinel(self):
        graph = NNGraph(2, 2)
        set_arcs(graph, 0, [], from_full=True)
        set_arcs(graph, 1, [(0, 0.5)], from_full=True)
        assert bound(graph, 0, 1) == INF

    def test_short_non_exhaustive_list_gives_sentinel(self):
        graph = NNGraph(3, 5)
        set_arcs(graph, 0, [(2, 0.5)], from_full=False)
        set_arcs(graph, 1, [(2, 0.4), (3, 0.1), (4, 0.05)], from_full=True)
        assert bound(graph, 0, 1) == INF

    def test_short_exhaustive_list_is_usable(self):
        graph = NNGraph(3, 5)
        set_arcs(graph, 0, [(2, 0.5)], from_full=True)
        set_arcs(graph, 1, [(2, 0.4), (3, 0.1), (4, 0.05)], from_full=True)
        assert bound(graph, 0, 1) == pytest.approx(0.55)

    def test_randomized_bound_and_skip_search(self, rng):
        """Merged-node similarities to nodes outside the parents' lists never
        exceed the bound; when k candidates pass, the filtered list equals
        exact search."""
        events = 0
        violations = 0
        for trial in range(40):
            n = int(rng.integers(10, 60))
            fm = make_instance(n, 6, seed=300 + trial, alpha=0.4, sign=AlphaSign.MINUS)
            state = ContractionState(fm)
            k = int(rng.integers(1, 6))
            while state.n_alive > max(3, k + 1):
                ids = state.alive_ids()
                i, j = (int(x) for x in rng.choice(ids, size=2, replace=False))
                graph = NNGraph(k, state.slot.size)
                for u in (i, j):
                    set_arcs(graph, u, topk_exact(state, u, k), from_full=True)
                union = {t for t, _ in graph.arcs(i)} | {t for t, _ in graph.arcs(j)}
                b = bound(graph, i, j)
                m = state.contract(i, j)
                events += 1
                passing = []
                for v in state.alive_ids():
                    v = int(v)
                    if v == m:
                        continue
                    s = state.sim(m, v)
                    if v not in union:
                        if s > b + 1e-9:
                            violations += 1
                    elif s >= b:
                        passing.append((v, s))
                if len(passing) >= k:
                    passing.sort(key=lambda t: (-t[1], t[0]))
                    chosen = {t for t, _ in passing[:k]}
                    exact = topk_exact(state, m, k)
                    kth = exact[k - 1][1]
                    exact_set = {t for t, s in exact}
                    # sets agree up to exact ties at the k-th similarity
                    for t in chosen ^ exact_set:
                        assert state.sim(m, t) == pytest.approx(kth, rel=1e-12)
        assert events >= 200
        assert violations == 0


class TestBestArc:
    def test_empty(self):
        state = state_from([[1, 0], [0, 1]])
        graph = NNGraph(1, state.slot.size)
        queue = CandidateQueue(state.slot.size)
        assert best_arc(graph, queue, state) is None

    def test_picks_max(self):
        state = state_from([[1, 0], [0.9, 0.1], [0.5, 0.5]])
        graph, queue = build_nn_graph(state, 1)
        got = best_arc(graph, queue, state)
        assert got is not None
        i, j, s = got
        assert (i, j) == (0, 1)

    def test_zero_similarity_is_returned(self):
        state = state_from([[1, 0], [0, 1]])
        graph, queue = build_nn_graph(state, 1)
        got = best_arc(graph, queue, state)
        assert got is not None
        assert got[2] == 0.0

    def test_negative_top_returns_none_and_is_repeatable(self):
        state = state_from([[1, 0], [-1, 0]])
        graph, queue = build_nn_graph(state, 1)
        assert best_arc(graph, queue, state) is None
        assert best_arc(graph, queue, state) is None

    def test_stale_entries_skipped(self):
        fm = make_instance(12, 3, seed=8)
        state = ContractionState(fm)
        graph, queue = build_nn_graph(state, 2)
        got = best_arc(graph, queue, state)
        assert got is not None
        i, j, _ = got
        m = state.contract(i, j)
        new_arcs, _ = exhaustive_update(graph, state, i, j, m)
        queue.push_many(graph, new_arcs)
        nxt = best_arc(graph, queue, state)
        if nxt is not None:
            a, b, s = nxt
            assert state.alive[a] and state.alive[b]
            assert s == pytest.approx(state.sim(a, b), rel=1e-9, abs=1e-12)


class TestIncrementalUpdate:
    """The lazy repair of ``dlaec`` and ``dapplaec``: no search."""

    def test_merged_node_arc_via_bound_no_search(self):
        # merging the orthogonal pair; their shared neighbour passes the
        # bound check, so the merged node gets its arc from its parents'
        # lists (the fourth node keeps everyone else's lists intact)
        state = state_from([[1, 0], [0, 1], [0.8, 0.6], [0.75, 0.55]])
        graph, queue = build_nn_graph(state, 1)
        assert targets(graph, 0) == [2]
        assert targets(graph, 1) == [2]
        assert bound(graph, 0, 1) == pytest.approx(1.4, abs=1e-7)
        m = state.contract(0, 1)
        _, searches = incremental_update(graph, state, 0, 1, m)
        assert searches == 0
        assert targets(graph, m) == [2]
        assert graph.arcs(m)[0][1] == pytest.approx(1.4, abs=1e-7)

    def test_lazy_leaves_merged_node_isolated(self):
        # antipodal parents: nothing passes the bound, lazy mode leaves the
        # merged node without outgoing arcs
        state = state_from([[1, 0], [-1, 0.05], [0.9, 0.3], [-0.9, -0.2]])
        graph, _ = build_nn_graph(state, 1)
        m = state.contract(0, 1)
        new_arcs, searches = incremental_update(graph, state, 0, 1, m)
        assert searches == 0
        assert targets(graph, m) == []

    def test_lazy_node_with_all_arcs_dead_keeps_none(self):
        state = state_from([[1, 0], [0.99, 0.1], [0.98, -0.1], [0, 1]])
        graph, _ = build_nn_graph(state, 2)
        assert set(targets(graph, 3)) <= {0, 1, 2}
        m = state.contract(1, 2)
        incremental_update(graph, state, 1, 2, m)
        for t in targets(graph, 3):
            assert state.alive[t]

    def test_state_error_for_unregistered_merge(self):
        for update in (incremental_update, exhaustive_update):
            state = state_from([[1, 0], [0, 1], [1, 1]])
            graph, _ = build_nn_graph(state, 1)
            with pytest.raises(StateError):
                update(graph, state, 0, 1, 99)

    # ``lazy`` picks the repair as the solvers do: the lazy one, or else
    # the exact one
    @pytest.mark.parametrize("lazy", [False, True])
    def test_invariants_along_random_merge_sequences(self, lazy, rng):
        update = incremental_update if lazy else exhaustive_update
        for trial in range(8):
            fm = make_instance(40, 5, seed=400 + trial, alpha=0.4, sign=AlphaSign.MINUS)
            state = ContractionState(fm)
            graph, queue = build_nn_graph(state, 3)
            while state.n_alive > 2:
                ids = state.alive_ids()
                i, j = (int(x) for x in rng.choice(ids, size=2, replace=False))
                m = state.contract(i, j)
                new_arcs, _ = update(graph, state, i, j, m)
                queue.push_many(graph, new_arcs)
                graph.validate(state)


class TestExhaustiveUpdate:
    def test_affected_nodes_get_fresh_exact_lists(self):
        fm = make_instance(25, 4, seed=9)
        state = ContractionState(fm)
        graph, queue = build_nn_graph(state, 1)
        got = best_arc(graph, queue, state)
        assert got is not None
        i, j, _ = got
        m = state.contract(i, j)
        new_arcs, searches = exhaustive_update(graph, state, i, j, m)
        queue.push_many(graph, new_arcs)
        graph.validate(state)
        assert searches >= 1
        assert targets(graph, m) == [t for t, _ in topk_exact(state, m, 1)]
        # the maximum arc similarity equals the true maximum over alive pairs
        best_cached = max(
            s for u in state.alive_ids() for _, s in graph.arcs(int(u))
        )
        true_max = max(
            state.sim(int(a), int(b))
            for a in state.alive_ids()
            for b in state.alive_ids()
            if a < b
        )
        assert best_cached == pytest.approx(true_max, rel=1e-9, abs=1e-12)

    def test_certified_row_takes_merged_node_without_search(self, monkeypatch):
        # u lists i and sim(u, j) > 0, so u's row is certified; v lists j
        # and sim(v, i) < 0, so v is re-searched
        state = state_from(
            [
                [1.0, 0.0],   # u
                [0.9, 0.3],   # i
                [0.2, 1.0],   # j
                [-0.5, 1.0],  # v
            ]
        )
        graph, _ = build_nn_graph(state, 1)
        assert targets(graph, 0) == [1] and targets(graph, 3) == [2]
        searched = spy_searches(monkeypatch)
        m = state.contract(1, 2)
        new_arcs, searches = exhaustive_update(graph, state, 1, 2, m)
        assert sorted(searched) == [3, m]
        assert searches == 1 + 1  # m and the one uncertified row, v
        assert new_arcs.insertions == 1
        assert targets(graph, 0) == [m]
        assert graph.arcs(0)[0][1] == pytest.approx(state.sim(0, m), rel=1e-12)
        assert graph.arcs(0) == pytest.approx(topk_exact(state, 0, 1), rel=1e-12)
        graph.validate(state)

    @pytest.mark.parametrize(
        "rows, k",
        [
            # u lists i; sim(u, m) only ties u's floor, and node 3, unlisted
            # at that similarity, has a smaller id than m: the row is left
            # empty and searched
            ([[1, 0], [1, 1], [0, 1], [1, 2]], 1),
            # u lists both i and j and sim(u, m) is above its floor: m takes
            # one freed slot, the other stays empty, and u is not searched
            ([[1, 0], [1, 0.5], [1, -0.5], [0.5, 0]], 2),
        ],
    )
    def test_uncertified_row_is_researched(self, rows, k, monkeypatch):
        state = state_from(rows)
        graph, _ = build_nn_graph(state, k)
        assert 1 in targets(graph, 0)
        searched = spy_searches(monkeypatch)
        m = state.contract(1, 2)
        exhaustive_update(graph, state, 1, 2, m)
        exact = topk_exact(state, 0, k)
        if k == 1:
            assert 0 in searched
            assert graph.arcs(0) == pytest.approx(exact, rel=1e-12)
        else:
            assert 0 not in searched
            assert targets(graph, 0) == [m]
            assert graph.arcs(0) == pytest.approx(exact[:1], rel=1e-12)
            listed = set(targets(graph, 0))
            for v in state.alive_ids().tolist():
                if v != 0 and v not in listed:
                    assert state.sim(0, v) <= graph.floor[0]
        graph.validate(state)

    def test_pointing_node_gets_cheap_arc(self, monkeypatch):
        # q points at i and r; the merged node is more similar to q than r,
        # q's floor, so the arc (q, m) is added without searching q
        state = state_from(
            [
                [1.0, 0.0],  # q -> {i, r}
                [0.9, 0.1],  # i
                [0.5, 0.0],  # r
                [0.2, 0.9],  # j
            ]
        )
        graph, _ = build_nn_graph(state, 2)
        assert set(targets(graph, 0)) == {1, 2}
        searched = spy_searches(monkeypatch)
        m = state.contract(1, 3)
        _, searches = exhaustive_update(graph, state, 1, 3, m)
        assert m in targets(graph, 0)
        assert searched == [m] and searches == 1
        graph.validate(state)

    # u lists i and j at sim -0.2 each and t at -0.3; the merged node
    # (-0.4, 0) is at -0.4, below both floors k = 2 and k = 3 give u
    PARENTS_BELOW_FLOOR = [[1, 0], [-0.2, 1], [-0.2, -1], [-0.3, 0.1], [-1, 0]]

    def test_row_that_lost_both_parents_keeps_its_third_arc(self, monkeypatch):
        state = state_from(self.PARENTS_BELOW_FLOOR)
        graph, _ = build_nn_graph(state, 3)
        assert targets(graph, 0) == [1, 2, 3]
        searched = spy_searches(monkeypatch)
        m = state.contract(1, 2)
        _, searches = exhaustive_update(graph, state, 1, 2, m)
        assert state.sim(0, m) <= graph.floor[0]
        assert searched == [m] and searches == 1
        assert targets(graph, 0) == [3]
        graph.validate(state)

    def test_row_left_without_arcs_is_researched(self, monkeypatch):
        state = state_from(self.PARENTS_BELOW_FLOOR)
        graph, _ = build_nn_graph(state, 2)
        assert targets(graph, 0) == [1, 2]
        searched = spy_searches(monkeypatch)
        m = state.contract(1, 2)
        _, searches = exhaustive_update(graph, state, 1, 2, m)
        assert sorted(searched) == [0, m] and searches == 2
        assert graph.arcs(0) == pytest.approx(topk_exact(state, 0, 2), rel=1e-12)
        graph.validate(state)

    @pytest.mark.parametrize("k", [2, 3])
    def test_searches_write_the_floor(self, k):
        # build_nn_graph writes every row's k-th similarity; after the
        # merge, m's search and u's new search write theirs (k = 2 leaves
        # u empty); at k = 3 the three-node build lists every candidate
        state = state_from(self.PARENTS_BELOW_FLOOR)
        graph, _ = build_nn_graph(state, k)
        np.testing.assert_array_equal(graph.floor[:5], graph.sim[:5, k - 1])
        m = state.contract(1, 2)
        exhaustive_update(graph, state, 1, 2, m)
        for u in (m, 0) if k == 2 else (m,):
            exact = topk_exact(state, u, k)
            assert graph.floor[u] == pytest.approx(exact[k - 1][1], rel=1e-12)
        small = state_from([[1, 0], [0, 1], [1, 1]])
        graph, _ = build_nn_graph(small, 3)
        assert (graph.floor[:3] == -INF).all()
        graph.validate(small)
