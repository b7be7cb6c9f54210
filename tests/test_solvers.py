import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densemulticut.ann import ExactIndex
from densemulticut.core import (
    AlphaSign,
    FeatureMatrix,
    SparseWeightedGraph,
    enumerate_optimal,
    materialize_cost_matrix,
    objective,
)
from densemulticut import solvers
from densemulticut.errors import ArgumentError
from densemulticut.knn import INF, CandidateQueue, NNGraph, best_arc
from densemulticut.solvers import (
    ALGORITHMS,
    SolverConfig,
    dense_app_laec,
    dense_gaec,
    dense_gaec_inc,
    dense_laec,
    gaec,
    solve,
)

from conftest import clustered_instance, make_instance


def cfg_for(alg, sign=AlphaSign.OFF, **kw):
    return SolverConfig(algorithm=alg, alpha=0.4, alpha_sign=sign, **kw)


def pair_trace(result):
    return [(s.i, s.j) for s in result.trace]


class TestGaec:
    def test_triangle(self):
        g = SparseWeightedGraph.from_edges(
            3, [(0, 1, 1.0), (0, 2, -1.0), (1, 2, -1.0)]
        )
        res = gaec(g)
        assert list(res.labels) == [0, 0, 1]
        assert res.partition.objective == pytest.approx(-2.0)

    def test_all_negative_leaves_singletons(self):
        g = SparseWeightedGraph.from_edges(
            4, [(0, 1, -0.5), (1, 2, -0.1), (2, 3, -2.0)]
        )
        res = gaec(g)
        assert res.partition.n_clusters == 4
        assert res.partition.objective == pytest.approx(-2.6)
        assert res.trace == []

    def test_zero_cost_edge_is_contracted(self):
        g = SparseWeightedGraph.from_edges(2, [(0, 1, 0.0)])
        res = gaec(g)
        assert res.partition.n_clusters == 1
        assert len(res.trace) == 1

    def test_parallel_edge_costs_add(self):
        # contracting (0,1) must give the merged node cost 1.0 + (-0.4) to 2
        g = SparseWeightedGraph.from_edges(
            3, [(0, 1, 5.0), (0, 2, 1.0), (1, 2, -0.4)]
        )
        res = gaec(g)
        # 0.6 > 0 so everything merges
        assert res.partition.n_clusters == 1
        assert [s.similarity for s in res.trace] == [
            pytest.approx(5.0),
            pytest.approx(0.6),
        ]


class TestDenseGaec:
    def test_single_node(self):
        res = dense_gaec(FeatureMatrix(np.ones((1, 3), dtype=np.float32)))
        assert res.partition.n_clusters == 1
        assert res.partition.objective == 0.0

    def test_three_node_affinity_example(self):
        fm = FeatureMatrix(np.array([[1, 0], [1, 0], [0, 1]], dtype=np.float32))
        res = dense_gaec(fm, cfg_for("dgaec", AlphaSign.MINUS))
        assert list(res.labels) == [0, 0, 1]
        assert res.partition.objective == pytest.approx(-0.32, abs=1e-7)
        _, opt = enumerate_optimal(fm.with_affinity(0.4, AlphaSign.MINUS))
        assert res.partition.objective == pytest.approx(opt, abs=1e-7)

    @pytest.mark.parametrize("sign", [AlphaSign.OFF, AlphaSign.MINUS])
    def test_matches_sparse_baseline_traces(self, sign):
        for trial in range(15):
            n = 5 + trial * 9
            fm = make_instance(n, 2 + trial % 15, seed=600 + trial)
            eff = fm.with_affinity(0.4, sign)
            res_sparse = gaec(materialize_cost_matrix(eff))
            res_dense = dense_gaec(fm, cfg_for("dgaec", sign))
            assert pair_trace(res_sparse) == pair_trace(res_dense)
            assert res_dense.partition.objective == pytest.approx(
                res_sparse.partition.objective, rel=1e-9, abs=1e-12
            )

    def test_greedy_choice_is_global_max(self):
        fm = make_instance(60, 5, seed=13, alpha=0.4, sign=AlphaSign.MINUS)

        def check(state, i, j, sim):
            ids = state.alive_ids()
            true_max = max(
                state.sim(int(a), int(b))
                for ai, a in enumerate(ids)
                for b in ids[ai + 1:]
            )
            assert sim == pytest.approx(true_max, rel=1e-9, abs=1e-12)

        dense_gaec(fm, cfg_for("dgaec", AlphaSign.MINUS), step_callback=check)


class TestDenseGaecInc:
    def test_same_trace_as_plain_dense(self):
        for trial in range(12):
            fm, sign = clustered_instance(trial, n_range=(5, 120))
            a = dense_gaec(fm, cfg_for("dgaec", sign))
            b = dense_gaec_inc(fm, cfg_for("dgaec-inc", sign))
            assert pair_trace(a) == pair_trace(b)
            assert b.partition.objective == pytest.approx(
                a.partition.objective, rel=1e-9, abs=1e-12
            )

    def test_greedy_choice_is_global_max(self):
        fm = make_instance(60, 5, seed=14, alpha=0.4, sign=AlphaSign.MINUS)

        def check(state, i, j, sim):
            ids = state.alive_ids()
            true_max = max(
                state.sim(int(a), int(b))
                for ai, a in enumerate(ids)
                for b in ids[ai + 1:]
            )
            assert sim == pytest.approx(true_max, rel=1e-9, abs=1e-12)

        dense_gaec_inc(fm, cfg_for("dgaec-inc", AlphaSign.MINUS), step_callback=check)

    def test_never_more_searches_than_plain_dense(self):
        # both run the exact repair; k = 5 rows shrink where k = 1 rows run
        # dry and are searched again
        for trial in range(6):
            fm, sign = clustered_instance(trial, n_range=(30, 120))
            a = dense_gaec(fm, cfg_for("dgaec", sign))
            b = dense_gaec_inc(fm, cfg_for("dgaec-inc", sign))
            assert b.stats["loop_searches"] <= a.stats["loop_searches"]


class TestDenseLaec:
    def test_valid_partition_and_envelope(self):
        for trial in range(12):
            fm, sign = clustered_instance(trial)
            base = dense_gaec(fm, cfg_for("dgaec", sign))
            lazy = dense_laec(fm, cfg_for("dlaec", sign))
            assert lazy.partition.objective == pytest.approx(
                objective(fm.with_affinity(0.4, sign), lazy.labels),
                rel=1e-9,
                abs=1e-12,
            )
            denom = max(1e-12, abs(base.partition.objective))
            gap = abs(lazy.partition.objective - base.partition.objective) / denom
            assert gap <= 0.01

    def test_fewer_searches_than_incremental(self):
        fm, sign = clustered_instance(2, n_range=(150, 201))
        inc = dense_gaec_inc(fm, cfg_for("dgaec-inc", sign))
        lazy = dense_laec(fm, cfg_for("dlaec", sign))
        assert lazy.stats["loop_searches"] <= inc.stats["loop_searches"]

    def test_all_contracted_arcs_nonnegative(self):
        fm, sign = clustered_instance(4)
        res = dense_laec(fm, cfg_for("dlaec", sign))
        assert all(s.similarity >= 0 for s in res.trace)
        assert len(res.trace) <= fm.n - 1


class TestDenseAppLaec:
    def test_exact_index_reproduces_lazy_solver(self):
        for trial in range(8):
            fm, sign = clustered_instance(trial, n_range=(20, 150))
            lazy = dense_laec(fm, cfg_for("dlaec", sign))
            app = dense_app_laec(
                fm,
                cfg_for("dapplaec", sign),
                index_factory=lambda db, sign, params, seed: ExactIndex(db, sign),
            )
            assert pair_trace(lazy) == pair_trace(app)
            assert app.partition.objective == lazy.partition.objective

    def test_default_index_envelope(self):
        for trial in range(8):
            fm, sign = clustered_instance(trial)
            base = dense_gaec(fm, cfg_for("dgaec", sign))
            app = dense_app_laec(fm, cfg_for("dapplaec", sign))
            denom = max(1e-12, abs(base.partition.objective))
            gap = abs(app.partition.objective - base.partition.objective) / denom
            assert gap <= 0.02

    def test_deterministic_under_seed(self):
        fm, sign = clustered_instance(6)
        a = dense_app_laec(fm, cfg_for("dapplaec", sign, seed=7))
        b = dense_app_laec(fm, cfg_for("dapplaec", sign, seed=7))
        assert pair_trace(a) == pair_trace(b)
        assert np.array_equal(a.labels, b.labels)


class TestGraphContract:
    # every dense solver, the approximate one seeded both ways
    @pytest.mark.parametrize(
        "alg, exact_index",
        [("dgaec", False), ("dgaec-inc", False), ("dlaec", False), ("dapplaec", False),
         ("dapplaec", True)],
    )
    def test_rows_are_written_empty_and_arcs_keep_their_floors(
        self, alg, exact_index, monkeypatch
    ):
        """NNGraph.set_rows is only ever handed empty rows, so it need not
        clear them; after every repair, validate checks that each arc is at
        or above its row's floor wherever the floor is finite, that a dead
        row's floor is +inf and that the reverse index lists every arc.
        Before every best_arc, so after every repair's push, each dead
        row's queue entry is empty and each alive row's entry is empty or
        names an alive target, so best_arc's stale-entry refresh never
        runs in a solve."""
        set_rows = NNGraph.set_rows
        written = []
        picks = []

        def checked_set_rows(graph, rows, ids, sims, *, from_full):
            assert (graph.nbr[rows] == -1).all() and (graph.sim[rows] == -INF).all()
            written.append(rows.size)
            set_rows(graph, rows, ids, sims, from_full=from_full)

        monkeypatch.setattr(NNGraph, "set_rows", checked_set_rows)
        for name in ("incremental_update", "exhaustive_update"):

            def validated(graph, state, i, j, m, update=getattr(solvers, name)):
                out = update(graph, state, i, j, m)
                graph.validate(state)
                return out

            monkeypatch.setattr(solvers, name, validated)

        def checked_best_arc(graph, queue, state, best_arc=solvers.best_arc):
            n = state.n0 + state.forest.n_merges
            dst, sim, alive = queue.best_dst[:n], queue.best_sim[:n], state.alive[:n]
            empty = dst == -1
            assert ((sim == -INF) == empty).all()
            assert (empty | alive).all(), "a dead row has an entry"
            assert (empty | state.alive[dst]).all(), "an entry names a dead target"
            picks.append(n)
            return best_arc(graph, queue, state)

        monkeypatch.setattr(solvers, "best_arc", checked_best_arc)
        kw = {}
        if exact_index:
            kw["index_factory"] = lambda db, sign, params, seed: ExactIndex(db, sign)
        for trial in range(4):
            fm, sign = clustered_instance(trial, n_range=(20, 120))
            solve(fm, cfg_for(alg, sign, k=3), **kw)
        assert written and picks


class TestSolverProperties:
    @pytest.mark.parametrize(
        "alg", ["gaec", "dgaec", "dgaec-inc", "dlaec", "dapplaec"]
    )
    def test_never_beats_exhaustive_oracle(self, alg):
        for trial in range(10):
            n = 4 + trial % 6
            fm = make_instance(n, 3, seed=700 + trial)
            sign = AlphaSign.MINUS if trial % 2 == 0 else AlphaSign.OFF
            cfg = cfg_for(alg, sign)
            res = solve(fm, cfg)
            eff = fm.with_affinity(0.4, sign)
            part, _ = enumerate_optimal(eff)
            opt = objective(eff, part.labels)
            got = objective(eff, res.labels)
            assert got >= opt

    @pytest.mark.parametrize(
        "alg", ["gaec", "dgaec", "dgaec-inc", "dlaec", "dapplaec"]
    )
    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(1, 9).flatmap(
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
    def test_never_beats_exhaustive_oracle_under_ties(self, alg, rows, sign):
        # integer features and alpha 0.5 keep every similarity and every
        # objective exact in float64, so the comparison needs no tolerance
        fm = FeatureMatrix(np.array(rows, dtype=np.float32))
        res = solve(fm, SolverConfig(algorithm=alg, alpha=0.5, alpha_sign=sign))
        _, opt = enumerate_optimal(fm.with_affinity(0.5, sign))
        assert res.partition.objective >= opt

    def test_termination_bound(self):
        fm, sign = clustered_instance(8)
        for alg in ("dgaec", "dgaec-inc", "dlaec", "dapplaec"):
            res = solve(fm, cfg_for(alg, sign))
            assert len(res.trace) <= fm.n - 1
            assert res.stats["n_contractions"] == len(res.trace)

    def test_cluster_count_non_decreasing_in_alpha(self):
        for trial in range(4):
            fm, _ = clustered_instance(trial, n_range=(60, 150))
            counts = []
            for alpha in (0.0, 0.2, 0.4, 0.6, 0.8):
                cfg = SolverConfig(
                    algorithm="dgaec-inc", alpha=alpha, alpha_sign=AlphaSign.MINUS
                )
                counts.append(dense_gaec_inc(fm, cfg).partition.n_clusters)
            assert counts == sorted(counts)


def queue_instances():
    """(features, sign, alpha): clustered rows, integer rows with ties and
    Gaussian rows."""
    for idx in range(4):
        yield (*clustered_instance(idx), 0.4)
    ints = np.random.default_rng(11).integers(-2, 3, size=(80, 2))
    yield FeatureMatrix(ints.astype(np.float32)), AlphaSign.MINUS, 0.5
    yield make_instance(150, 8, seed=12), AlphaSign.MINUS, 0.4


class TestQueueEntries:
    # every repair computes the queue entries of the rows it changes, so
    # before each pick every alive node's entry is what a refresh of its
    # row gives, and best_arc never refreshes a stale entry: the solver
    # refreshes only the graphs it builds
    @pytest.mark.parametrize("alg", ["dgaec", "dgaec-inc", "dlaec", "dapplaec"])
    def test_entries_stay_current_after_every_merge(self, alg):
        picks = 0

        def checked_best_arc(graph, queue, state):
            nonlocal picks
            picks += 1
            alive = state.alive_ids()
            fresh = CandidateQueue(graph.capacity)
            fresh.refresh(graph, alive)
            np.testing.assert_array_equal(queue.best_sim[alive], fresh.best_sim[alive])
            np.testing.assert_array_equal(queue.best_dst[alive], fresh.best_dst[alive])
            return best_arc(graph, queue, state)

        for fm, sign, alpha in queue_instances():
            picks = 0
            cfg = SolverConfig(algorithm=alg, alpha=alpha, alpha_sign=sign)
            with (
                mock.patch.object(solvers, "best_arc", checked_best_arc),
                mock.patch.object(
                    CandidateQueue, "refresh", autospec=True, side_effect=CandidateQueue.refresh
                ) as refresh,
            ):
                res = solve(fm, cfg)
            assert picks >= len(res.trace)
            # a stale refresh passes the alive mask; the checker's do not
            assert all(len(c.args) == 3 and not c.kwargs for c in refresh.call_args_list)
            assert refresh.call_count - picks == 1 + res.stats["rebuilds"]


class TestLazyRebuild:
    # a lazy rebuild drops the previous graph and queue before it builds
    # the new ones, so the solve never holds two graphs at once
    @pytest.mark.parametrize("alg", ["dlaec", "dapplaec"])
    def test_previous_graph_and_queue_freed_before_each_rebuild(self, alg):
        held: list[weakref.ref] = []
        rebuilds = 0

        def holding(build):
            def wrapped(*args):
                built = build(*args)
                held.extend(weakref.ref(obj) for obj in built)
                return built

            return wrapped

        build_graph = holding(solvers.build_nn_graph)

        def checked_build(state, k):
            assert all(ref() is None for ref in held)
            return build_graph(state, k)

        for fm, sign, alpha in queue_instances():
            held.clear()
            cfg = SolverConfig(algorithm=alg, alpha=alpha, alpha_sign=sign)
            with (
                mock.patch.object(solvers, "build_nn_graph", checked_build),
                mock.patch.object(
                    solvers, "_initial_graph_from_index",
                    holding(solvers._initial_graph_from_index),
                ),
            ):
                res = solve(fm, cfg)
            # the initial graph and queue, and those of every rebuild
            assert len(held) == 2 * (1 + res.stats["rebuilds"])
            rebuilds += res.stats["rebuilds"]
        assert rebuilds > 0


class TestSolveDispatch:
    def test_gaec_accepts_features_via_materialization(self):
        fm = make_instance(12, 3, seed=1)
        res = solve(fm, cfg_for("gaec"))
        ref = dense_gaec(fm, cfg_for("dgaec"))
        assert res.partition.objective == pytest.approx(
            ref.partition.objective, rel=1e-9, abs=1e-12
        )

    def test_dense_algorithms_reject_graphs(self):
        g = SparseWeightedGraph.from_edges(3, [(0, 1, 1.0)])
        with pytest.raises(ArgumentError):
            solve(g, cfg_for("dgaec"))

    def test_unknown_algorithm(self):
        with pytest.raises(ArgumentError):
            SolverConfig(algorithm="kmeans")

    def test_stats_have_one_schema(self):
        fm, sign = clustered_instance(3)
        single = FeatureMatrix(np.ones((1, 3), dtype=np.float32))
        schemas = {
            frozenset(solve(inst, cfg_for(alg, sign)).stats)
            for alg in ALGORITHMS
            for inst in (fm, single)
        }
        assert schemas == {
            frozenset(
                {
                    "wall_ms",
                    "n_contractions",
                    "n_exhaustive_searches",
                    "loop_searches",
                    "in_arc_insertions",
                    "init_ms",
                    "rebuilds",
                }
            )
        }

    def test_default_k_per_algorithm(self):
        assert SolverConfig(algorithm="dgaec").resolved_k == 1
        assert SolverConfig(algorithm="dgaec-inc").resolved_k == 5
        assert SolverConfig(algorithm="dlaec").resolved_k == 5
        assert SolverConfig(algorithm="dapplaec").resolved_k == 5
        assert SolverConfig(algorithm="dgaec", k=7).resolved_k == 7
