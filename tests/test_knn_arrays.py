"""Array-backed NN graph, its reverse index, per-node candidate queue,
block top-k, the selection helper, the queue entries the graph updates
compute, the two in-neighbour block paths of the lazy update and the tie
contract under exact similarity ties."""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densemulticut import knn
from densemulticut.core import AlphaSign, ContractionState, FeatureMatrix
from densemulticut.knn import (
    _FEW_CELLS,
    INF,
    CandidateQueue,
    best_arc,
    build_nn_graph,
    exhaustive_update,
    incremental_update,
    select_rows,
    topk_batch,
    topk_exact,
)
from densemulticut.solvers import SolverConfig, solve

from conftest import make_instance, set_arcs
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
    @pytest.mark.parametrize("nq", [1, knn._BLOCK, knn._BLOCK + 1, 700])
    def test_tied_kth_values_across_blocks_and_slices(self, nq):
        # 5^2 distinct rows among 700 nodes: nearly every k-th value is tied;
        # up to _BLOCK queries are cut as one block, more span two GEMM blocks
        state = integer_state(700, 2, seed=1)
        queries = np.arange(nq)
        lists = topk_batch(state, queries, 4)
        assert len(lists) == nq
        sample = np.unique(np.r_[queries[::7], queries[-1]])
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


def minus_sign(dim):
    """The sign row of MINUS rows of ``dim`` entries: the last one negated."""
    sign = np.ones(dim)
    sign[-1] = -1.0
    return sign


def brute_block(qr, queries, db, ids, k):
    """Reference for ``knn.block_topk``: one float64 product of separate
    query rows ``qr[queries]`` with ``db``, ranked by (-sim, id) row by
    row, each query skipping its own row ``queries[r]``."""
    sims = qr[queries] @ db.T
    sims[np.arange(queries.size), queries] = -np.inf
    order = np.lexsort((np.broadcast_to(ids, sims.shape), -sims))[:, :k]
    return ids[order], np.take_along_axis(sims, order, axis=1)


def assert_sims_close(qr, queries, db, got, want):
    """Similarities agree to a relative 1e-12 of each row's scale
    ``‖q‖·max‖d‖``, the bound on any of its similarities; a similarity near
    zero from cancelling terms carries float64 rounding of that scale."""
    q = qr[queries]
    scale = np.sqrt(np.einsum("ij,ij->i", q, q) * np.einsum("ij,ij->i", db, db).max())
    assert (np.abs(got - want) <= 1e-12 * scale[:, None]).all()


def spread_rows(n, d, seed):
    """Continuous rows with norms spread over 10^0 to 10^3, like the merged
    rows of hub clusters, and their search arguments: ids out of order and
    more than ``_BLOCK`` queries, each skipping its own row."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(0, 3, n)[:, None]
    ids = rng.permutation(n) + 100
    queries = rng.permutation(n)[: knn._BLOCK + 88]
    return rows, ids, queries


class TestScreenedSearch:
    """Searches of more than ``_BLOCK`` queries: float32 screen, float64
    rescore."""

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("d", [3, 33])
    def test_spread_norms_match_brute_force(self, k, d):
        db, ids, queries = spread_rows(700, d, seed=d)
        # query rows differ from database rows, as under MINUS
        sign = minus_sign(d)
        qr = db * sign
        with mock.patch.object(knn, "_screen_block", wraps=knn._screen_block) as spy:
            got = knn.block_topk(db, queries, ids, k, sign)
        assert spy.call_count == 2
        want_ids, want_sims = brute_block(qr, queries, db, ids, k)
        np.testing.assert_array_equal(got.ids, want_ids)
        assert_sims_close(qr, queries, db, got.sims, want_sims)

    @pytest.mark.parametrize("k", [1, 5])
    def test_float32_inversions_at_the_kth_place(self, k):
        # per query, k - 1 clear winners, then B = 1 + 2^-26, A = 1 and
        # C = 1 - 2^-26, which all round to the float32 1. B's row cancels
        # 2^24 + 0.75 + 2^-26 against -2^24, so its float32 product reads
        # 0 or 0.25, far below A's exact 1: B ranks k-th, but only a slack
        # wider than float32 rounding gathers it. A and C tie in float32.
        # The queries are rows of the database too, (s, s, s, 4s) under the
        # MINUS sign, so their query rows are (s, s, s, -4s) and any two of
        # them score -13·s·s', below every other row.
        big = 2.0**24
        tops = np.array([[0.0, 0.0, 3.0 - 0.25 * t, 0.0] for t in range(k - 1)]).reshape(-1, 4)
        specials = [
            [big + 0.75 + 2.0**-26, -big, 0.25, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0 - 2.0**-26, 0.0],
        ]
        rng = np.random.default_rng(3)
        fillers = np.c_[np.zeros((600, 2)), rng.uniform(-0.5, 0.5, 600), np.zeros(600)]
        nq = knn._BLOCK + 100
        # power-of-two scales keep every product exact in both precisions
        scale = 2.0 ** (np.arange(nq) % 4)[:, None]
        db = np.concatenate([tops, specials, fillers, np.array([1.0, 1.0, 1.0, 4.0]) * scale])
        ids = np.random.default_rng(4).permutation(db.shape[0])
        queries = db.shape[0] - nq + np.arange(nq)
        got = knn.block_topk(db, queries, ids, k, minus_sign(4))
        want = np.array([3.0 - 0.25 * t for t in range(k - 1)] + [1.0 + 2.0**-26])
        np.testing.assert_array_equal(got.ids, np.broadcast_to(ids[:k], (nq, k)))
        np.testing.assert_array_equal(got.sims, want * scale)

    def test_results_do_not_depend_on_the_blocking(self):
        db, ids, queries = spread_rows(700, 33, seed=5)
        runs = []
        for block in (64, 256):
            with mock.patch.object(knn, "_BLOCK", block):
                runs.append(knn.block_topk(db, queries, ids, 5))
        np.testing.assert_array_equal(runs[0].ids, runs[1].ids)
        np.testing.assert_array_equal(runs[0].sims.view(np.int64), runs[1].sims.view(np.int64))

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("rows", ["spread", "ties"])
    def test_results_do_not_depend_on_the_block_size(self, rows, k):
        # MINUS query rows; "ties" holds 125 distinct integer rows among
        # 700, so rows repeat and nearly every k-th value is tied
        if rows == "ties":
            fm = integer_state(700, 3, seed=8).fm.with_affinity(0.5, AlphaSign.MINUS)
            state = ContractionState(fm)
            db, ids, sign = state.packed, state.order, state.query_sign
            queries = np.random.default_rng(9).permutation(700)[: knn._BLOCK + 88]
        else:
            db, ids, queries = spread_rows(700, 33, seed=9)
            sign = minus_sign(33)
        qr = db * sign
        # cell budgets that give blocks of _BLOCK rows, of 100 rows and of
        # the floor
        sizes, runs = [], []
        for cells in (db.shape[0] * knn._BLOCK, db.shape[0] * 100, 0):
            with (
                mock.patch.object(knn, "_SCREEN_CELLS", cells),
                mock.patch.object(knn, "_screen_block", wraps=knn._screen_block) as spy,
            ):
                runs.append(knn.block_topk(db, queries, ids, k, sign))
            sizes.append(max(c.args[1].size for c in spy.call_args_list))
        assert sizes == [knn._BLOCK, 100, knn._SCREEN_FLOOR]
        for run in runs[1:]:
            np.testing.assert_array_equal(run.ids, runs[0].ids)
            np.testing.assert_array_equal(run.sims.view(np.int64), runs[0].sims.view(np.int64))
        want_ids, want_sims = brute_block(qr, queries, db, ids, k)
        np.testing.assert_array_equal(runs[0].ids, want_ids)
        assert_sims_close(qr, queries, db, runs[0].sims, want_sims)

    def test_a_pair_rescores_alone_as_in_a_batch(self):
        db, ids, queries = spread_rows(700, 129, seed=6)
        got = knn.block_topk(db, queries, ids, 5)
        reverse = knn.block_topk(db, queries[::-1], ids, 5)
        np.testing.assert_array_equal(reverse.sims[::-1].view(np.int64), got.sims.view(np.int64))
        pos = np.argsort(ids)
        for row in range(0, queries.size, 37):
            u = queries[row]
            for t, s in got[row]:
                v = pos[t - 100]
                alone = np.einsum("ij,ij->i", db[u : u + 1], db[v : v + 1])[0]
                assert alone.view(np.int64) == np.float64(s).view(np.int64)

    @pytest.mark.parametrize("scale", [1e-25, 1e20])
    def test_magnitudes_outside_float32_take_float64_products(self, scale):
        rng = np.random.default_rng(7)
        db = rng.standard_normal((700, 33)) * scale
        ids = np.arange(700)
        queries = ids[: knn._BLOCK + 50]
        with mock.patch.object(knn, "_screen_block", wraps=knn._screen_block) as spy:
            got = knn.block_topk(db, queries, ids, 5)
        assert spy.call_count == 0
        want_ids, want_sims = brute_block(db, queries, db, ids, 5)
        np.testing.assert_array_equal(got.ids, want_ids)
        assert_sims_close(db, queries, db, got.sims, want_sims)


class TestPackedSearch:
    # at least n/2 random merges scramble the packed order, so the packed
    # columns are far from ascending id order when the searches run
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 90),
        d=st.integers(1, 3),
        sign=st.sampled_from([AlphaSign.PLUS, AlphaSign.MINUS, AlphaSign.OFF]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_searches_after_merges_match_brute_force(self, n, d, sign, seed):
        rng = np.random.default_rng(seed)
        fm = integer_state(n, d, seed).fm.with_affinity(0.5, sign)
        state = ContractionState(fm)
        for _ in range(int(rng.integers((n + 1) // 2, n - 1))):
            i, j = rng.choice(state.alive_ids(), size=2, replace=False)
            state.contract(int(i), int(j))
        alive = state.alive_ids()
        # one and two queries, the searches of a merge's repair
        few = rng.choice(alive, size=2, replace=False)
        for k in (1, 3, 6):
            assert_matches_brute(state, alive, k, topk_batch(state, alive, k))
            for queries in (few[:1], few):
                assert_matches_brute(state, queries, k, topk_batch(state, queries, k))
            exact = [topk_exact(state, int(q), k) for q in alive]
            assert_matches_brute(state, alive, k, exact)


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
    # tail of c mod G columns; with the widest, blocks on both sides of the
    # partition cut's size limit
    @settings(max_examples=300, deadline=None)
    @given(
        r=st.integers(1, 5),
        c=st.one_of(
            st.integers(1, 12),
            st.integers(13, 300),
            st.integers(500, 530),
            st.integers(_FEW_CELLS // 5, _FEW_CELLS + 5),
        ),
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
    def test_best_arc_skips_a_dead_best_target_without_a_push(self):
        fm = make_instance(30, 3, seed=8, alpha=0.4, sign=AlphaSign.PLUS)
        state = ContractionState(fm)
        graph, queue = build_nn_graph(state, 2)
        i, j, _ = best_arc(graph, queue, state)
        pointing = set(np.flatnonzero(((graph.nbr == i) | (graph.nbr == j)).any(axis=1)).tolist())
        stale = [u for u in pointing - {i, j} if queue.best_dst[u] in (i, j)]
        assert stale, "instance should leave some cached bests pointing at i or j"
        m = state.contract(i, j)
        # drop i's and j's rows and every arc pointing at them
        for u in pointing | {i, j}:
            kept = [] if u in (i, j) else [a for a in graph.arcs(u) if a[0] not in (i, j)]
            set_arcs(graph, u, kept, from_full=graph.floor[u] < INF and u not in (i, j))
        set_arcs(graph, m, [], from_full=False)
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


def brute_best_arc(graph, state):
    """Scan every arc of every alive row: the largest similarity, ties
    toward the smallest (min id, max id) pair; ``None`` below zero."""
    arcs = [
        (s, -min(u, t), -max(u, t))
        for u in state.alive_ids().tolist()
        for t, s in graph.arcs(u)
    ]
    if not arcs or max(arcs)[0] < 0.0:
        return None
    s, lo, hi = max(arcs)
    return -lo, -hi, s


def brute_best_pair(state):
    """The pair the sparse greedy baseline contracts next: the largest
    similarity over all alive pairs, ties toward the smallest (min id,
    max id) pair; ``None`` below zero."""
    ids = state.alive_ids().tolist()
    pairs = [(state.sim(a, b), -a, -b) for n, a in enumerate(ids) for b in ids[n + 1 :]]
    if not pairs or max(pairs)[0] < 0.0:
        return None
    s, lo, hi = max(pairs)
    return -lo, -hi, s


def brute_entries(graph, ids):
    """Each row's best arc by a scan of its arcs, ties toward the smaller
    target; ``(-inf, -1)`` for an empty row."""
    sims, dsts = [], []
    for u in ids.tolist():
        s, t = max(((s, -t) for t, s in graph.arcs(u)), default=(-np.inf, 1))
        sims.append(s)
        dsts.append(-t)
    return np.array(sims), np.array(dsts)


# ``knn._FEW_ROWS`` values that force every in-neighbour block of the
# lazy update through its numpy path or through its Python path
FORCED_PATHS = {"numpy": 0, "python": 1 << 30}


class TestUpdateEntries:
    # the repairs compute the queue entries of the rows they change from
    # their own blocks; after every merge they must equal entries
    # recomputed from the repaired graph, whichever path repairs the lazy
    # update's in-neighbour blocks. "lazy" and "exhaustive" merge random
    # pairs; "incremental" makes the exact repair's merges greedy, as the
    # solvers do, and random only when no arc is left. After the exact
    # repair, every pair of alive nodes stays covered, so on integer rows,
    # whose similarities are exact, the best arc is the best alive pair
    @pytest.mark.parametrize("update", ["incremental", "lazy", "exhaustive"])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 36),
        d=st.integers(1, 3),
        values=st.sampled_from(["integer", "continuous"]),
        sign=st.sampled_from([AlphaSign.PLUS, AlphaSign.MINUS, AlphaSign.OFF]),
        seed=st.integers(0, 2**32 - 1),
        path=st.sampled_from(sorted(FORCED_PATHS)),
    )
    def test_entries_equal_a_fresh_refresh(self, update, k, n, d, values, sign, seed, path):
        with mock.patch.object(knn, "_FEW_ROWS", FORCED_PATHS[path]):
            self._check_entries(update, k, n, d, values, sign, seed)

    def _check_entries(self, update, k, n, d, values, sign, seed):
        rng = np.random.default_rng(seed)
        if values == "integer":
            rows = rng.integers(-2, 3, size=(n, d))
        else:
            rows = rng.normal(size=(n, d))
        state = ContractionState(
            FeatureMatrix(rows.astype(np.float32)).with_affinity(0.5, sign)
        )
        graph, queue = build_nn_graph(state, k)
        while state.n_alive > 1:
            arc = best_arc(graph, queue, state) if update == "incremental" else None
            if arc is None:
                i, j = (int(x) for x in rng.choice(state.alive_ids(), size=2, replace=False))
            else:
                i, j, _ = arc
            m = state.contract(i, j)
            if update != "lazy":
                # every search, m's included, goes through topk_batch, which
                # the solvers' and the benchmark tracer's search counts read
                with mock.patch.object(knn, "topk_batch", wraps=topk_batch) as spy:
                    batch, searches = exhaustive_update(graph, state, i, j, m)
                queries = [q for c in spy.call_args_list for q in np.atleast_1d(c.args[1])]
                assert queries.count(m) == 1
                assert searches == len(queries)
                assert graph.floor[m] < INF
                graph.validate(state)
            else:
                batch, _ = incremental_update(graph, state, i, j, m)
                # no exhaustive search wrote m's row
                assert graph.floor[m] == INF
            queue.push_many(graph, batch)
            ids = np.arange(state.n0 + state.forest.n_merges)
            fresh = CandidateQueue(graph.capacity)
            fresh.refresh(graph, ids)
            np.testing.assert_array_equal(queue.best_sim[ids], fresh.best_sim[ids])
            np.testing.assert_array_equal(queue.best_dst[ids], fresh.best_dst[ids])
            want_sim, want_dst = brute_entries(graph, ids)
            np.testing.assert_array_equal(fresh.best_sim[ids], want_sim)
            np.testing.assert_array_equal(fresh.best_dst[ids], want_dst)
            assert best_arc(graph, queue, state) == brute_best_arc(graph, state)
            if update != "lazy" and values == "integer":
                assert brute_best_arc(graph, state) == brute_best_pair(state)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestRepairPaths:
    # incremental_update repairs a block of at most _FEW_ROWS in-neighbour
    # rows one row at a time in Python and a larger one with numpy. Two
    # copies of one instance take the same merges, one with every block
    # forced through each path; after every merge their graphs and batches
    # must be identical, similarity bits included. Clustered rows
    # make hubs of the merged nodes, so blocks fall on both sides of the
    # rule (from 0 to over 40 rows at every k). Integer rows make
    # similarities tie; continuous ones make a similarity's bits depend on
    # the product that computed it. The merges are the queue's best arc, or
    # a random pair one time in five and when no arc is left
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(60, 150),
        d=st.integers(2, 5),
        clusters=st.integers(2, 5),
        k=st.sampled_from([1, 2, 5]),
        values=st.sampled_from(["integer", "continuous"]),
        sign=st.sampled_from([AlphaSign.PLUS, AlphaSign.MINUS, AlphaSign.OFF]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_paths_leave_identical_graphs(self, n, d, clusters, k, values, sign, seed):
        rng = np.random.default_rng(seed)
        centers = rng.integers(-3, 4, size=(clusters, d))[rng.integers(0, clusters, size=n)]
        if values == "integer":
            rows = centers + rng.integers(-1, 2, size=(n, d))
        else:
            rows = centers + rng.normal(scale=0.5, size=(n, d))
        fm = FeatureMatrix(rows.astype(np.float32)).with_affinity(0.5, sign)
        runs = []
        for path in sorted(FORCED_PATHS):
            state = ContractionState(fm)
            runs.append((FORCED_PATHS[path], state, *build_nn_graph(state, k)))
        lead_state, lead_graph, lead_queue = runs[0][1:]
        while lead_state.n_alive > 1:
            arc = best_arc(lead_graph, lead_queue, lead_state)
            if arc is None or rng.random() < 0.2:
                alive = lead_state.alive_ids()
                i, j = (int(x) for x in rng.choice(alive, size=2, replace=False))
            else:
                i, j, _ = arc
            out = []
            for few_rows, state, graph, queue in runs:
                m = state.contract(i, j)
                with mock.patch.object(knn, "_FEW_ROWS", few_rows):
                    batch, _ = incremental_update(graph, state, i, j, m)
                queue.push_many(graph, batch)
                out.append((batch, graph))
            (a, ga), (b, gb) = out
            assert a.insertions == b.insertions
            np.testing.assert_array_equal(a.rows, b.rows)
            np.testing.assert_array_equal(a.best_dst, b.best_dst)
            np.testing.assert_array_equal(bits(a.best_sim), bits(b.best_sim))
            np.testing.assert_array_equal(ga.nbr, gb.nbr)
            np.testing.assert_array_equal(bits(ga.sim), bits(gb.sim))
            np.testing.assert_array_equal(ga.floor, gb.floor)
            # the same segments at the same places of the arena
            assert ga.in_used == gb.in_used
            for name in ("in_start", "in_end", "in_limit"):
                np.testing.assert_array_equal(getattr(ga, name), getattr(gb, name))
            for s, e in zip(ga.in_start.tolist(), ga.in_end.tolist()):
                np.testing.assert_array_equal(ga.in_src[s:e], gb.in_src[s:e])


def contract_randomly(update, k, n, d, values, sign, seed, check):
    """Build the exact graph of ``n`` random rows and contract pairs until
    one node is left, repairing with ``update`` ("lazy" or "exhaustive")
    and calling ``check(graph, state)`` after every repair. The merges are
    the queue's best arc, or a random pair one time in three and when no
    arc is left."""
    rng = np.random.default_rng(seed)
    if values == "integer":
        rows = rng.integers(-2, 3, size=(n, d))
    else:
        rows = rng.normal(size=(n, d))
    state = ContractionState(FeatureMatrix(rows.astype(np.float32)).with_affinity(0.5, sign))
    graph, queue = build_nn_graph(state, k)
    repair = incremental_update if update == "lazy" else exhaustive_update
    while state.n_alive > 1:
        arc = best_arc(graph, queue, state)
        if arc is None or rng.random() < 1 / 3:
            i, j = (int(x) for x in rng.choice(state.alive_ids(), size=2, replace=False))
        else:
            i, j, _ = arc
        m = state.contract(i, j)
        batch, _ = repair(graph, state, i, j, m)
        queue.push_many(graph, batch)
        check(graph, state)


def check_lookups(graph, state):
    """Every alive node's lookup, the one a repair makes for a parent,
    equals the sorted transpose of ``nbr``; ``validate`` checks that every
    arc is in its target's segment and that no segment overlaps another."""
    for t in state.alive_ids().tolist():
        # i = j = m = t: the header is t three times, the rest t's sources
        got = knn._in_neighbours(graph, state.alive, t, t, t)[3:]
        want = np.flatnonzero((graph.nbr == t).any(axis=1))
        np.testing.assert_array_equal(got, want)
    graph.validate(state)


class TestReverseIndex:
    # with the arena at its least size, one entry per arc slot, a build
    # leaves it nearly full, so the repairs move segments and compact the
    # arena from the rows over and over; a lookup must stay exact through
    # both
    @settings(max_examples=40, deadline=None)
    @given(
        update=st.sampled_from(["lazy", "exhaustive"]),
        n=st.integers(2, 40),
        d=st.integers(1, 4),
        k=st.sampled_from([1, 2, 3, 5]),
        values=st.sampled_from(["integer", "continuous"]),
        sign=st.sampled_from([AlphaSign.PLUS, AlphaSign.MINUS, AlphaSign.OFF]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lookups_equal_the_transpose_in_a_small_arena(
        self, update, n, d, k, values, sign, seed
    ):
        with mock.patch.object(knn, "_ARENA", 1):
            contract_randomly(update, k, n, d, values, sign, seed, check_lookups)

    def test_small_arena_takes_every_index_path(self):
        # the lazy repair's slices fit in a parent's room on inputs this
        # small, so only the exact repair, at k = 1, reaches every path
        seen = Counter()
        set_sources, move = knn.NNGraph._set_sources, knn.NNGraph._move
        index_rows = knn.NNGraph._index_rows

        def counted_set_sources(graph, *args):
            used, compactions = graph.in_used, seen["compaction"]
            set_sources(graph, *args)
            if seen["compaction"] > compactions:
                seen["slice compacts"] += 1
            else:
                seen["slice at the end" if graph.in_used > used else "slice in a parent"] += 1

        def counted_move(graph, *args):
            moved = move(graph, *args)
            seen["move" if moved else "move compacts"] += 1
            return moved

        def counted_index_rows(graph):
            seen["compaction" if graph.in_used else "build"] += 1
            index_rows(graph)

        with (
            mock.patch.object(knn, "_ARENA", 1),
            mock.patch.object(knn.NNGraph, "_set_sources", counted_set_sources),
            mock.patch.object(knn.NNGraph, "_move", counted_move),
            mock.patch.object(knn.NNGraph, "_index_rows", counted_index_rows),
        ):
            contract_randomly(
                "exhaustive", 1, 80, 3, "continuous", AlphaSign.MINUS, 1, check_lookups
            )
        paths = ["slice in a parent", "slice at the end", "slice compacts", "move", "move compacts"]
        assert seen["build"] == 1 and all(seen[p] for p in paths), seen


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
        k=st.sampled_from([1, 2, 3, 5]),
    )
    def test_dense_greedy_reproduces_gaec_under_ties(self, rows, sign, k):
        fm = FeatureMatrix(np.array(rows, dtype=np.float32))
        trace = {}
        for algo, algo_k in (("gaec", None), ("dgaec", k), ("dgaec-inc", k)):
            cfg = SolverConfig(algorithm=algo, k=algo_k, alpha=0.5, alpha_sign=sign)
            trace[algo] = [(s.i, s.j, s.m, s.similarity) for s in solve(fm, cfg).trace]
        assert trace["dgaec"] == trace["gaec"]
        assert trace["dgaec-inc"] == trace["gaec"]

    # the runs where dgaec-inc's trace differed from gaec while its repair
    # trusted the contraction bound over lists that predated the merged node
    @pytest.mark.parametrize(
        "seed, k, r",
        [(3378, 4, 2), (4638, 2, 2), (4638, 3, 2), (6316, 2, 2), (4779, 2, 3), (5138, 2, 3)],
    )
    def test_incremental_reproduces_gaec_at_small_k(self, seed, k, r):
        rng = np.random.default_rng(seed)
        n, d = rng.integers(2, 26), rng.integers(1, 4)
        fm = FeatureMatrix(rng.integers(-r, r + 1, (n, d)).astype(np.float32))
        sign = [AlphaSign.PLUS, AlphaSign.MINUS, AlphaSign.OFF][seed % 3]
        trace = {}
        for algo, algo_k in (("gaec", None), ("dgaec-inc", k)):
            cfg = SolverConfig(algorithm=algo, k=algo_k, alpha=0.5, alpha_sign=sign)
            trace[algo] = [(s.i, s.j, s.m, s.similarity) for s in solve(fm, cfg).trace]
        assert trace["dgaec-inc"] == trace["gaec"]
