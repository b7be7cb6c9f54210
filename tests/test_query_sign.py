"""Query rows made from database rows by the sign row.

Under MINUS a query row differs from its database row only in the sign of
the affinity column, so the contraction state and the indexes keep one
array of rows and negate that column on a copy a search gathers anyway, or
on one row. Negation is exact, and ``q_u . d_v`` has the same terms as
``d_u . q_v``, so every product must have the bits of the same product
taken with a separate array of query rows, as :func:`_extended_rows`
builds it and as the contraction state held it before. These tests pin
that, bit for bit, under every sign, for d = 1, zero and duplicate rows,
and integer and continuous features, fresh and after random contractions.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from densemulticut import knn
from densemulticut.ann import AnnParams, ExactIndex, ProximityGraphIndex
from densemulticut.core import AlphaSign, ContractionState, FeatureMatrix, _extended_rows
from densemulticut.knn import _BLOCK, NeighbourLists, select_rows


@st.composite
def instances(draw, min_n, max_n):
    """Integer or continuous features with some zero and some duplicate
    rows, per-node affinities and any sign."""
    n = draw(st.integers(min_n, max_n))
    # d = 7 gives rows of 8 float64 under an affinity, a 64-byte stride
    d = draw(st.sampled_from([1, 2, 3, 7, 8]))
    integer = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if integer:
        rows = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        alpha = rng.integers(0, 3, size=n)
    else:
        rows = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-2, 2, (n, 1))
        alpha = rng.uniform(0.0, 2.0, size=n)
    rows[rng.choice(n, draw(st.integers(0, n // 4)), replace=False)] = 0.0
    dups = draw(st.integers(0, n // 4))
    rows[rng.integers(0, n, dups)] = rows[rng.integers(0, n, dups)]
    sign = draw(st.sampled_from(list(AlphaSign)))
    return FeatureMatrix(rows.astype(np.float32), alpha, sign), rng


def contracted(fm, rng, merges):
    """A state after ``merges`` random contractions, with the query rows it
    held as a second array before the sign row: :func:`_extended_rows`'s
    query rows, summed and moved as ``contract`` sums and moves rows."""
    state = ContractionState(fm)
    qr = _extended_rows(fm)[0].copy()
    for _ in range(merges):
        i, j = rng.choice(state.alive_ids(), size=2, replace=False).tolist()
        si, sj, last = state.slot[i], state.slot[j], state.n_alive - 1
        state.contract(i, j)
        np.add(qr[si], qr[sj], out=qr[si])
        if sj != last:
            qr[sj] = qr[last]
    return state, qr


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def assert_same_lists(got, want_ids, want_sims):
    np.testing.assert_array_equal(got.ids, want_ids)
    np.testing.assert_array_equal(bits(got.sims), bits(want_sims))


def two_array_topk(qr, queries, db, ids, k):
    """``block_topk`` with separate query rows ``qr[queries]``, each query
    skipping its own database row ``queries[r]``. Up to ``_BLOCK`` queries,
    and when float32 cannot screen, one float64 product per ``_BLOCK``
    queries; otherwise one float64 dot product per pair, as the screen
    rescores the pairs it keeps. Every block is cut by ``select_rows``."""
    nq, n = queries.size, db.shape[0]
    q_norms = np.sqrt(np.einsum("ij,ij->i", qr, qr))[queries]
    d_max = np.sqrt(np.einsum("ij,ij->i", db, db).max())
    per_pair = nq > _BLOCK and knn._screen_slack(q_norms, d_max, db.shape[1]) is not None
    out_ids, out_sims = np.empty((nq, k), dtype=np.int64), np.empty((nq, k))
    for lo in range(0, nq, nq if per_pair else _BLOCK):
        rows = queries[lo : lo + (nq if per_pair else _BLOCK)]
        if per_pair:
            sims = np.array([
                np.einsum("ij,ij->i", np.repeat(qr[u : u + 1], n, axis=0), db) for u in rows
            ])
        else:
            sims = qr[rows] @ db.T
        sims[np.arange(rows.size), rows] = -np.inf
        out_ids[lo : lo + rows.size], out_sims[lo : lo + rows.size] = select_rows(sims, ids, k)
    return out_ids, out_sims


def two_array_seed(db, qr, k, params, seed):
    """The default index's lists from separate query rows: its build with
    ``qr`` in place of the signed copies."""
    n = db.shape[0]
    rng = np.random.default_rng(seed)
    n_anchor = min(n, max(8, int(4.0 * np.sqrt(n))))
    anchors = np.sort(rng.choice(n, size=n_anchor, replace=False))
    anchor_rows = db[anchors]
    probes = int(np.clip(round(params.ef_construction / max(1.0, n / n_anchor)), 2, n_anchor))
    near = select_rows(anchor_rows @ anchor_rows.copy().T, np.arange(n_anchor), probes)[0]
    own = np.concatenate([
        np.argmax(qr[lo : lo + _BLOCK] @ anchor_rows.T, axis=1) for lo in range(0, n, _BLOCK)
    ])
    members = [np.flatnonzero(own == c) for c in range(n_anchor)]
    keep = min(k, params.m_links)
    ids = np.full((n, k), -1, dtype=np.int64)
    sims = np.full((n, k), -np.inf)
    for c, group in enumerate(members):
        if group.size:
            cand = np.sort(np.concatenate([members[a] for a in near[c]]))
            block = qr[group] @ db[cand].T
            block[cand[None, :] == group[:, None]] = -np.inf
            ids[group, :keep], sims[group, :keep] = select_rows(block, cand, keep)
    return NeighbourLists(ids, sims)


class TestStateProducts:
    @settings(max_examples=150, deadline=None)
    @given(case=instances(2, 40), data=st.data())
    def test_sim_sims_to_and_repair_products(self, case, data):
        fm, rng = case
        state, qr = contracted(fm, rng, data.draw(st.integers(0, fm.n - 2)))
        db = state.packed
        alive = state.alive_ids()
        slot = state.slot
        for u in alive.tolist():
            others = alive[alive != u]
            for v in others.tolist():
                assert bits(state.sim(u, v)) == bits(np.dot(qr[slot[u]], db[slot[v]]))
            want = db.take(slot.take(others), axis=0) @ qr[slot[u]]
            np.testing.assert_array_equal(bits(state.sims_to(u, others)), bits(want))
            # the repairs' sim(q, m) for every in-neighbour q of a merged m
            got = state.query_row(u) @ db.take(slot.take(others), axis=0).T
            want = db[slot[u]] @ qr.take(slot.take(others), axis=0).T
            np.testing.assert_array_equal(bits(got), bits(want))

    @settings(max_examples=100, deadline=None)
    @given(case=instances(2, 40), k=st.integers(1, 6), data=st.data())
    def test_topk_batch_one_block(self, case, k, data):
        fm, rng = case
        state, qr = contracted(fm, rng, data.draw(st.integers(0, fm.n - 2)))
        n = state.n_alive
        queries = state.alive_ids()
        got = knn.topk_batch(state, queries, k)
        want = two_array_topk(qr[:n], state.slot[queries], state.packed[:n], state.order[:n], k)
        assert_same_lists(got, *want)

    @settings(max_examples=12, deadline=None)
    @given(case=instances(_BLOCK + 1, _BLOCK + 120), k=st.sampled_from([1, 5]), data=st.data())
    def test_topk_batch_screened(self, case, k, data):
        fm, rng = case
        state, qr = contracted(fm, rng, data.draw(st.integers(0, fm.n - _BLOCK - 1)))
        n = state.n_alive
        queries = state.alive_ids()
        got = knn.topk_batch(state, queries, k)
        want = two_array_topk(qr[:n], state.slot[queries], state.packed[:n], state.order[:n], k)
        assert_same_lists(got, *want)


class TestIndexes:
    @settings(max_examples=100, deadline=None)
    @given(case=instances(2, 60), k=st.integers(1, 6))
    def test_exact_index(self, case, k):
        fm, _ = case
        qr, db = _extended_rows(fm)
        state = ContractionState(fm)
        ids = np.arange(fm.n)
        got = ExactIndex(state.packed, state.query_sign).self_knn(k)
        assert_same_lists(got, *two_array_topk(qr, ids, db, ids, k))

    @settings(max_examples=100, deadline=None)
    @given(case=instances(9, 120), k=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_proximity_graph_index(self, case, k, seed):
        # above 8 rows not every node is an anchor, so the assignment and
        # the probed groups are real
        fm, _ = case
        qr, db = _extended_rows(fm)
        state = ContractionState(fm)
        got = ProximityGraphIndex(state.packed, state.query_sign, seed=seed).self_knn(k)
        want = two_array_seed(db, qr, k, AnnParams(), seed)
        assert_same_lists(got, want.ids, want.sims)


def test_state_holds_one_array_of_rows():
    # under every sign building the state holds n·dim·8 bytes of rows and
    # no second copy: the peak is the rows, the int64 order, slot and
    # forest parent arrays and the forest's mask (42·n - 17 bytes) and
    # array headers; a second array of query rows would add n·dim·8
    n, d = 3000, 40
    rows = np.random.default_rng(6).standard_normal((n, d)).astype(np.float32)
    for sign in AlphaSign:
        fm = FeatureMatrix(rows).with_affinity(0.4, sign)
        tracemalloc.start()
        try:
            state = ContractionState(fm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row_bytes = n * state.dim * 8
        assert state.packed.nbytes == row_bytes
        assert row_bytes <= peak <= row_bytes + 42 * n + 16384
