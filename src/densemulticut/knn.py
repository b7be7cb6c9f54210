"""Directed k-NN graph over alive solver nodes and its contraction updates.

The graph stores every node's outgoing arcs in two padded arrays, ``nbr``
(target ids, ``-1`` pad) and ``sim`` (cached similarities, ``-inf`` pad),
one row of ``k`` slots per node id, plus the exact reverse-adjacency index.
The candidate queue keeps one entry per node, the best arc of its row, and
the contraction loop takes the argmax over those entries. After contracting
an arc the graph is repaired either by exhaustive re-search of every
affected node or incrementally: the merged node's neighbours are filtered
from the union of its parents' neighbour lists via an upper bound on
similarities to all other nodes, and the rows of nodes that pointed at a
parent are repaired as one block, with a single membership check for the
merged node instead of a full search whenever possible.

Every ranking breaks similarity ties toward the smaller node id, and a
selection cut to ``k`` first keeps every candidate tied with the k-th
value, so ties at the cut resolve by id as well. One helper,
:func:`select_rows`, does every cut of a block of similarities: the exact
searches, the approximate index's candidate lists and long single lists.
It takes the maxima of strided column groups first; the k-th largest group
maximum is a lower bound on the k-th value, so only the few entries at or
above it are gathered and sorted, and the selection stays exact.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .core import ContractionState
from .errors import ArgumentError

INF = float("inf")

# Query rows per matrix product of a batched search.
_BLOCK = 512
# Most column groups a selection takes maxima over.
_GROUPS = 128
# Up to this many candidates a plain sort beats the numpy calls of a
# partial selection.
_SMALL = 32


def ranked(ids: np.ndarray, sims: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Top-k of (ids, sims) sorted by descending sim, ties by smaller id."""
    if ids.size <= _SMALL:
        arcs = sorted(zip(ids.tolist(), sims.tolist()), key=lambda a: (-a[1], a[0]))
        return arcs[:k]
    top_ids, top_sims = select_rows(sims[None, :], ids, k)
    width = int(np.count_nonzero(top_ids[0] >= 0))
    return list(zip(top_ids[0, :width].tolist(), top_sims[0, :width].tolist()))


def select_rows(
    sims: np.ndarray, ids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k of every row of a block of similarities.

    ``sims`` holds one similarity per candidate, ``-inf`` where a candidate
    is excluded (it never ranks); ``ids`` names the columns, in any order,
    and is shared by all rows. Returns ``(rows, k)`` ids (``-1`` pad) and
    similarities (``-inf`` pad), each row ranked by descending similarity
    with ties toward the smaller id.

    The selection is exact and makes two passes. The first splits the ``c``
    columns into ``G`` strided groups, group ``g`` holding columns
    ``g, g+G, g+2G, ...`` and the last ``c mod G`` columns a tail, and takes
    each row's group maxima in one reduction. Let ``t`` be a row's k-th
    largest group maximum: the k groups with the largest maxima hold k
    distinct entries of at least ``t``, so the row's k-th value, and every
    entry tied with it, is at least ``t``. The second pass gathers only the
    entries at or above ``t`` from groups whose maximum reaches it and from
    the tail, and ranks them with one lexsort by (row, -sim, id) before
    cutting each row at k. Entries tied with the k-th value all pass the
    filter, so ties at the cut resolve by id with no special case.

    ``G = max(k, min(128, c // 4))``, from the shape alone: at least k
    groups, so that ``t`` exists; at least 4 columns per group below
    ``c = 512``, so that small blocks still skip most groups; and at most
    128 groups, so that finding ``t`` stays cheap against the pass over
    the block.
    """
    r, c = sims.shape
    out_ids = np.full(r * k, -1, dtype=np.int64)
    out_sims = np.full(r * k, -INF)
    if r and c and k:
        rows, cand, picked = _above_threshold(sims, ids, k)
        order = np.lexsort((cand, -picked, rows))
        rows = rows[order]
        rank = np.arange(rows.size) - np.searchsorted(rows, rows)
        keep = np.flatnonzero(rank < k)
        slot = rows[keep] * k + rank[keep]
        out_ids[slot] = cand[order[keep]]
        out_sims[slot] = picked[order[keep]]
    return out_ids.reshape(r, k), out_sims.reshape(r, k)


def _above_threshold(
    sims: np.ndarray, ids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, id and similarity of every entry that may rank in the top k of
    its row: the finite entries at or above the row's group-max threshold."""
    r, c = sims.shape
    g = max(k, min(_GROUPS, c // 4))
    span = c // g * g
    # the floor keeps -inf entries out when a row has fewer than k finite ones
    floor = np.finfo(sims.dtype).min
    rows, cols, picked = [], [], []
    if span:
        # splitting the column axis is a view for any strides, so the block
        # is never copied
        groups = sims[:, :span].reshape(r, c // g, g)
        gmax = groups.max(axis=1)
        t = np.maximum(np.partition(gmax, g - k, axis=1)[:, g - k], floor)
        hit_row, hit_group = np.nonzero(gmax >= t[:, None])
        vals = groups[hit_row, :, hit_group]
        at, pos = np.nonzero(vals >= t[hit_row, None])
        rows.append(hit_row[at])
        cols.append(hit_group[at] + g * pos)
        picked.append(vals[at, pos])
    else:
        t = np.full(r, floor, dtype=sims.dtype)
    if span < c:
        tail = sims[:, span:]
        tail_row, tail_col = np.nonzero(tail >= t[:, None])
        rows.append(tail_row)
        cols.append(tail_col + span)
        picked.append(tail[tail_row, tail_col])
    rows, cols, picked = (np.concatenate(a) for a in (rows, cols, picked))
    return rows, ids[cols], picked


class NeighbourLists(Sequence):
    """Per-query top-k lists held as padded arrays.

    ``ids`` (``-1`` pad) and ``sims`` (``-inf`` pad) have one row per query,
    ranked by descending similarity, ties toward the smaller id. Indexing
    yields one row as a list of ``(id, sim)`` pairs.
    """

    def __init__(self, ids: np.ndarray, sims: np.ndarray) -> None:
        self.ids = ids
        self.sims = sims

    def __len__(self) -> int:
        return self.ids.shape[0]

    def __getitem__(self, row: int) -> list[tuple[int, float]]:
        width = int(np.count_nonzero(self.ids[row] >= 0))
        return list(zip(self.ids[row, :width].tolist(), self.sims[row, :width].tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NeighbourLists):
            return NotImplemented
        return np.array_equal(self.ids, other.ids) and np.array_equal(self.sims, other.sims)

    __hash__ = None  # type: ignore[assignment]


def block_topk(
    qr: np.ndarray,
    queries: np.ndarray,
    db: np.ndarray,
    ids: np.ndarray,
    self_pos: np.ndarray,
    k: int,
) -> NeighbourLists:
    """Exact top-k of query rows ``qr[queries]`` against database rows ``db``.

    ``ids[c]`` names database row ``c``; ``self_pos[r]`` is the database row
    query ``r`` must skip, or ``-1``. Similarities come from one matrix
    product per block of 512 queries, and each block is selected whole.
    """
    if k < 1:
        raise ArgumentError("k must be at least 1")
    nq = queries.size
    out_ids = np.empty((nq, k), dtype=np.int64)
    out_sims = np.empty((nq, k))
    for start in range(0, nq, _BLOCK):
        stop = min(start + _BLOCK, nq)
        sims = qr[queries[start:stop]] @ db.T
        rows = np.flatnonzero(self_pos[start:stop] >= 0)
        sims[rows, self_pos[start + rows]] = -INF
        out_ids[start:stop], out_sims[start:stop] = select_rows(sims, ids, k)
        # free this block before the next product allocates its own, so at
        # most one block of similarities is alive
        del sims
    return NeighbourLists(out_ids, out_sims)


def topk_exact(state: ContractionState, query: int, k: int) -> list[tuple[int, float]]:
    """The k alive nodes most similar to ``query``, descending.

    Returns fewer than ``k`` entries when fewer candidates exist. Ties break
    toward the smaller node id.
    """
    if k < 1:
        raise ArgumentError("k must be at least 1")
    state.check_alive(query)
    alive = state.alive_ids()
    cand = alive[alive != query]
    if cand.size == 0:
        return []
    sims = state.db[cand] @ state.qr[query]
    return ranked(cand, sims, k)


def topk_batch(state: ContractionState, queries: np.ndarray, k: int) -> NeighbourLists:
    """Exact top-k among alive nodes for many query nodes at once.

    A query is never its own neighbour; a query that is not alive is
    ranked against every alive node.
    """
    queries = np.asarray(queries, dtype=np.int64)
    alive = state.alive_ids()
    self_pos = np.where(state.alive[queries], np.searchsorted(alive, queries), -1)
    return block_topk(state.qr, queries, state.db[alive], alive, self_pos, k)


class NNGraph:
    """Directed NN arcs in padded per-node arrays, with a reverse index.

    Row ``u`` of ``nbr`` (target ids, ``-1`` pad) and ``sim`` (cached
    similarities, ``-inf`` pad) holds u's at most ``k`` outgoing arcs in
    slot order; removed arcs leave holes that later arcs may fill.
    ``in_index`` maps a node to the set of nodes that point at it.
    ``full_list[u]`` records whether u's list was produced by an exhaustive
    search; the contraction bound falls back to a +inf sentinel for short
    lists of other provenance. Rows grow on demand past ``capacity``.
    """

    def __init__(self, k: int, capacity: int = 0) -> None:
        if k < 1:
            raise ArgumentError("k must be at least 1")
        self.k = k
        self.nbr = np.full((capacity, k), -1, dtype=np.int64)
        self.sim = np.full((capacity, k), -INF)
        self.full_list = np.zeros(capacity, dtype=bool)
        self.in_index: dict[int, set[int]] = {}

    @property
    def capacity(self) -> int:
        return self.nbr.shape[0]

    def _reserve(self, n: int) -> None:
        cap = self.capacity
        if n <= cap:
            return
        new = max(n, 2 * cap)
        self.nbr = np.concatenate([self.nbr, np.full((new - cap, self.k), -1, dtype=np.int64)])
        self.sim = np.concatenate([self.sim, np.full((new - cap, self.k), -INF)])
        self.full_list = np.concatenate([self.full_list, np.zeros(new - cap, dtype=bool)])

    def arcs(self, u: int) -> list[tuple[int, float]]:
        if u >= self.capacity:
            return []
        return [(t, s) for t, s in zip(self.nbr[u].tolist(), self.sim[u].tolist()) if t >= 0]

    def targets(self, u: int) -> list[int]:
        return [t for t, _ in self.arcs(u)]

    def min_sim(self, u: int) -> float:
        return min((s for _, s in self.arcs(u)), default=INF)

    def _clear_row(self, u: int) -> list[tuple[int, float]]:
        """Empty u's row; returns the arcs it held."""
        arcs = [(t, s) for t, s in zip(self.nbr[u].tolist(), self.sim[u].tolist()) if t >= 0]
        if arcs:
            for t, _ in arcs:
                self.in_index[t].discard(u)
            self.nbr[u] = -1
            self.sim[u] = -INF
        self.full_list[u] = False
        return arcs

    def set_rows(
        self, rows: np.ndarray, ids: np.ndarray, sims: np.ndarray, *, from_full: bool
    ) -> None:
        """Replace the arcs of every node in ``rows`` wholesale.

        ``ids`` and ``sims`` are padded ``(len(rows), w)`` arrays, ``w <= k``.
        """
        self._reserve(int(rows.max()) + 1 if rows.size else 0)
        for u in rows[(self.nbr[rows] >= 0).any(axis=1)].tolist():
            self._clear_row(u)
        w = ids.shape[1]
        self.nbr[rows, :w] = ids
        self.sim[rows, :w] = sims
        self.full_list[rows] = from_full
        for u, row in zip(rows.tolist(), ids.tolist()):
            for t in row:
                if t >= 0:
                    self.in_index.setdefault(t, set()).add(u)

    def set_arcs(self, u: int, arcs: list[tuple[int, float]], *, from_full: bool) -> None:
        """Replace u's outgoing arcs wholesale."""
        self._reserve(u + 1)
        self._clear_row(u)
        if arcs:
            ids = [t for t, _ in arcs]
            self.nbr[u, : len(arcs)] = ids
            self.sim[u, : len(arcs)] = [s for _, s in arcs]
            for t in ids:
                self.in_index.setdefault(t, set()).add(u)
        self.full_list[u] = from_full

    def drop_node(self, x: int) -> None:
        """Remove x's outgoing arcs and every arc pointing at x."""
        if x < self.capacity:
            self._clear_row(x)
        srcs = self.in_index.pop(x, None)
        if srcs:
            rows = np.fromiter(srcs, dtype=np.int64, count=len(srcs))
            r, c = np.nonzero(self.nbr[rows] == x)
            self.nbr[rows[r], c] = -1
            self.sim[rows[r], c] = -INF

    def validate(self, state: ContractionState, tol: float = 1e-9) -> None:
        """Assert structural invariants (tests only; O(arcs) plus recompute)."""
        transpose: dict[int, set[int]] = {}
        for u in range(self.capacity):
            arcs = self.arcs(u)
            assert not (arcs and not state.alive[u]), f"dead source {u} still has arcs"
            assert len(arcs) <= self.k, "row longer than k"
            seen = set()
            for t, s in arcs:
                assert t != u, "self arc"
                assert state.alive[t], f"arc to dead node {t}"
                assert t not in seen, "duplicate arc"
                seen.add(t)
                true = state.sim(u, t)
                assert abs(s - true) <= tol * max(1.0, abs(true)), (
                    f"cached sim {s} vs {true}"
                )
                transpose.setdefault(t, set()).add(u)
        for t, srcs in transpose.items():
            assert self.in_index.get(t, set()) == srcs
        for t, srcs in self.in_index.items():
            assert transpose.get(t, set()) == srcs


class ArcBatch:
    """Arcs written by one graph update, plus every row the update changed.

    ``rows`` names the nodes whose arc lists changed, including nodes that
    died; iterating yields the written arcs as ``(src, dst, sim)``.
    """

    __slots__ = ("rows", "_parts")

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows
        self._parts: list[tuple] = []

    def add(self, src, dst, sim) -> None:
        """Record arcs given as arrays or scalars that broadcast to the
        shape of ``sim``; entries with ``sim == -inf`` are padding."""
        self._parts.append((src, dst, sim))

    def __len__(self) -> int:
        return sum(int(np.count_nonzero(np.asarray(sim) > -INF)) for _, _, sim in self._parts)

    def __iter__(self):
        for part in self._parts:
            src, dst, sim = np.broadcast_arrays(*part)
            keep = sim > -INF
            yield from zip(src[keep].tolist(), dst[keep].tolist(), sim[keep].tolist())


class CandidateQueue:
    """One candidate arc per node: the best arc of its current row.

    ``best_sim[u]`` and ``best_dst[u]`` hold the highest-similarity arc of
    u's row, ties toward the smaller target id, or ``-inf`` and ``-1`` for
    an empty row. Each entry is computed from the graph when u's row is
    pushed; an entry whose endpoint has since died is refreshed lazily by
    :func:`best_arc`. Its length is the number of nodes with a candidate.
    """

    def __init__(self) -> None:
        self.best_sim = np.full(0, -INF)
        self.best_dst = np.full(0, -1, dtype=np.int64)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.best_sim > -INF))

    def refresh(self, graph: NNGraph, rows, alive: np.ndarray | None = None) -> None:
        """Recompute the entries of ``rows`` from the graph; when ``alive``
        is given, only arcs between alive nodes count."""
        cap = graph.capacity
        if self.best_sim.size < cap:
            grow = cap - self.best_sim.size
            self.best_sim = np.concatenate([self.best_sim, np.full(grow, -INF)])
            self.best_dst = np.concatenate([self.best_dst, np.full(grow, -1, dtype=np.int64)])
        nbr = graph.nbr[rows]
        sim = graph.sim[rows]
        if alive is not None:
            rows = np.asarray(rows, dtype=np.int64)
            sim = np.where(alive[nbr] & (nbr >= 0) & alive[rows, None], sim, -INF)
        top = sim.max(axis=1)
        self.best_sim[rows] = top
        self.best_dst[rows] = np.where(sim == top[:, None], nbr, cap).min(axis=1)

    def push_many(self, graph: NNGraph, arcs: ArcBatch) -> None:
        """Refresh the entries of every row an update changed."""
        self.refresh(graph, arcs.rows)


def best_arc(
    graph: NNGraph, queue: CandidateQueue, state: ContractionState
) -> tuple[int, int, float] | None:
    """Highest-similarity arc with similarity >= 0, or ``None``.

    Takes the argmax of the per-node entries over every node id allocated
    so far; equal similarities break toward the smallest (min id, max id)
    pair. Entries with a dead endpoint are refreshed and the selection
    repeats. The winning pair is returned as (min id, max id).
    """
    alive = state.alive
    n = state.n0 + state.forest.n_merges
    while True:
        sims = queue.best_sim[:n]
        dsts = queue.best_dst
        u = int(np.argmax(sims)) if sims.size else 0
        if not sims.size or sims[u] == -INF:
            return None
        top = float(sims[u])
        tied = np.flatnonzero(sims == top) if sims[u + 1 :].max(initial=-INF) == top else [u]
        stale = [w for w in tied if not (alive[w] and alive[dsts[w]])]
        if stale:
            queue.refresh(graph, stale, alive)
            continue
        if top < 0.0:
            return None
        lo, hi = min((min(w, int(dsts[w])), max(w, int(dsts[w]))) for w in tied)
        return int(lo), int(hi), top


def build_nn_graph(state: ContractionState, k: int) -> tuple[NNGraph, CandidateQueue]:
    """Exact NN graph over all alive nodes plus a fully populated queue."""
    graph = NNGraph(k, capacity=state.db.shape[0])
    queue = CandidateQueue()
    alive = state.alive_ids()
    if alive.size >= 2:
        lists = topk_batch(state, alive, k)
        graph.set_rows(alive, lists.ids, lists.sims, from_full=True)
    else:
        graph.full_list[alive] = True
    queue.refresh(graph, alive)
    return graph, queue


def contraction_bound(graph: NNGraph, i: int, j: int) -> float:
    """Upper bound on the similarity between the merge of (i, j) and any
    node outside the union of their neighbour lists.

    Uses the smallest cached similarity of each endpoint's list. Lists that
    are shorter than k and were not produced by exhaustive search cannot
    certify the bound, so the +inf sentinel is returned.
    """
    return _bound(
        graph.k, *((graph.arcs(u), u < graph.capacity and graph.full_list[u]) for u in (i, j))
    )


def _bound(k: int, *rows: tuple[list[tuple[int, float]], bool]) -> float:
    total = 0.0
    for arcs, from_full in rows:
        if not arcs or (len(arcs) < k and not from_full):
            return INF
        total += min(s for _, s in arcs)
    return total


def incremental_update(
    graph: NNGraph,
    state: ContractionState,
    i: int,
    j: int,
    m: int,
    *,
    lazy: bool,
) -> tuple[ArcBatch, int]:
    """Repair the NN graph after contracting (i, j) into ``m``.

    The merged node's arcs come from its parents' combined neighbour lists
    filtered by the contraction bound; an empty result triggers an
    exhaustive search unless ``lazy``. Nodes that listed i or j keep their
    surviving arcs and receive an arc to ``m`` when it provably belongs in
    their list; otherwise they are re-searched (or, when ``lazy``, left
    with whatever survived). Returns (the arcs written, number of
    exhaustive searches performed).
    """
    state.check_alive(m)
    full = (bool(graph.full_list[i]), bool(graph.full_list[j]))
    arcs_i, arcs_j = graph._clear_row(i), graph._clear_row(j)
    nin = (graph.in_index.pop(i, set()) | graph.in_index.pop(j, set())) - {i, j}
    bound = _bound(graph.k, (arcs_i, full[0]), (arcs_j, full[1]))
    union_targets = {t for t, _ in arcs_i} | {t for t, _ in arcs_j}

    in_nbrs = sorted(nin)
    q_ids = np.array(in_nbrs, dtype=np.int64)
    batch = ArcBatch(np.array([i, j, m, *in_nbrs], dtype=np.int64))
    searches = 0

    cand = np.array(sorted(t for t in union_targets if state.alive[t]), dtype=np.int64)
    merged_arcs: list[tuple[int, float]] = []
    if cand.size:
        sims = state.sims_to(m, cand)
        passing = sims >= bound
        if passing.any():
            merged_arcs = ranked(cand[passing], sims[passing], graph.k)
    if not merged_arcs and not lazy:
        merged_arcs = topk_exact(state, m, graph.k)
        searches += 1
        graph.set_arcs(m, merged_arcs, from_full=True)
    else:
        graph.set_arcs(m, merged_arcs, from_full=False)
    batch.add(m, [t for t, _ in merged_arcs], [s for _, s in merged_arcs])

    if q_ids.size:
        # the in-neighbour rows as one block: drop the arcs to i and j, then
        # give each row an arc to m where m is more similar than its weakest
        # surviving arc; a row lost an arc, so a slot is free. The test is
        # strict because m has the largest id, so an unlisted node tied with
        # the weakest arc outranks it
        nbr = graph.nbr[q_ids]
        sim = graph.sim[q_ids]
        gone = (nbr == i) | (nbr == j)
        nbr[gone] = -1
        sim[gone] = -INF
        live = nbr >= 0
        weakest = np.where(live, sim, INF).min(axis=1)
        sims_qm = state.db[m] @ state.qr[q_ids].T
        passes = sims_qm > weakest
        add = passes.nonzero()[0]
        if add.size:
            slot = live[add].argmin(axis=1)
            nbr[add, slot] = m
            sim[add, slot] = sims_qm[add]
            q_add = q_ids[add]
            graph.in_index.setdefault(m, set()).update(q_add.tolist())
            batch.add(q_add, m, sim[add, slot])
        graph.nbr[q_ids] = nbr
        graph.sim[q_ids] = sim
        if not lazy:
            pending = q_ids[~passes]
            if pending.size:
                lists = topk_batch(state, pending, graph.k)
                searches += pending.size
                graph.set_rows(pending, lists.ids, lists.sims, from_full=True)
                batch.add(pending[:, None], lists.ids, lists.sims)
    return batch, searches


def exhaustive_update(
    graph: NNGraph,
    state: ContractionState,
    i: int,
    j: int,
    m: int,
) -> tuple[ArcBatch, int]:
    """Post-contraction repair by exhaustive re-search of the merged node
    and of every node that listed i or j."""
    state.check_alive(m)
    nin = (graph.in_index.get(i, set()) | graph.in_index.get(j, set())) - {i, j}
    graph.drop_node(i)
    graph.drop_node(j)
    queries = np.array([m] + sorted(nin), dtype=np.int64)
    lists = topk_batch(state, queries, graph.k)
    graph.set_rows(queries, lists.ids, lists.sims, from_full=True)
    batch = ArcBatch(np.concatenate([np.array([i, j], dtype=np.int64), queries]))
    batch.add(queries[:, None], lists.ids, lists.sims)
    return batch, len(queries)
