"""Directed k-NN graph over alive solver nodes and its contraction updates.

The graph stores every node's outgoing arcs in two padded arrays, ``nbr``
(target ids, ``-1`` pad) and ``sim`` (cached similarities, ``-inf`` pad),
one row of ``k`` slots per node id, plus, per row, its floor and, per
target, a segment of the reverse index. A row written by an exhaustive
search has the k-th similarity that search found as its floor, or ``-inf``
when it listed every candidate; any other row, and every empty or unused
id, has the floor ``+inf``. The candidate queue keeps one entry per node,
the best arc of its row, and the contraction loop takes the argmax over
those entries.

The reverse index is arrays only: each target's segment of one int32
arena lists every node that pointed at it since the segment was written,
and a lookup keeps the sources still alive. That is exact because an arc
leaves a row only when one of its ends dies, and a row is written only
while it is empty. A build writes the index as one CSR from one sort of
``nbr``'s arcs by target; a merged node's in-list is written as one
slice; any other arc is appended to its target's segment, which moves to
the arena's end when full; a full arena is compacted by building the CSR
again from ``nbr`` (:class:`NNGraph`).

After contracting an arc the graph is repaired in one loop: the parents'
rows are emptied, their segments give the rows that pointed at them
(:func:`_in_neighbours`), every such row drops its arcs to a parent and
may take the merged node in its first freed slot, and the queue entries of
the changed rows are computed from what the repair holds, so the queue
takes them without reading the graph again. The repairs differ only in
which rows take the merged node and which rows are searched:

- The exact repair, for ``dgaec`` and ``dgaec-inc``, gives a row the
  merged node strictly above the row's floor, and searches the merged node
  and the rows left with no arc in one call to :func:`topk_batch`. Every
  pair of alive nodes stays covered by the row of the node searched later,
  so the best arc over all rows is the best pair over all alive nodes, as
  the sparse greedy baseline finds it.
- The lazy repair, for ``dlaec`` and ``dapplaec``, searches nothing: the
  merged node's neighbours are filtered from its parents' lists by an
  upper bound on its similarity to every other node, and a row takes the
  merged node when it beats the row's weakest surviving arc. A row left
  empty stays empty until the solver's next rebuild.

Both repair the in-neighbour block with :func:`_repair_block`, a handful
of whole-block numpy calls, except the lazy repair's blocks of at most
``_FEW_ROWS`` rows, most merges on unclustered rows, where numpy's fixed
cost per call outweighs its speed per row: a Python loop repairs those row
by row. Both paths take every similarity to the merged node from one
matrix product over the sorted rows, so they write the same bits; a
separate dot product per row can round differently.

Every ranking breaks similarity ties toward the smaller node id, and a
selection cut to ``k`` first keeps every candidate tied with the k-th
value, so ties at the cut resolve by id as well. One helper,
:func:`select_rows`, does every cut of a block of similarities: the exact
searches and the approximate index's candidate lists. It picks the cut
from the block's shape. At k = 1 the cut is a row maximum
plus the smallest id among the entries equal to it. A single row, such as
the merged node's search, and a block of at most ``_FEW_CELLS`` entries,
such as the two-row searches of a merge's repair, take each row's exact
k-th value with one partition and rank the entries at or above it. A block
whose k is an eighth of its columns or more is ranked whole by one stable
sort. Any other block takes the maxima of strided column groups first; the
k-th largest group maximum is a lower bound on the k-th value, so only the
few entries at or above it are gathered and ranked. Every cut is exact and
all give the same result. :func:`topk_exact`, the oracle of the tests and
of the benchmark's recall check, ranks its one row by a plain lexsort
instead, independent of the cuts.

The contraction state holds the alive nodes' database rows only, packed in
slots (``ContractionState.packed``), and every read of a row goes through
``ContractionState.slot``. A query row is made from its database row by
``ContractionState.query_sign``, which negates the affinity column under
MINUS, on a copy the search holds anyway: the gathered rows of a block of
queries, or the merged node's row, never a second array of all rows. The
exact searches multiply query rows straight against ``packed[:n_alive]``,
whose columns are not in id order. The selection ranks ids in any order,
so the order of the columns changes no ranking. A search of at most
``_BLOCK`` queries, such as a merge's one- or two-row search, is one
float64 product that goes straight into the cut; its similarity bits can
depend on the column's position and on how many query rows share the
product, since a BLAS may round a one-row product differently from a
product of several rows (OpenBLAS does). A larger search, every graph
build, is screened: each block of queries is multiplied in float32 and cut
under a rigorous bound on the rounding error, and the few entries that may
rank are rescored in float64 one pair at a time and ranked. The selection
is exact, every similarity is a float64 inner product, and its bits depend
on the pair alone, not on the blocking. So a block takes as many queries
as keep its product near a fixed budget, ``_SCREEN_CELLS`` float32 cells,
and a build's transient memory does not grow with the number of queries
times the number of alive rows. The graph and the queue are allocated
once, one row per node id the solve can create.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from itertools import chain, groupby, islice
from operator import itemgetter

import numpy as np

from .core import ContractionState
from .errors import ArgumentError, StateError

INF = float("inf")

# Query rows per matrix product of a batched search.
_BLOCK = 512
# Float32 cells per block of a screened search (4 MiB): a block takes
# _SCREEN_CELLS // n_db query rows, at least _SCREEN_FLOOR and at most
# _BLOCK, so its product stays near that size at any database size.
_SCREEN_CELLS = 1 << 20
_SCREEN_FLOOR = 32
# Most column groups a selection takes maxima over.
_GROUPS = 128
# Up to this many entries in a block, the partition cut's few numpy calls
# cost less than the group-max cut's; above it, its slower passes over the
# block cost more (tools/cut_bench.py).
_FEW_CELLS = 4000
# Most gathered entries the partition cut ranks with a Python sort; more,
# as ties or many rows gather, are ranked by the group-max cut's lexsort.
_FEW_ENTRIES = 32
# In-neighbour blocks of at most this many rows are repaired by a Python
# loop over the rows, larger ones by numpy over the block: up to it numpy's
# fixed cost per call outweighs its speed per row, and from 14 or 15 rows
# numpy is faster (tools/repair_bench.py).
_FEW_ROWS = 13
# Entries of the reverse index's arena per arc slot of the NN graph; at
# least 1, so that a compaction always fits. The rest is room for the
# segments written and moved between compactions. Compactions per solve at
# 1 / 2 / 4 (seed 1): clustered-greedy dgaec 19 / 1 / 0 and dgaec-inc
# 11 / 1 / 0, clustered-lazy 15 / 1 / 0, diffuse-lazy none; the State
# instance at n = 50000, dlaec and dapplaec, 169-180 / 8 / 3, at 8.4 ms
# each. So 2 costs at most 0.4 ms a solve more than 4, and half the memory:
# 8·k bytes per id.
_ARENA = 2


def _rank_key(arc: tuple[int, float]) -> tuple[float, int]:
    """Sort key of an ``(id, sim)`` pair: descending sim, ties by smaller id."""
    return -arc[1], arc[0]


def select_rows(
    sims: np.ndarray, ids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k of every row of a block of similarities.

    ``sims`` holds one similarity per candidate, ``-inf`` where a candidate
    is excluded (it never ranks); ``ids`` names the columns, in any order,
    and is shared by all rows. Returns ``(rows, k)`` ids (``-1`` pad) and
    similarities (``-inf`` pad), each row ranked by descending similarity
    with ties toward the smaller id.

    The cut depends on the shape of the block only, the partition cut's
    ranking also on how many entries it gathers, and every cut gives the
    same result for ids in any order:

    - k = 1: one argmax per row, then a count of the entries equal to each
      maximum, and the masked minimum over the shared ids only for rows
      where the maximum recurs, with no sort and no integer block of the
      size of ``sims``.
    - more than k columns and one row or at most ``_FEW_CELLS`` entries:
      each row's exact k-th value from one partition, then the entries at
      or above it, ranked (:func:`_select_few`). Per call this costs fewer
      numpy calls than the group-max cut, which matters for the one- and
      two-row searches of every merge's repair; on the merged node's
      one-row search, one partition also costs less than the group-max
      cut's passes up to about 20000 columns (beyond, on unclustered rows,
      it costs more).
    - k of at least an eighth of the columns: every row ranked whole by one
      stable sort (:func:`_select_sorted`). The group-max cut would gather
      a large share of the entries there, and its gather and lexsort cost
      more than the sort and hold more temporaries (the ANN's 178 × 178
      anchor block at k = 36: 3.7 against 1.6 ms, 1.00 against 0.59 MiB;
      ``tools/cut_bench.py --ann``).
    - otherwise the group-max cut (:func:`_select_groups`), which touches
      the block in two cheap passes and is several times faster than a
      partition on a wide block of many rows.

    The partition and group-max cuts gather every entry tied with a row's
    k-th value, so ties at the cut resolve by id with no special case.
    """
    r, c = sims.shape
    if k == 1 and c:
        best, top = _row_best(sims, ids)
        best[top == -INF] = -1
        return best[:, None], top[:, None]
    if 1 < k < c and (r == 1 or r * c <= _FEW_CELLS):
        return _select_few(sims, ids, k)
    if k >= c // 8:
        return _select_sorted(sims, ids, k)
    return _select_groups(sims, ids, k)


def _select_few(
    sims: np.ndarray, ids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`select_rows` for one row or a small block and ``1 < k < c``.

    One partition gives each row's exact k-th value; one ``nonzero``
    gathers the entries at or above it, which include every entry tied
    with it. Up to ``_FEW_ENTRIES`` of them are ranked by one Python sort
    by (row, -sim, id) before each row is cut at k; more, from ties at
    the k-th value or many rows, go to :func:`_cut_ranked`.
    """
    r, c = sims.shape
    # the floor keeps -inf entries out when a row has fewer than k finite ones
    floor = np.finfo(sims.dtype).min
    kth = np.maximum(np.partition(sims, c - k, axis=1)[:, c - k], floor)
    # flat positions cost less than nonzero's two index arrays, most on a
    # wide row; a single row needs no division
    flat = (sims >= kth[:, None]).ravel().nonzero()[0]
    rows, cols = np.divmod(flat, c) if r > 1 else (np.zeros_like(flat), flat)
    if rows.size > _FEW_ENTRIES:
        return _cut_ranked(r, k, rows, ids[cols], sims[rows, cols])
    entries = sorted(zip(rows.tolist(), (-sims[rows, cols]).tolist(), ids[cols].tolist()))
    # filled as lists: two conversions cost less than a write per row
    out_ids = [-1] * (r * k)
    out_sims = [-INF] * (r * k)
    for row, group in groupby(entries, itemgetter(0)):
        for slot, (_, neg, t) in enumerate(islice(group, k), row * k):
            out_ids[slot] = t
            out_sims[slot] = -neg
    return (
        np.array(out_ids, dtype=np.int64).reshape(r, k),
        np.array(out_sims).reshape(r, k),
    )


def _select_groups(
    sims: np.ndarray, ids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`select_rows` by the group-max cut, for any shape and k.

    The first pass splits the ``c`` columns into ``G`` strided groups,
    group ``g`` holding columns ``g, g+G, g+2G, ...`` and the last
    ``c mod G`` columns a tail, and takes each row's group maxima in one
    reduction. Let ``t`` be a row's k-th largest group maximum: the k
    groups with the largest maxima hold k distinct entries of at least
    ``t``, so the row's k-th value, and every entry tied with it, is at
    least ``t``. The second pass gathers only the entries at or above ``t``
    from groups whose maximum reaches it and from the tail, and ranks them
    with :func:`_cut_ranked`.

    ``G = max(k, min(128, c // 4))``, from the shape alone: at least k
    groups, so that ``t`` exists; at least 4 columns per group below
    ``c = 512``, so that small blocks still skip most groups; and at most
    128 groups, so that finding ``t`` stays cheap against the pass over
    the block.
    """
    r, c = sims.shape
    if r and c and k:
        rows, cols, picked = _above_threshold(sims, k)
        return _cut_ranked(r, k, rows, ids[cols], picked)
    return np.full((r, k), -1, dtype=np.int64), np.full((r, k), -INF)


def _select_sorted(
    sims: np.ndarray, ids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`select_rows` by ranking every row whole, for any shape and k.

    The columns are put in ascending id order, so one stable sort of the
    negated similarities ranks each row by descending similarity with ties
    toward the smaller id; ``-inf`` entries sort last and are cut to the
    pad. The similarities returned are the block's own entries.
    """
    r, c = sims.shape
    by_id = np.argsort(ids)
    cols = by_id[np.argsort(-sims.take(by_id, axis=1), axis=1, kind="stable")[:, :k]]
    w = cols.shape[1]
    out_ids = np.full((r, k), -1, dtype=np.int64)
    out_sims = np.full((r, k), -INF)
    out_sims[:, :w] = np.take_along_axis(sims, cols, axis=1)
    out_ids[:, :w] = np.where(out_sims[:, :w] > -INF, ids[cols], -1)
    return out_ids, out_sims


def _cut_ranked(
    r: int, k: int, rows: np.ndarray, cand: np.ndarray, picked: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(r, k)`` ids and similarities of gathered entries (row, id,
    similarity), ranked by one lexsort by (row, -sim, id) and cut at k per
    row; a row with fewer than k entries is padded."""
    out_ids = np.full(r * k, -1, dtype=np.int64)
    out_sims = np.full(r * k, -INF)
    order = np.lexsort((cand, -picked, rows))
    rows = rows[order]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    keep = np.flatnonzero(rank < k)
    slot = rows[keep] * k + rank[keep]
    out_ids[slot] = cand[order[keep]]
    out_sims[slot] = picked[order[keep]]
    return out_ids.reshape(r, k), out_sims.reshape(r, k)


def _row_best(sims: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's maximum and the smallest id among the entries equal to it.

    ``ids`` names the columns, either ``(c,)`` shared by all rows or
    ``(rows, c)`` one per row. One argmax per row, then a count of the
    entries equal to each maximum; argmax takes a row's first maximal
    column, and the columns are not in id order, so only a row whose
    maximum recurs needs the masked minimum over its ids. A row with no
    finite entry gets ``-inf`` and the id of its first column, which is the
    ``-1`` pad in a graph row. Returns ``(ids, sims)``, one entry per row.
    """
    r, c = sims.shape
    pos = sims.argmax(axis=1)
    per_row = ids.ndim == 2
    # flat positions: take on one index array costs less than a 2-d gather
    cell = pos + np.arange(0, r * c, c)
    top = sims.take(cell)
    best = ids.take(cell if per_row else pos)
    at_top = sims == top[:, None]
    n_top = np.count_nonzero(at_top)
    # each of an empty row's c entries equals its -inf maximum; that is no tie
    if n_top > r and n_top > r + (c - 1) * np.count_nonzero(top == -INF):
        tied = np.flatnonzero((np.count_nonzero(at_top, axis=1) > 1) & (top > -INF))
        cand = ids[tied] if per_row else ids
        best[tied] = np.where(at_top[tied], cand, cand.max()).min(axis=1)
    return best, top


def _above_threshold(
    sims: np.ndarray, k: int, slack: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and similarity of every entry that may rank in the top k
    of its row: the finite entries at or above the row's group-max
    threshold. ``slack``, one value per row (zero when ``None``), lowers
    each row's threshold by that much, rounded down to the block's dtype."""
    r, c = sims.shape
    g = max(k, min(_GROUPS, c // 4))
    span = c // g * g
    # the floor keeps -inf entries out when a row has fewer than k finite ones
    floor = np.finfo(sims.dtype).min
    if span:
        # splitting the column axis is a view for any strides, so the block
        # is never copied
        groups = sims[:, :span].reshape(r, c // g, g)
        gmax = groups.max(axis=1)
        t = np.maximum(np.partition(gmax, g - k, axis=1)[:, g - k], floor)
    else:
        t = np.full(r, floor, dtype=sims.dtype)
    if slack is not None:
        # the cast rounds to nearest, so one step down rounds down
        t = np.maximum(np.nextafter((t - slack).astype(sims.dtype), -INF), floor)
    rows, cols, picked = [], [], []
    if span:
        hit_row, hit_group = np.nonzero(gmax >= t[:, None])
        vals = groups[hit_row, :, hit_group]
        at, pos = np.nonzero(vals >= t[hit_row, None])
        rows.append(hit_row[at])
        cols.append(hit_group[at] + g * pos)
        picked.append(vals[at, pos])
    if span < c:
        tail = sims[:, span:]
        tail_row, tail_col = np.nonzero(tail >= t[:, None])
        rows.append(tail_row)
        cols.append(tail_col + span)
        picked.append(tail[tail_row, tail_col])
    rows, cols, picked = (np.concatenate(a) for a in (rows, cols, picked))
    return rows, cols, picked


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
        ids, sims = self.ids[row].tolist(), self.sims[row].tolist()
        return [(t, s) for t, s in zip(ids, sims) if t >= 0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NeighbourLists):
            return NotImplemented
        return np.array_equal(self.ids, other.ids) and np.array_equal(self.sims, other.sims)

    __hash__ = None  # type: ignore[assignment]


def block_topk(
    db: np.ndarray,
    queries: np.ndarray,
    ids: np.ndarray,
    k: int,
    sign: np.ndarray | None = None,
) -> NeighbourLists:
    """Exact top-k of the query rows of ``db[queries]`` against the database
    rows ``db``.

    A query row is its database row times ``sign``
    (:func:`~densemulticut.core.query_sign`), or the row itself when
    ``sign`` is ``None``; the sign is applied to each block's gathered copy,
    so no query row outlives its block. ``ids[c]`` names database row ``c``;
    query ``r`` skips its own row, ``queries[r]``. At most ``_BLOCK``
    queries, such as a merge's one- or two-row search, are one block: one
    float64 product, in the order given, cut whole by :func:`select_rows`
    and returned as it is. A BLAS may round a product of one query row
    differently from one of several, so these similarity bits depend on the
    block.

    More queries, every graph build, are screened block by block into
    arrays allocated once (:func:`_screen_block`): each block is multiplied
    in float32 against ``db`` converted once per call, every entry that may
    rank in a row's top k is gathered under the row's rounding-error slack
    (:func:`_screen_slack`), and the gathered pairs are rescored in float64
    one dot product each and ranked. The float32 values only pick
    candidates: every similarity returned is a float64 inner product whose
    bits do not depend on the blocking, and the selection is exact.

    A screened block takes ``_SCREEN_CELLS // len(db)`` queries, clamped to
    ``[_SCREEN_FLOOR, _BLOCK]``. Besides the ``(nq, k)`` output and the
    float32 copy of ``db``, a call then holds one float32 product of at
    most ``_SCREEN_CELLS`` cells (4 MiB) while ``db`` has at most
    ``_SCREEN_CELLS // _SCREEN_FLOOR`` rows (``_SCREEN_FLOOR`` rows of it
    beyond), and the float64 rows of the pairs that block gathers. When a
    row norm lies outside the range where the slack holds (float32 products
    could overflow or fall into subnormals), the call takes float64
    products of ``_BLOCK`` queries instead, each cut as the one-block path
    cuts it.
    """
    if k < 1:
        raise ArgumentError("k must be at least 1")
    nq = queries.size
    if nq <= _BLOCK:
        return NeighbourLists(*_cut_block(db, queries, ids, k, sign))
    # the sign changes no norm, so the queries' norms are their database rows'
    sq_norms = np.einsum("ij,ij->i", db, db)
    q_norms = np.sqrt(sq_norms[queries])
    d_max = np.sqrt(sq_norms.max(initial=0.0))
    # n floats the blocks need not share their peak with
    del sq_norms
    screen = _screen_slack(q_norms, d_max, db.shape[1])
    step = _BLOCK
    if screen is not None:
        db32 = db.astype(np.float32)
        step = min(_BLOCK, max(_SCREEN_FLOOR, _SCREEN_CELLS // db.shape[0]))
    out_ids = np.empty((nq, k), dtype=np.int64)
    out_sims = np.empty((nq, k))
    for start in range(0, nq, step):
        stop = min(start + step, nq)
        block = db, queries[start:stop], ids, k, sign
        out_ids[start:stop], out_sims[start:stop] = (
            _cut_block(*block)
            if screen is None
            else _screen_block(*block, db32, screen[start:stop])
        )
    return NeighbourLists(out_ids, out_sims)


def _screen_slack(q_norms: np.ndarray, d_max: float, dim: int) -> np.ndarray | None:
    """Per query, how far below its float32 threshold an entry may lie and
    still rank in its exact top k; ``None`` when float32 cannot screen.

    For rows of ``dim`` entries, a float32 product of the rows rounded to
    float32 differs from the exact inner product by at most
    ``γ32·‖q‖·‖d‖``, and a float64 dot product of the float64 rows by at
    most ``γ64·‖q‖·‖d‖``, where ``γ = n·u / (1 − n·u)`` with ``n = dim + 2``
    roundings per term (two for the casts) and ``u`` the unit roundoff
    (Higham, Accuracy and Stability of Numerical Algorithms, §3.1; any
    summation order, with or without FMA). So the float32 and float64
    values of a pair differ by at most ``e = (γ32 + γ64)·‖q‖·max‖d‖``. A row
    has at least k float32 values at or above its threshold ``t``, hence at
    least k float64 values at or above ``t − e``, so every entry of its
    float64 top k has a float32 value of at least ``t − 2e``: the slack is
    ``2e``. γ exceeds the bound's exact form ``(1 + u)^n − 1`` by about
    ``(n·u)²/2``, a relative ``n·u/2`` that covers the norms' own float64
    rounding, about ``dim·2^-53`` relative.

    The bound assumes no float32 overflow and no underflow that matters.
    Both hold when ``max‖d‖`` and every nonzero query norm lie within the
    fourth roots of float32's normal range, about ``[2^-31.5, 2^32]``:
    products then stay below ``2^64``, and the absolute rounding errors of
    subnormal casts and products stay below ``dim·2^-87`` relative to
    ``‖q‖·max‖d‖``, again inside that margin. A zero query row has only
    exact zero products.
    """
    f32 = np.finfo(np.float32)
    lo, hi = float(f32.smallest_normal) ** 0.25, float(f32.max) ** 0.25
    in_range = (q_norms == 0.0) | ((q_norms >= lo) & (q_norms <= hi))
    if not (lo <= d_max <= hi and in_range.all()):
        return None
    n = dim + 2
    g32, g64 = (n * u / (1.0 - n * u) for u in (2.0**-24, 2.0**-53))
    return 2.0 * (g32 + g64) * d_max * q_norms


def _query_block(db: np.ndarray, queries: np.ndarray, sign: np.ndarray | None) -> np.ndarray:
    """The query rows of ``db[queries]``: the gathered copy, signed in place."""
    q = db[queries]
    if sign is not None:
        q *= sign
    return q


def _cut_block(
    db: np.ndarray,
    queries: np.ndarray,
    ids: np.ndarray,
    k: int,
    sign: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """One block of :func:`block_topk`: one product, each query's own column
    masked, cut by :func:`select_rows`. The block's similarities are freed
    on return, before the next block's product allocates its own."""
    sims = _query_block(db, queries, sign) @ db.T
    sims[np.arange(queries.size), queries] = -INF
    return select_rows(sims, ids, k)


def _screen_block(
    db: np.ndarray,
    queries: np.ndarray,
    ids: np.ndarray,
    k: int,
    sign: np.ndarray | None,
    db32: np.ndarray,
    slack: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One screened block of :func:`block_topk`: a float32 product, each
    query's own column masked, the entries within ``slack`` of each row's
    group-max threshold gathered, rescored in float64 and ranked.

    Each pair is rescored by its own dot product (``einsum`` over the
    gathered rows), whose bits do not depend on which other pairs share
    the call, unlike a row of a matrix product.
    """
    q = _query_block(db, queries, sign)
    sims = q.astype(np.float32) @ db32.T
    sims[np.arange(queries.size), queries] = -INF
    rows, cols, _ = _above_threshold(sims, k, slack)
    exact = np.einsum("ij,ij->i", q[rows], db[cols])
    return _cut_ranked(queries.size, k, rows, ids[cols], exact)


def topk_exact(state: ContractionState, query: int, k: int) -> list[tuple[int, float]]:
    """The k alive nodes most similar to ``query``, descending.

    Returns fewer than ``k`` entries when fewer candidates exist. Ties break
    toward the smaller node id. The query row is multiplied against the
    packed alive rows, its own similarity set to ``-inf``, and ranked by
    one lexsort, not by :func:`select_rows`, so that this oracle stays
    independent of the cuts.
    """
    if k < 1:
        raise ArgumentError("k must be at least 1")
    state.check_alive(query)
    n = state.n_alive
    ids = state.order[:n]
    sims = state.packed[:n] @ state.query_row(query)
    sims[state.slot.item(query)] = -INF
    top = np.lexsort((ids, -sims))[:k]
    top = top[sims[top] > -INF]
    return list(zip(ids[top].tolist(), sims[top].tolist()))


def topk_batch(state: ContractionState, queries: np.ndarray, k: int) -> NeighbourLists:
    """Exact top-k among alive nodes for many query nodes at once.

    Every query must be alive, since only alive nodes have rows, and is
    never its own neighbour; a dead query raises :class:`StateError`.
    ``state.slot`` gives each query its packed row, which
    ``state.query_sign`` turns into its query row, and the column it must
    skip; the queries are multiplied straight against the packed alive
    rows and ``state.order`` names their columns, so no alive-id list is
    rebuilt and no database row is gathered.
    """
    queries = np.asarray(queries, dtype=np.int64)
    pos = state.slot[queries]
    if pos.min(initial=0) < 0:
        raise StateError(f"node {queries[pos < 0][0]} is not alive")
    n = state.n_alive
    return block_topk(state.packed[:n], pos, state.order[:n], k, state.query_sign)


class NNGraph:
    """Directed NN arcs in padded per-node arrays, with a reverse index.

    Row ``u`` of ``nbr`` (target ids, ``-1`` pad) and ``sim`` (cached
    similarities, ``-inf`` pad) holds u's at most ``k`` outgoing arcs in
    slot order; removed arcs leave holes that later arcs may fill.

    ``floor[u]`` records where u's row came from. A row written by an
    exhaustive search has the k-th similarity that search found, ``-inf``
    when it listed every candidate: every node it did not list ranks at or
    below it, every arc of the row stays at or above it, and the exact
    repair gives u a merged node only strictly above it. Any other row,
    filled lazily or from an approximate index, and every empty or unused
    id, has ``+inf``; the contraction bound gives up (``+inf``) on such a
    row when it is shorter than k. ``capacity`` rows are allocated up
    front, one per node id the solve can create.

    The reverse index gives each target t a segment
    ``in_src[in_start[t]:in_end[t]]`` of one int32 arena, with room up to
    ``in_limit[t]``; the first ``in_used`` entries of the arena are taken.
    The segment lists every node that pointed at t since the segment was
    written, so it may hold nodes that have died since. A lookup keeps only
    the sources still alive, which is exact by the alive-check rule: an arc
    leaves a row only when one of its ends dies, and a row is written only
    while it is empty, so every alive source in an alive target's segment
    still points at it. A row rewritten while it holds arcs (only tests do
    this) needs the index rebuilt from the rows (:meth:`_index_rows`).

    - Rows written to an empty index, a build's, are indexed whole as one
      CSR from one sort of the arcs of ``nbr`` by target
      (:meth:`_index_rows`): each segment holds its sources in id order,
      and an alive node's segment has room for k more.
    - A merged node's in-list, the rows that took it, is written as one
      slice (:meth:`_set_sources`) into the room of the roomier of its
      parents' segments, which no lookup reads again, or at the arena's
      end when it does not fit there.
    - Any other arc, the merged node's own and those of the rows the exact
      repair searches, is appended to its target's segment, one row's arcs
      at a time (:meth:`_append`). A full segment moves to the arena's end
      with room for twice the length it needs (:meth:`_move`).
    - When the arena has no room for a slice or a move, it is compacted:
      the CSR is built again from ``nbr``, which then holds every arc.

    A CSR takes at most 2k entries per node whose row holds an arc, and at
    most ``(capacity + 1) / 2`` nodes of a solve are alive at once, so an
    arena of ``_ARENA · k · (capacity + 1)`` entries holds a compaction for
    any ``_ARENA >= 1``; the rest is room for slices and moves. The index
    takes ``4·_ARENA·k·(capacity + 1) + 12·capacity`` bytes: the arena,
    allocated by the first index build, and three int32 offsets per id.
    """

    def __init__(self, k: int, capacity: int) -> None:
        if k < 1:
            raise ArgumentError("k must be at least 1")
        self.k = k
        self.nbr = np.full((capacity, k), -1, dtype=np.int64)
        self.sim = np.full((capacity, k), -INF)
        self.floor = np.full(capacity, INF)
        self.in_start = np.zeros(capacity, dtype=np.int32)
        self.in_end = np.zeros(capacity, dtype=np.int32)
        self.in_limit = np.zeros(capacity, dtype=np.int32)
        # allocated by the first index build, after the build's search has
        # freed its blocks, so that the two never share a peak
        self.in_src = np.empty(0, dtype=np.int32)
        self.in_used = 0

    @property
    def capacity(self) -> int:
        return self.nbr.shape[0]

    @property
    def in_index(self) -> _InIndexView:
        """The reverse index as a read-only view; only the benchmark's
        tracer reads it."""
        return _InIndexView(self)

    def arcs(self, u: int) -> list[tuple[int, float]]:
        return [(t, s) for t, s in zip(self.nbr[u].tolist(), self.sim[u].tolist()) if t >= 0]

    def _clear_row(self, u: int) -> None:
        """Empty u's row and reset its floor to ``+inf``. u stays in its
        targets' segments, which the alive-check rule allows only once u
        has died."""
        self.nbr[u] = -1
        self.sim[u] = -INF
        self.floor[u] = INF

    def set_rows(
        self, rows: np.ndarray, ids: np.ndarray, sims: np.ndarray, *, from_full: bool
    ) -> None:
        """Write the arcs of every node in ``rows``, whose rows must be
        empty, and list each node in the segment of every arc's end.

        ``ids`` and ``sims`` are padded ``(len(rows), w)`` arrays, ``w <= k``.
        Rows ``from_full`` an exhaustive search have ``w = k`` and take their
        last column as their floor; other rows take ``+inf``. An empty index,
        a build's, is built whole as a CSR.
        """
        w = ids.shape[1]
        if not self.in_used:
            self.nbr[rows, :w] = ids
            self.sim[rows, :w] = sims
            self.floor[rows] = sims[:, -1] if from_full else INF
            self._index_rows()
            return
        # the rows of a repair were each just searched over every alive
        # node, which costs far more than writing them one at a time
        for u, row, row_sims in zip(rows.tolist(), ids, sims):
            self.nbr[u, :w] = row
            self.sim[u, :w] = row_sims
            self.floor[u] = row_sims.item(-1) if from_full else INF
            # a ranked row's pads come last, so only a short row has any
            self._append(row if row.item(-1) >= 0 else row[row >= 0], u)

    def fill_row(self, u: int, arcs: list[tuple[int, float]]) -> None:
        """Write ``arcs`` into u's row, which must hold none, and list u in
        each target's segment."""
        if arcs:
            ids = [t for t, _ in arcs]
            self.nbr[u, : len(arcs)] = ids
            self.sim[u, : len(arcs)] = [s for _, s in arcs]
            self._append(np.array(ids), u)

    def _index_rows(self) -> None:
        """Build the reverse index from ``nbr`` as one CSR. One sort of a
        key per arc, its target times the number of cells plus its cell,
        groups the arcs by target with their sources in id order; the keys
        are distinct, so any sort gives that order, and one of int64 keys
        costs less than a stable argsort. The segment of a node whose row
        holds an arc, an alive node, has room for k more sources."""
        if not self.in_src.size:
            self.in_src = np.empty(_ARENA * self.k * (self.capacity + 1), dtype=np.int32)
        flat = self.nbr.ravel()
        arcs = np.flatnonzero(flat >= 0)
        keys = flat[arcs]
        keys *= flat.size
        keys += arcs
        keys.sort()
        targets, sources = np.divmod(keys, flat.size, out=(keys, arcs))
        sources //= self.k
        counts = np.bincount(targets, minlength=self.capacity)
        spare = self.k * (np.bincount(sources, minlength=self.capacity) > 0)
        np.cumsum(counts + spare, out=self.in_limit)
        np.subtract(self.in_limit, spare, out=self.in_end)
        np.subtract(self.in_end, counts, out=self.in_start)
        # the i-th arc in target order lands i places on, plus the room of
        # the segments before its target's
        pos = np.take(np.cumsum(spare) - spare, targets, out=targets)
        pos += np.arange(pos.size)
        self.in_src[pos] = sources
        self.in_used = self.in_limit.item(-1)

    def _set_sources(self, m: int, i: int, j: int, sources: np.ndarray | list[int]) -> None:
        """Write the segment of m, merged from i and j, as one slice. The
        parents are dead, so no lookup reads their segments again: m takes
        over the room of the roomier one when the slice fits there, and
        otherwise the slice goes to the arena's end with no room to spare."""
        start, end, limit = self.in_start, self.in_end, self.in_limit
        p = i if limit.item(i) - start.item(i) >= limit.item(j) - start.item(j) else j
        a, c = start.item(p), limit.item(p)
        b = a + len(sources)
        if b <= c:
            end[p] = limit[p] = a
        else:
            a, b = self.in_used, self.in_used + len(sources)
            if b > self.in_src.size:
                # the rows already hold their arcs to m
                self._index_rows()
                return
            c = self.in_used = b
        self.in_src[a:b] = sources
        start[m], end[m], limit[m] = a, b, c

    def _append(self, targets: np.ndarray, u: int) -> None:
        """List u in the segments of ``targets``, the distinct ends of the
        arcs of u's row, which is written. Segments without room for one
        more entry move first (:meth:`_move`).

        A row of one arc, as every row at k = 1, is listed with scalar reads
        and writes while its target's segment has room: numpy's fixed cost
        per call is most of the cost of appending one entry."""
        if targets.size == 1:
            t = targets.item(0)
            e = self.in_end.item(t)
            if e < self.in_limit.item(t):
                self.in_src[e] = u
                self.in_end[t] = e + 1
                return
        end = self.in_end[targets]
        if np.count_nonzero(end >= self.in_limit[targets]):
            if not self._move(targets, end):
                return
            end = self.in_end[targets]
        self.in_src.put(end, u)
        end += 1
        self.in_end[targets] = end

    def _move(self, targets: np.ndarray, ends: np.ndarray) -> bool:
        """Move every segment of ``targets`` that is full, its end given in
        ``ends``, to the arena's end, with room for twice the length one
        more entry gives it. When the arena lacks that room it is compacted from the rows
        instead, which already hold the arcs being added, and ``False`` is
        returned."""
        start, end, limit = self.in_start, self.in_end, self.in_limit
        moves = [
            (t, e + 1 - start.item(t))
            for t, e in zip(targets.tolist(), ends.tolist())
            if e >= limit.item(t)
        ]
        a = self.in_used
        if a + 2 * sum(n for _, n in moves) > self.in_src.size:
            self._index_rows()
            return False
        for t, n in moves:
            s, e = start.item(t), end.item(t)
            self.in_src[a : a + e - s] = self.in_src[s:e]
            start[t] = a
            end[t] = a + e - s
            a += 2 * n
            limit[t] = a
        self.in_used = a
        return True

    def validate(self, state: ContractionState, tol: float = 1e-9) -> None:
        """Assert structural invariants (tests only; O(arcs) plus recompute)."""
        transpose: dict[int, set[int]] = {}
        for u in range(self.capacity):
            arcs = self.arcs(u)
            floor = self.floor[u]
            assert not (arcs and not state.alive[u]), f"dead source {u} still has arcs"
            assert state.alive[u] or floor == INF, f"dead row {u} has a floor"
            assert len(arcs) <= self.k, "row longer than k"
            seen = set()
            for t, s in arcs:
                assert floor == INF or s >= floor, "arc below floor"
                assert t != u, "self arc"
                assert state.alive[t], f"arc to dead node {t}"
                assert t not in seen, "duplicate arc"
                seen.add(t)
                true = state.sim(u, t)
                assert abs(s - true) <= tol * max(1.0, abs(true)), (
                    f"cached sim {s} vs {true}"
                )
                transpose.setdefault(t, set()).add(u)
        start, end, limit = self.in_start, self.in_end, self.in_limit
        assert (start <= end).all() and (end <= limit).all(), "segment past its room"
        assert limit.max(initial=0) <= self.in_used <= self.in_src.size, "segment past the arena"
        roomy = np.flatnonzero(limit > start)
        by_start = roomy[np.argsort(start[roomy])]
        assert (start[by_start[1:]] >= limit[by_start[:-1]]).all(), "segments overlap"
        for t in range(self.capacity):
            listed = self.in_src[start[t] : end[t]].tolist()
            for u in transpose.get(t, ()):
                assert u in listed, f"arc {u}->{t} missing from {t}'s segment"
            if state.alive[t]:
                kept = {u for u in listed if state.alive[u]}
                assert kept == transpose.get(t, set()), f"{t}'s segment lists a stale source"


class _InIndexView:
    """Read-only view of an :class:`NNGraph`'s reverse index, for the
    benchmark's tracer: ``get(t)`` is the set of nodes in t's segment whose
    rows still list t, in O(segment · k)."""

    def __init__(self, graph: NNGraph) -> None:
        self._graph = graph

    def get(self, t: int, default=None):
        g = self._graph
        listed = g.in_src[g.in_start.item(t) : g.in_end.item(t)]
        found = set(listed[(g.nbr[listed] == t).any(axis=1)].tolist())
        return found or default


class ArcBatch:
    """The new queue entry of every row one graph update changed.

    ``rows`` names the nodes whose arc lists changed, including nodes that
    died; ``best_sim``/``best_dst`` hold, per entry of ``rows``, the best
    arc of that row as :meth:`CandidateQueue.refresh` would compute it, or
    ``-inf``/``-1`` for an empty row. ``insertions`` counts the rows that
    received an arc to the merged node without a search. Its length is the
    number of queue entries :meth:`CandidateQueue.push_many` writes.
    """

    __slots__ = ("rows", "best_sim", "best_dst", "insertions")

    def __init__(
        self, rows: np.ndarray, best_sim: np.ndarray, best_dst: np.ndarray, insertions: int
    ) -> None:
        self.rows = rows
        self.best_sim = best_sim
        self.best_dst = best_dst
        self.insertions = insertions

    def __len__(self) -> int:
        return self.rows.size


class CandidateQueue:
    """One candidate arc per node: the best arc of its current row.

    ``best_sim[u]`` and ``best_dst[u]`` hold the highest-similarity arc of
    u's row, ties toward the smaller target id, or ``-inf`` and ``-1`` for
    an empty row. The graph updates compute the entries of the rows they
    change from the blocks they already hold, and :meth:`push_many` writes
    them; :meth:`refresh` recomputes entries from the graph, and
    :func:`best_arc` uses it to refresh lazily an entry whose endpoint has
    died. ``capacity`` entries are allocated up front, one per node id the
    solve can create. Its length is the number of nodes with a candidate.
    """

    def __init__(self, capacity: int) -> None:
        self.best_sim = np.full(capacity, -INF)
        self.best_dst = np.full(capacity, -1, dtype=np.int64)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.best_sim > -INF))

    def refresh(self, graph: NNGraph, rows, alive: np.ndarray | None = None) -> None:
        """Recompute the entries of ``rows`` from the graph; when ``alive``
        is given, only arcs between alive nodes count."""
        nbr = graph.nbr[rows]
        sim = graph.sim[rows]
        if alive is not None:
            rows = np.asarray(rows, dtype=np.int64)
            sim = np.where(alive[nbr] & (nbr >= 0) & alive[rows, None], sim, -INF)
        self.best_dst[rows], self.best_sim[rows] = _row_best(sim, nbr)

    def push_many(self, graph: NNGraph, arcs: ArcBatch) -> None:
        """Write the entries an update computed for every row it changed;
        ``graph`` is not read."""
        self.best_sim[arcs.rows] = arcs.best_sim
        self.best_dst[arcs.rows] = arcs.best_dst


def best_arc(
    graph: NNGraph, queue: CandidateQueue, state: ContractionState
) -> tuple[int, int, float] | None:
    """Highest-similarity arc with similarity >= 0, or ``None``.

    Takes the argmax of the per-node entries over every node id allocated
    so far; equal similarities break toward the smallest (min id, max id)
    pair, so the entries tied with the maximum are gathered only when the
    maximum recurs. The winning pair is returned as (min id, max id).

    Entries with a dead endpoint are refreshed and the selection repeats.
    The repairs never leave such an entry: every push writes the entries
    of the parents (empty) and of every row that listed one, so this
    branch guards only graphs and queues changed by hand
    (``TestGraphContract`` checks that no solve takes it).
    """
    alive = state.alive
    n = state.n0 + state.forest.n_merges
    while True:
        sims = queue.best_sim[:n]
        dsts = queue.best_dst
        u = sims.argmax().item()
        top = sims.item(u)
        if top == -INF:
            return None
        if sims[u + 1 :].max(initial=-INF) < top:
            v = dsts.item(u)
            if not (alive.item(u) and alive.item(v)):
                queue.refresh(graph, [u], alive)
                continue
            if top < 0.0:
                return None
            return (u, v, top) if u < v else (v, u, top)
        tied = (sims == top).nonzero()[0].tolist()
        stale = [w for w in tied if not (alive.item(w) and alive.item(dsts.item(w)))]
        if stale:
            queue.refresh(graph, stale, alive)
            continue
        if top < 0.0:
            return None
        lo, hi = min(sorted((w, dsts.item(w))) for w in tied)
        return lo, hi, top


def build_nn_graph(state: ContractionState, k: int) -> tuple[NNGraph, CandidateQueue]:
    """Exact NN graph over all alive nodes plus a fully populated queue."""
    graph = NNGraph(k, state.slot.size)
    queue = CandidateQueue(state.slot.size)
    alive = state.alive_ids()
    if alive.size >= 2:
        lists = topk_batch(state, alive, k)
        graph.set_rows(alive, lists.ids, lists.sims, from_full=True)
    else:
        # a lone node's search lists every candidate, none
        graph.floor[alive] = -INF
    queue.refresh(graph, alive)
    return graph, queue


def _bound(k: int, *rows: tuple[list[tuple[int, float]], float]) -> float:
    """Upper bound on the similarity between the merge of two nodes and any
    node outside the union of their neighbour lists, which filters the
    merged node's list in the lazy repair; each of ``rows`` is one
    parent's arcs and floor.

    Uses the smallest cached similarity of each parent's list. Lists that
    are shorter than k and were not written by an exhaustive search (floor
    ``+inf``) cannot certify the bound, so the +inf sentinel is returned.
    The bound holds only while each list is its node's exact top k, which
    lazy rows do not guarantee once a merge has passed them by; the exact
    repair relies on row floors instead.
    """
    total = 0.0
    for arcs, floor in rows:
        if not arcs or (len(arcs) < k and floor == INF):
            return INF
        total += min(s for _, s in arcs)
    return total


def _in_neighbours(graph: NNGraph, alive: np.ndarray, i: int, j: int, m: int) -> np.ndarray:
    """``[i, j, m]`` followed by the sorted ids of the alive nodes that list
    i or j: i's and j's segments, sorted, with the dead sources and the
    second copy of a node that listed both dropped.

    The parents are dead, so no segment entry equal to either is kept. The
    ids are sorted because the block product over their rows can round
    differently in another row order; a stable sort merges the sorted runs
    a segment mostly is in linear time.
    """
    start, end, src = graph.in_start, graph.in_end, graph.in_src
    rows = np.concatenate(
        ((i, j, m), src[start.item(i) : end.item(i)], src[start.item(j) : end.item(j)])
    )
    nin = rows[3:]
    nin.sort(kind="stable")
    # m is alive, i and j are kept by hand
    keep = alive[rows]
    keep[:2] = True
    keep[4:] &= nin[1:] != nin[:-1]
    return rows[keep]


def incremental_update(
    graph: NNGraph,
    state: ContractionState,
    i: int,
    j: int,
    m: int,
) -> tuple[ArcBatch, int]:
    """Repair the NN graph after contracting (i, j) into ``m``, lazily, for
    ``dlaec`` and ``dapplaec``: no search.

    The merged node's arcs are its parents' combined neighbour lists
    filtered by the contraction bound (:func:`_bound`), possibly none, and
    its floor stays ``+inf``. Nodes that listed i or j keep their surviving
    arcs and receive an arc to ``m`` when it beats their weakest surviving
    one; a row left empty stays empty until the solver's next rebuild. The
    batch carries every changed row's new queue entry, taken from the
    repaired block or m's ranked list. Returns (the batch, 0 searches), the
    shape :func:`exhaustive_update` returns.

    Blocks of at most ``_FEW_ROWS`` in-neighbour rows, where numpy's fixed
    cost per call outweighs its speed per row, are repaired by a Python
    loop (:func:`_repair_rows`), larger ones by :func:`_repair_block`
    (``tools/repair_bench.py``). Both take every sim(q, m) from one matrix
    product over the sorted rows and leave the same graph and batch.
    """
    state.check_alive(m)
    k = graph.k
    floors = graph.floor.item(i), graph.floor.item(j)
    arcs_i, arcs_j = graph.arcs(i), graph.arcs(j)
    graph._clear_row(i)
    graph._clear_row(j)
    alive = state.alive
    rows = _in_neighbours(graph, alive, i, j, m)
    q_ids = rows[3:]

    bound = _bound(k, (arcs_i, floors[0]), (arcs_j, floors[1]))
    cand = sorted({t for t, _ in chain(arcs_i, arcs_j) if alive.item(t)})
    merged_arcs: list[tuple[int, float]] = []
    if cand:
        sims = state.sims_to(m, cand).tolist()
        passing = [(t, s) for t, s in zip(cand, sims) if s >= bound]
        merged_arcs = sorted(passing, key=_rank_key)[:k]
    # m is a fresh id, so its row is empty
    graph.fill_row(m, merged_arcs)
    # the in-neighbours' entries come from the repair
    best_dst = np.empty(rows.size, dtype=np.int64)
    best_sim = np.empty(rows.size)
    best_dst[:3] = -1
    best_sim[:3] = -INF
    if merged_arcs:
        best_dst[2], best_sim[2] = merged_arcs[0]
    insertions = 0
    if q_ids.size:
        # m's query row against the in-neighbours' rows: q_m . d_q has the
        # terms of q_q . d_m, so each entry has the bits of sim(q, m)
        sims_qm = state.query_row(m) @ state.packed.take(state.slot.take(q_ids), axis=0).T
        repair = _repair_rows if q_ids.size <= _FEW_ROWS else _repair_block
        best_dst[3:], best_sim[3:], insertions = repair(graph, i, j, m, q_ids, sims_qm)
    return ArcBatch(rows, best_sim, best_dst, insertions), 0


def _repair_rows(
    graph: NNGraph,
    i: int,
    j: int,
    m: int,
    q_ids: np.ndarray,
    sims_qm: np.ndarray,
) -> tuple[list[int], list[float], int]:
    """:func:`_repair_block` under the lazy entry rule, one row at a time
    in Python, for a block of few rows.

    Each row drops its arcs to i and j and takes m in its first freed
    column when ``sims_qm`` is strictly above its weakest surviving arc.
    Only the freed cells are written back. A row's queue entry is its first
    maximal similarity in column order and the smallest id among the arcs
    equal to it, as :func:`_row_best` computes it. Returns what
    :func:`_repair_block` returns, the entries as lists.
    """
    k = graph.k
    nbr, sim = graph.nbr, graph.sim
    best_dst: list[int] = []
    best_sim: list[float] = []
    added: list[int] = []
    rows = zip(
        q_ids.tolist(),
        sims_qm.tolist(),
        nbr.take(q_ids, axis=0).tolist(),
        sim.take(q_ids, axis=0).tolist(),
    )
    for q, s_m, ts, ss in rows:
        # every row listed i or j; ``first`` is the column m may take
        at_i = ts.index(i) if i in ts else k
        at_j = ts.index(j) if j in ts else k
        first, second = (at_i, at_j) if at_i < at_j else (at_j, at_i)
        if second < k:
            ts[second] = -1
            ss[second] = -INF
            nbr[q, second] = -1
            sim[q, second] = -INF
        ts[first] = -1
        ss[first] = -INF
        # the row's -inf cells, its pads and freed cells (id -1), sort first;
        # m beats the weakest arc iff more cells than those are below it
        if bisect_left(sorted(ss), s_m) > ts.count(-1):
            ts[first] = m
            ss[first] = s_m
            added.append(q)
        nbr[q, first] = ts[first]
        sim[q, first] = ss[first]
        top = max(ss)
        best_sim.append(top)
        if ss.count(top) == 1:
            best_dst.append(ts[ss.index(top)])
        else:
            # an empty row's cells are all (-1, -inf), so it gets -1
            best_dst.append(min(t for t, s in zip(ts, ss) if s == top))
    if added:
        graph._set_sources(m, i, j, added)
    return best_dst, best_sim, len(added)


def _repair_block(
    graph: NNGraph,
    i: int,
    j: int,
    m: int,
    q_ids: np.ndarray,
    sims_qm: np.ndarray,
    floor: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Repair the rows ``q_ids`` that listed i or j after the merge of
    (i, j) into ``m`` as one numpy block, for both repairs; ``sims_qm``
    holds sim(q, m). The rows drop every arc to i or j, and a row takes m
    in its first freed column when it passes the entry rule, the one thing
    the repairs do differently: the exact repair's ``sims_qm > floor``, one
    floor per row, or, with ``floor`` ``None``, the lazy repair's
    ``sims_qm`` strictly above the row's weakest surviving arc (strictly,
    as m has the largest id). The block is written back whole, and m's
    segment of the reverse index lists the rows that took it. Returns the
    block's queue entries (:func:`_row_best`, one per row) and the count of
    rows that took m.
    """
    k = graph.k
    nbr = graph.nbr.take(q_ids, axis=0)
    sim = graph.sim.take(q_ids, axis=0)
    gone = (nbr == i) | (nbr == j)
    np.putmask(nbr, gone, -1)
    np.putmask(sim, gone, -INF)
    if floor is None:
        # m beats the weakest surviving arc iff it beats some surviving arc;
        # pads and freed cells hold -inf, every arc a finite similarity
        passes = ((sim < sims_qm[:, None]) & (sim > -INF)).any(axis=1)
    else:
        passes = sims_qm > floor
    # the flat position of each passing row's first freed cell
    cells = (gone.argmax(axis=1) + np.arange(0, q_ids.size * k, k))[passes]
    nbr.put(cells, m)
    sim.put(cells, sims_qm[passes])
    graph.nbr[q_ids] = nbr
    graph.sim[q_ids] = sim
    if cells.size:
        graph._set_sources(m, i, j, q_ids[passes])
    return (*_row_best(sim, nbr), cells.size)


def exhaustive_update(
    graph: NNGraph,
    state: ContractionState,
    i: int,
    j: int,
    m: int,
) -> tuple[ArcBatch, int]:
    """Exact repair after contracting (i, j) into ``m``, for ``dgaec`` and
    ``dgaec-inc``.

    Every alive row must come from an exhaustive search, possibly since
    repaired here, with its floor (:class:`NNGraph`). The merged node is
    searched. A node that listed i or j drops those arcs and takes m in its
    first freed slot when ``sim(u, m)`` is strictly above its floor;
    otherwise it keeps its surviving arcs. Only a row left with no arc is
    searched again.

    Every pair of alive nodes stays covered by the row of the one searched
    later: that search ranked the other node, so it is either still listed
    (an arc leaves a row only when its target dies) or ranks at or below the
    row's floor, ties going to larger ids. Every arc of a row is at or
    above its floor (m enters strictly above it and has the largest id, and
    never evicts an arc), so a non-empty row's best arc is at least as good
    as every pair it covers, and :func:`best_arc` picks the pair the sparse
    greedy baseline picks.

    The in-neighbour rows are repaired by :func:`_repair_block` under the
    floor rule; when m has no in-neighbours the block work is skipped. m
    and the rows left empty are searched in one call to :func:`topk_batch`,
    m first, and :meth:`NNGraph.set_rows` writes all of their rows, which
    are empty, with their floors. The batch carries every changed row's new
    queue entry, taken from the repaired block or the search results.
    Returns (the batch, number of exhaustive searches performed, m's
    included).
    """
    state.check_alive(m)
    graph._clear_row(i)
    graph._clear_row(j)
    rows = _in_neighbours(graph, state.alive, i, j, m)
    q_ids = rows[3:]
    # the in-neighbours' entries come from the repair, m's from its search
    best_dst = np.empty(rows.size, dtype=np.int64)
    best_sim = np.empty(rows.size)
    best_dst[:3] = -1
    best_sim[:3] = -INF
    insertions = 0
    if q_ids.size:
        # as in incremental_update: each entry has the bits of sim(q, m)
        sims_qm = state.query_row(m) @ state.packed.take(state.slot.take(q_ids), axis=0).T
        best_dst[3:], best_sim[3:], insertions = _repair_block(
            graph, i, j, m, q_ids, sims_qm, graph.floor.take(q_ids)
        )
    # the nodes to search are m and the rows left empty, the entries still
    # at -inf after i's and j's
    searched = (best_sim == -INF).nonzero()[0][2:]
    queries = rows[searched]
    lists = topk_batch(state, queries, graph.k)
    graph.set_rows(queries, lists.ids, lists.sims, from_full=True)
    best_dst[searched] = lists.ids[:, 0]
    best_sim[searched] = lists.sims[:, 0]
    return ArcBatch(rows, best_sim, best_dst, insertions), queries.size
