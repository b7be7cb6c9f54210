"""Approximate maximum-inner-product indexes for the initial NN graph.

The default index builds a proximity graph from coarse anchors: nodes are
grouped by their nearest anchor (a seeded sample of database rows), and
every group is scored exactly against the members of its closest anchor
groups, with ``ef_construction`` setting the per-node candidate budget.
Each node keeps its best ``m_links`` candidates; there are no
neighbour-descent rounds. Stored similarities are always true inner
products; the approximation is only in candidate coverage. Point queries
enter the finished graph at the anchors that score best against the query
row and navigate it with a beam of width ``ef_search``.

Construction is deterministic for a fixed seed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .knn import NeighbourLists, block_topk, ranked, select_rows

#: Number of best-scoring anchors a beam query starts from.
_QUERY_ENTRIES = 4


@dataclass(frozen=True)
class AnnParams:
    """Tuning knobs for the default index.

    ``m_links`` is the length of each stored neighbour list,
    ``ef_construction`` the per-node candidate budget of the build (more
    probed anchor groups per node), and ``ef_search`` the beam width of
    ``query``.
    """

    m_links: int = 16
    ef_construction: int = 400
    ef_search: int = 64

    def __post_init__(self) -> None:
        if self.m_links < 2:
            raise ArgumentError("m_links must be at least 2")
        if self.ef_construction < self.m_links:
            raise ArgumentError("ef_construction must be >= m_links")
        if self.ef_search < 1:
            raise ArgumentError("ef_search must be >= 1")


class AnnIndex(abc.ABC):
    """Interface used to populate the initial NN graph approximately."""

    exact: bool = False

    @abc.abstractmethod
    def insert(self, node_id: int, row: np.ndarray) -> None:
        """Append a database row; ids must be assigned sequentially."""

    @abc.abstractmethod
    def query(
        self, row: np.ndarray, k: int, exclude: set[int] | frozenset[int] = frozenset()
    ) -> list[tuple[int, float]]:
        """Top-k candidate (id, similarity) pairs for a query row."""

    @abc.abstractmethod
    def self_knn(self, k: int, query_rows: np.ndarray | None = None) -> NeighbourLists:
        """Per-database-node top-k lists (self excluded), in id order."""


class ExactIndex(AnnIndex):
    """Brute-force reference implementation of the index interface."""

    exact = True

    def __init__(self, db_rows: np.ndarray, query_rows: np.ndarray | None = None):
        self.db = np.ascontiguousarray(db_rows, dtype=np.float64)
        self.qr = self.db if query_rows is None else np.ascontiguousarray(
            query_rows, dtype=np.float64
        )

    @property
    def n(self) -> int:
        return self.db.shape[0]

    def insert(self, node_id: int, row: np.ndarray) -> None:
        if node_id != self.n:
            raise ArgumentError("ids must be assigned sequentially")
        row = np.asarray(row, dtype=np.float64).reshape(1, -1)
        self.db = np.vstack([self.db, row])
        if self.qr is not self.db:
            self.qr = np.vstack([self.qr, row])

    def query(
        self, row: np.ndarray, k: int, exclude: set[int] | frozenset[int] = frozenset()
    ) -> list[tuple[int, float]]:
        sims = self.db @ np.asarray(row, dtype=np.float64)
        ids = np.arange(self.n)
        if exclude:
            keep = ~np.isin(ids, list(exclude))
            ids, sims = ids[keep], sims[keep]
        return ranked(ids, sims, k)

    def self_knn(self, k: int, query_rows: np.ndarray | None = None) -> NeighbourLists:
        # the exact graph builder's blocked search, so a run seeded from this
        # index reproduces the exact builder's arcs bit for bit
        qr = self.qr if query_rows is None else query_rows
        ids = np.arange(self.n)
        return block_topk(qr, ids, self.db, ids, ids, k)


class ProximityGraphIndex(AnnIndex):
    """Coarse-quantized proximity graph with beam-search point queries.

    Construction takes each node's neighbour list from exact scores against
    the candidates of its anchor group's nearest groups, with no
    neighbour-descent rounds, so only candidate coverage is approximate.
    Queries enter the graph at the anchors that score best against the
    query row.
    """

    exact = False

    def __init__(
        self,
        db_rows: np.ndarray,
        query_rows: np.ndarray | None = None,
        params: AnnParams | None = None,
        seed: int = 0,
    ) -> None:
        self.params = params or AnnParams()
        self.seed = seed
        self.db = np.ascontiguousarray(db_rows, dtype=np.float64)
        self.qr = self.db if query_rows is None else np.ascontiguousarray(
            query_rows, dtype=np.float64
        )
        self._nbrs: np.ndarray | None = None
        self._nbr_sims: np.ndarray | None = None
        self._anchors: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.db.shape[0]

    def insert(self, node_id: int, row: np.ndarray) -> None:
        if node_id != self.n:
            raise ArgumentError("ids must be assigned sequentially")
        row = np.asarray(row, dtype=np.float64).reshape(1, -1)
        if self.qr is self.db:
            self.db = np.vstack([self.db, row])
            self.qr = self.db
        else:
            self.db = np.vstack([self.db, row])
            self.qr = np.vstack([self.qr, row])
        self._nbrs = self._nbr_sims = self._anchors = None

    def _quantized_seed(
        self, m: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Neighbour lists from coarse-anchor candidate groups.

        Nodes are grouped by their nearest anchor (a seeded sample of
        database rows); each group is scored against the members of its
        closest anchor neighbourhoods with one matrix product.
        ``ef_construction`` sets the per-node candidate budget through the
        number of probed anchor lists. Returns the ``(n, m)`` neighbour ids
        (``-1`` pad) and their exact similarities (``-inf`` pad), both in
        descending similarity per node, and the sorted anchor ids.
        """
        n = self.n
        p = self.params
        n_anchor = min(n, max(8, int(4.0 * np.sqrt(n))))
        anchors = np.sort(rng.choice(n, size=n_anchor, replace=False))
        assign_sims = self.qr @ self.db[anchors].T
        own = np.argmax(assign_sims, axis=1)
        members: list[np.ndarray] = [
            np.flatnonzero(own == c) for c in range(n_anchor)
        ]
        anchor_sims = self.db[anchors] @ self.db[anchors].T
        avg_group = max(1.0, n / n_anchor)
        probes = int(np.clip(round(p.ef_construction / avg_group), 2, n_anchor))
        near_anchors = np.argsort(-anchor_sims, axis=1, kind="stable")[:, :probes]

        nbrs = np.full((n, m), -1, dtype=np.int64)
        sims = np.full((n, m), -np.inf)
        for c in range(n_anchor):
            group = members[c]
            if group.size == 0:
                continue
            cand = np.unique(np.concatenate([members[a] for a in near_anchors[c]]))
            block = self.qr[group] @ self.db[cand].T
            block[cand[None, :] == group[:, None]] = -np.inf
            keep = min(m, cand.size)
            top = np.argpartition(-block, keep - 1, axis=1)[:, :keep]
            ids = cand[top]
            vals = np.take_along_axis(block, top, axis=1)
            order = np.argsort(-vals, axis=1, kind="stable")
            ids = np.take_along_axis(ids, order, axis=1)
            vals = np.take_along_axis(vals, order, axis=1)
            ids[~np.isfinite(vals)] = -1
            nbrs[group, :keep] = ids
            sims[group, :keep] = vals
        return nbrs, sims, anchors

    def _build(self) -> None:
        n = self.n
        rng = np.random.default_rng(self.seed)
        if n == 1:
            self._nbrs = np.zeros((1, 0), dtype=np.int64)
            self._nbr_sims = np.zeros((1, 0))
            self._anchors = np.zeros(1, dtype=np.int64)
            return
        m = min(self.params.m_links, n - 1)
        self._nbrs, self._nbr_sims, self._anchors = self._quantized_seed(m, rng)

    def _ensure_built(self) -> None:
        if self._nbrs is None:
            self._build()

    def self_knn(self, k: int, query_rows: np.ndarray | None = None) -> NeighbourLists:
        self._ensure_built()
        assert self._nbrs is not None and self._nbr_sims is not None
        return NeighbourLists(*select_rows(-self._nbr_sims, self._nbrs, k))

    def query(
        self, row: np.ndarray, k: int, exclude: set[int] | frozenset[int] = frozenset()
    ) -> list[tuple[int, float]]:
        self._ensure_built()
        assert self._nbrs is not None and self._anchors is not None
        row = np.asarray(row, dtype=np.float64)
        ef = max(self.params.ef_search, k + len(exclude))
        anchor_sims = self.db[self._anchors] @ row
        best = np.argsort(-anchor_sims, kind="stable")[:_QUERY_ENTRIES]
        entries = self._anchors[best]
        sims = anchor_sims[best]
        visited = set(int(e) for e in entries)
        pool: list[tuple[int, float]] = [
            (int(e), float(s)) for e, s in zip(entries, sims)
        ]
        frontier = sorted(pool, key=lambda t: -t[1])
        while frontier:
            node, _ = frontier.pop(0)
            cand = [int(c) for c in self._nbrs[node] if c >= 0 and int(c) not in visited]
            if not cand:
                continue
            visited.update(cand)
            cand_arr = np.array(cand, dtype=np.int64)
            csims = self.db[cand_arr] @ row
            worst = min(s for _, s in pool) if len(pool) >= ef else -np.inf
            added = False
            for c, s in zip(cand, csims):
                if len(pool) < ef or s > worst:
                    pool.append((c, float(s)))
                    frontier.append((c, float(s)))
                    added = True
            if added:
                pool.sort(key=lambda t: (-t[1], t[0]))
                pool = pool[:ef]
                frontier.sort(key=lambda t: -t[1])
        pool.sort(key=lambda t: (-t[1], t[0]))
        if exclude:
            pool = [(c, s) for c, s in pool if c not in exclude]
        return pool[:k]


def ann_default_build(
    db_rows: np.ndarray,
    query_rows: np.ndarray | None = None,
    params: AnnParams | None = None,
    seed: int = 0,
) -> ProximityGraphIndex:
    """Default approximate index over (extended) feature rows."""
    return ProximityGraphIndex(db_rows, query_rows, params=params, seed=seed)
