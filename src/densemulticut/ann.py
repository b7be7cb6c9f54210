"""Approximate maximum-inner-product indexes for the initial NN graph.

The default index builds a proximity graph from coarse anchors: nodes are
grouped by their nearest anchor (a seeded sample of database rows), and
every group is scored exactly against the members of its closest anchor
groups, with ``ef_construction`` setting the per-node candidate budget.
Each node keeps its best ``min(k, m_links)`` candidates for a query of k
neighbours; there are no neighbour-descent rounds. Stored similarities are
always true inner products; the approximation is only in candidate
coverage.

Construction is deterministic for a fixed seed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .knn import NeighbourLists, block_topk, select_rows


@dataclass(frozen=True)
class AnnParams:
    """Tuning knobs for the default index.

    ``m_links`` caps the length of each neighbour list and
    ``ef_construction`` the per-node candidate budget of the build (more
    probed anchor groups per node).
    """

    m_links: int = 16
    ef_construction: int = 400

    def __post_init__(self) -> None:
        if self.m_links < 2:
            raise ArgumentError("m_links must be at least 2")
        if self.ef_construction < self.m_links:
            raise ArgumentError("ef_construction must be >= m_links")


class AnnIndex(abc.ABC):
    """Interface used to populate the initial NN graph approximately."""

    exact: bool = False

    @abc.abstractmethod
    def self_knn(self, k: int) -> NeighbourLists:
        """Per-database-node top-k lists (self excluded), in id order."""


class ExactIndex(AnnIndex):
    """Brute-force reference implementation of the index interface.

    Contiguous float64 rows are kept as given, not copied: an index built
    over a contraction state's packed rows sees every later contraction,
    so it must not outlive the initial graph. :meth:`self_knn` is the exact
    graph builder's search (:func:`~densemulticut.knn.block_topk`): more
    than ``_BLOCK`` rows are screened in float32 and their winners
    rescored in float64 pair by pair, so its lists equal the builder's bit
    for bit.
    """

    exact = True

    def __init__(self, db_rows: np.ndarray, query_rows: np.ndarray | None = None):
        self.db = np.ascontiguousarray(db_rows, dtype=np.float64)
        self.qr = self.db if query_rows is None else np.ascontiguousarray(
            query_rows, dtype=np.float64
        )

    @property
    def n(self) -> int:
        return self.db.shape[0]

    def self_knn(self, k: int) -> NeighbourLists:
        # the exact graph builder's search, so a run seeded from this index
        # reproduces the exact builder's arcs bit for bit
        ids = np.arange(self.n)
        return block_topk(self.qr, ids, self.db, ids, ids, k)


class ProximityGraphIndex(AnnIndex):
    """Coarse-quantized proximity graph over the database rows.

    Each node's neighbour list comes from exact scores against the
    candidates of its anchor group's nearest groups, with no
    neighbour-descent rounds, so only candidate coverage is approximate.
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

    @property
    def n(self) -> int:
        return self.db.shape[0]

    def _quantized_seed(
        self, k: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour lists from coarse-anchor candidate groups.

        Nodes are grouped by their nearest anchor (a seeded sample of
        database rows); each group is scored against the members of its
        closest anchor neighbourhoods with one matrix product.
        ``ef_construction`` sets the per-node candidate budget through the
        number of probed anchor lists. Each node keeps its best
        ``min(k, m_links)`` candidates. Returns the ``(n, k)`` neighbour ids
        (``-1`` pad) and their exact similarities (``-inf`` pad), both in
        descending similarity per node, ties toward the smaller id.
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

        keep = min(k, p.m_links)
        nbrs = np.full((n, k), -1, dtype=np.int64)
        sims = np.full((n, k), -np.inf)
        for c in range(n_anchor):
            group = members[c]
            if group.size == 0:
                continue
            cand = np.unique(np.concatenate([members[a] for a in near_anchors[c]]))
            block = self.qr[group] @ self.db[cand].T
            block[cand[None, :] == group[:, None]] = -np.inf
            nbrs[group, :keep], sims[group, :keep] = select_rows(block, cand, keep)
        return nbrs, sims

    def self_knn(self, k: int) -> NeighbourLists:
        return NeighbourLists(*self._quantized_seed(k, np.random.default_rng(self.seed)))


def ann_default_build(
    db_rows: np.ndarray,
    query_rows: np.ndarray | None = None,
    params: AnnParams | None = None,
    seed: int = 0,
) -> ProximityGraphIndex:
    """Default approximate index over (extended) feature rows."""
    return ProximityGraphIndex(db_rows, query_rows, params=params, seed=seed)
