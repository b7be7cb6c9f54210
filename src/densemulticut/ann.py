"""Approximate maximum-inner-product indexes for the initial NN graph.

The default index builds a proximity graph from coarse anchors: nodes are
grouped by their nearest anchor (a seeded sample of database rows), and
every group is scored exactly against the members of its closest anchor
groups, with ``ef_construction`` setting the per-node candidate budget.
Each node keeps its best ``min(k, m_links)`` candidates for a query of k
neighbours; there are no neighbour-descent rounds. Stored similarities are
always true inner products; the approximation is only in candidate
coverage.

The indexes keep the database rows as given and a sign row
(:func:`~densemulticut.core.query_sign`) in place of a second array of
query rows: the build negates the affinity column on copies it gathers
anyway, the anchors' rows once they are ranked and each group's rows, so
every product has the terms, and the bits, of the product with separate
query rows.

The build's memory is the O(n·k) lists plus one block at a time: the
n_anchor × n_anchor similarities of the anchors (n_anchor ≈ 4√n), then one
``_BLOCK`` × n_anchor product per ``_BLOCK`` query rows while nodes are
assigned to anchors, then one group's product with its candidates. The
anchor groups come from one stable sort of the assignment and each group's
probed anchors from :func:`~densemulticut.knn.select_rows`.

Construction is deterministic for a fixed seed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .knn import _BLOCK, NeighbourLists, _query_block, block_topk, select_rows


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
    so it must not outlive the initial graph. ``sign`` turns a row into its
    query row (:func:`~densemulticut.core.query_sign`; ``None``, the
    default, when they are equal). :meth:`self_knn` is the exact
    graph builder's search (:func:`~densemulticut.knn.block_topk`): more
    than ``_BLOCK`` rows are screened in float32 and their winners
    rescored in float64 pair by pair, so its lists equal the builder's bit
    for bit.
    """

    exact = True

    def __init__(self, db_rows: np.ndarray, sign: np.ndarray | None = None):
        self.db = np.ascontiguousarray(db_rows, dtype=np.float64)
        self.sign = sign

    @property
    def n(self) -> int:
        return self.db.shape[0]

    def self_knn(self, k: int) -> NeighbourLists:
        # the exact graph builder's search, so a run seeded from this index
        # reproduces the exact builder's arcs bit for bit
        ids = np.arange(self.n)
        return block_topk(self.db, ids, ids, k, self.sign)


class ProximityGraphIndex(AnnIndex):
    """Coarse-quantized proximity graph over the database rows.

    Each node's neighbour list comes from exact scores against the
    candidates of its anchor group's nearest groups, with no
    neighbour-descent rounds, so only candidate coverage is approximate.
    The rows are kept as given and ``sign`` as in :class:`ExactIndex`.
    """

    exact = False

    def __init__(
        self,
        db_rows: np.ndarray,
        sign: np.ndarray | None = None,
        params: AnnParams | None = None,
        seed: int = 0,
    ) -> None:
        self.params = params or AnnParams()
        self.seed = seed
        self.db = np.ascontiguousarray(db_rows, dtype=np.float64)
        self.sign = sign

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

        Memory is the O(n·k) output plus, at any time, one of: the
        n_anchor × n_anchor anchor similarities with their ranking; one
        ``_BLOCK`` × n_anchor assignment block (nodes take their argmax
        anchor block by block); one group's product with its candidates.
        The groups are the runs of one stable sort of the assignment, so
        each lists its nodes in id order, and a group's probed anchors are
        the top ``probes`` of its anchor's row by
        :func:`~densemulticut.knn.select_rows` (descending similarity, ties
        toward the smaller id). The probed groups are disjoint, so their
        sorted concatenation is the candidate union. The sign goes on the
        anchor rows once they are ranked, for the assignment, and on each
        group's gathered rows, for its product.
        """
        n = self.n
        p = self.params
        n_anchor = min(n, max(8, int(4.0 * np.sqrt(n))))
        anchors = np.sort(rng.choice(n, size=n_anchor, replace=False))
        anchor_rows = self.db[anchors]
        avg_group = max(1.0, n / n_anchor)
        probes = int(np.clip(round(p.ef_construction / avg_group), 2, n_anchor))
        # a distinct right operand keeps numpy off its symmetric (syrk)
        # product, which rounds differently from the general one; the anchor
        # block is ranked and freed before the assignment, so the two blocks
        # are never held at once
        anchor_sims = anchor_rows @ anchor_rows.copy().T
        near_anchors = select_rows(anchor_sims, np.arange(n_anchor), probes)[0]
        del anchor_sims
        if self.sign is not None:
            # d_u . q_a has the terms of q_u . d_a, so the assignment has
            # the bits of the product with the nodes' query rows
            anchor_rows *= self.sign
        own = np.empty(n, dtype=np.int64)
        for lo in range(0, n, _BLOCK):
            own[lo : lo + _BLOCK] = np.argmax(self.db[lo : lo + _BLOCK] @ anchor_rows.T, axis=1)
        bounds = np.cumsum(np.bincount(own, minlength=n_anchor))[:-1]
        members = np.split(np.argsort(own, kind="stable"), bounds)

        keep = min(k, p.m_links)
        nbrs = np.full((n, k), -1, dtype=np.int64)
        sims = np.full((n, k), -np.inf)
        for c in range(n_anchor):
            group = members[c]
            if group.size == 0:
                continue
            cand = np.sort(np.concatenate([members[a] for a in near_anchors[c]]))
            block = _query_block(self.db, group, self.sign) @ self.db[cand].T
            block[cand[None, :] == group[:, None]] = -np.inf
            nbrs[group, :keep], sims[group, :keep] = select_rows(block, cand, keep)
        return nbrs, sims

    def self_knn(self, k: int) -> NeighbourLists:
        return NeighbourLists(*self._quantized_seed(k, np.random.default_rng(self.seed)))


def ann_default_build(
    db_rows: np.ndarray,
    sign: np.ndarray | None = None,
    params: AnnParams | None = None,
    seed: int = 0,
) -> ProximityGraphIndex:
    """Default approximate index over (extended) feature rows, ``sign``
    turning a row into its query row."""
    return ProximityGraphIndex(db_rows, sign, params=params, seed=seed)
