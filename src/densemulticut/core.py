"""Domain types and arithmetic for multicut on implicit complete graphs.

Edge costs are inner products of node feature vectors, optionally extended by
a per-node affinity scalar whose pairwise product is added to or subtracted
from the plain inner product. Contracting two nodes is realised by summing
their feature rows (and affinity scalars), which reproduces the classical
additive cost update on the complete graph.

The same factorisation makes the objective cheap: the cost of every pair
cut by a partition is ``1/2 * sum_c Q_c . (D - D_c)``, where ``Q_c`` and
``D_c`` are the summed query and database rows of cluster ``c`` and ``D``
the sum of all database rows, so scoring a partition takes O(n*d) rather
than O(n^2*d).

The solver workspace keeps only the current clusters' 64-bit database rows,
packed at the front of one ``n``-row array, so an exact search multiplies
against the alive rows without gathering them. A query row differs from
its database row only in the sign of the affinity column under MINUS, so
it is made by negating that column (:func:`query_sign`) on a copy the
search already holds, a gathered block or one row, never kept for all
nodes.

Features are stored in 32-bit precision; all similarity arithmetic is
accumulated in 64-bit. The exact graph builds screen candidates with
float32 products first (``knn.block_topk``), but that screen only picks
candidates: every similarity they keep is rescored in 64-bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, CapacityError, StateError

#: Largest instance the exhaustive partition oracle accepts (Bell-number growth).
MAX_ORACLE_N = 12
# Bytes of float64 feature rows the objective converts at a time (1 MiB).
_SUM_BYTES = 1 << 20


class AlphaSign(enum.Enum):
    """How the affinity product ``alpha_i * alpha_j`` enters the similarity."""

    PLUS = "plus"
    MINUS = "minus"
    OFF = "off"

    @property
    def factor(self) -> float:
        if self is AlphaSign.PLUS:
            return 1.0
        if self is AlphaSign.MINUS:
            return -1.0
        return 0.0

    @classmethod
    def parse(cls, value: "AlphaSign | str") -> "AlphaSign":
        if isinstance(value, AlphaSign):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ArgumentError(f"unknown alpha sign {value!r}") from None


@dataclass(frozen=True)
class FeatureMatrix:
    """Immutable n-by-d node feature store; the implicit complete graph.

    ``alpha`` is either ``None`` (no affinity column) or a nonnegative
    per-node scalar array. With ``alpha_sign`` OFF the affinity term is
    skipped entirely rather than multiplied by zero.
    """

    data: np.ndarray
    alpha: np.ndarray | None = None
    alpha_sign: AlphaSign = AlphaSign.OFF

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ArgumentError("feature matrix must be 2-D with n >= 1, d >= 1")
        if not np.isfinite(data).all():
            raise ArgumentError("feature matrix contains non-finite entries")
        object.__setattr__(self, "data", data)
        if self.alpha is not None:
            alpha = np.ascontiguousarray(self.alpha, dtype=np.float32)
            if alpha.shape != (data.shape[0],):
                raise ArgumentError("alpha must have one entry per node")
            if not np.isfinite(alpha).all() or (alpha < 0).any():
                raise ArgumentError("alpha entries must be finite and nonnegative")
            alpha.setflags(write=False)
            object.__setattr__(self, "alpha", alpha)
        data.setflags(write=False)
        object.__setattr__(self, "alpha_sign", AlphaSign.parse(self.alpha_sign))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def with_affinity(self, alpha: float, sign: AlphaSign | str) -> "FeatureMatrix":
        """Return a copy with the given affinity configuration applied.

        Per-node alphas already present (e.g. read from a feature file) are
        kept; otherwise a uniform ``alpha`` is filled in. Sign OFF drops the
        affinity column.
        """
        sign = AlphaSign.parse(sign)
        if sign is AlphaSign.OFF:
            return FeatureMatrix(self.data, None, AlphaSign.OFF)
        if self.alpha is not None:
            return FeatureMatrix(self.data, self.alpha, sign)
        if alpha < 0:
            raise ArgumentError("alpha must be nonnegative")
        filled = np.full(self.n, alpha, dtype=np.float32)
        return FeatureMatrix(self.data, filled, sign)

    def _check_node(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ArgumentError(f"node id {i} out of range [0, {self.n})")


@dataclass(frozen=True)
class SparseWeightedGraph:
    """Explicit edge list with real costs; input to the sparse-graph solver."""

    n: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_cost: np.ndarray

    def __post_init__(self) -> None:
        u = np.ascontiguousarray(self.edge_u, dtype=np.int64)
        v = np.ascontiguousarray(self.edge_v, dtype=np.int64)
        c = np.ascontiguousarray(self.edge_cost, dtype=np.float64)
        if not (u.shape == v.shape == c.shape) or u.ndim != 1:
            raise ArgumentError("edge arrays must be 1-D and of equal length")
        if self.n < 1:
            raise ArgumentError("graph needs at least one node")
        if u.size:
            if (u == v).any():
                raise ArgumentError("self-loops are not allowed")
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            if (lo < 0).any() or (hi >= self.n).any():
                raise ArgumentError("edge endpoint out of range")
            keys = lo * self.n + hi
            if np.unique(keys).size != keys.size:
                raise ArgumentError("duplicate edges are not allowed")
            u, v = lo, hi
        for arr in (u, v, c):
            arr.setflags(write=False)
        object.__setattr__(self, "edge_u", u)
        object.__setattr__(self, "edge_v", v)
        object.__setattr__(self, "edge_cost", c)

    @classmethod
    def from_edges(cls, n: int, edges) -> "SparseWeightedGraph":
        if len(edges) == 0:
            z = np.zeros(0)
            return cls(n, z, z, z)
        u, v, c = zip(*edges)
        return cls(n, np.asarray(u), np.asarray(v), np.asarray(c))

    @property
    def n_edges(self) -> int:
        return self.edge_u.size

    def edges(self) -> list[tuple[int, int, float]]:
        return [
            (int(a), int(b), float(c))
            for a, b, c in zip(self.edge_u, self.edge_v, self.edge_cost)
        ]


class ContractionForest:
    """Merge history over original node ids plus fresh merged-node ids.

    Merged nodes get ids ``n0 + merge_index`` so traces are reproducible.
    Every original node resolves through parent links to exactly one alive
    representative. Mutation is single-writer.
    """

    def __init__(self, n0: int) -> None:
        if n0 < 1:
            raise ArgumentError("need at least one node")
        cap = 2 * n0 - 1
        self.n0 = n0
        self.parent = np.arange(cap, dtype=np.int64)
        self.alive = np.zeros(cap, dtype=bool)
        self.alive[:n0] = True
        self.n_merges = 0

    @property
    def n_alive(self) -> int:
        return self.n0 - self.n_merges

    def is_alive(self, i: int) -> bool:
        return 0 <= i < self.parent.size and bool(self.alive[i])

    def merge(self, i: int, j: int) -> int:
        if i == j:
            raise ArgumentError("cannot merge a node with itself")
        for x in (i, j):
            if not self.is_alive(x):
                raise StateError(f"node {x} is not alive")
        m = self.n0 + self.n_merges
        self.parent[i] = m
        self.parent[j] = m
        self.alive[i] = False
        self.alive[j] = False
        self.alive[m] = True
        self.n_merges += 1
        return m

    def labels(self) -> np.ndarray:
        """Cluster ids for the original nodes, contiguous from 0 in
        first-occurrence order."""
        # pointer jumping: each pass doubles the distance every link spans
        root = self.parent
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        return canonical_labels(root[: self.n0])


@dataclass(frozen=True)
class Partition:
    """Final clustering of the original nodes plus its objective value."""

    labels: np.ndarray
    n_clusters: int
    objective: float

    def __post_init__(self) -> None:
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size < 1:
            raise ArgumentError("labels must be a non-empty 1-D array")
        uniq = np.unique(labels)
        if uniq[0] != 0 or uniq[-1] != uniq.size - 1:
            raise ArgumentError("cluster ids must be contiguous from 0")
        if uniq.size != self.n_clusters:
            raise ArgumentError("n_clusters does not match labels")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel clusters contiguously from 0 in first-occurrence order."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def _database_rows(fm: FeatureMatrix) -> np.ndarray:
    """64-bit database rows with the affinity column folded in, unless the
    sign is OFF. The rows are written straight into the array returned, so
    the call holds no other copy."""
    if fm.alpha_sign is AlphaSign.OFF or fm.alpha is None:
        return fm.data.astype(np.float64)
    db = np.empty((fm.n, fm.d + 1))
    db[:, :-1] = fm.data
    db[:, -1] = fm.alpha
    return db


def query_sign(fm: FeatureMatrix) -> np.ndarray | None:
    """The row that turns a database row into its query row when multiplied
    in: ``-1`` in the affinity column under MINUS, ``1`` elsewhere; ``None``
    when the two rows are equal.

    Negation is exact, so a query row made this way has the bits of one
    kept apart, and ``q_u . d_v`` has the same terms as ``d_u . q_v``, so
    either side may carry the sign.
    """
    if fm.alpha_sign is not AlphaSign.MINUS or fm.alpha is None:
        return None
    sign = np.ones(fm.d + 1)
    sign[-1] = -1.0
    return sign


def _extended_rows(fm: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    """64-bit (query_rows, db_rows) with the affinity column folded in, for
    the oracles that take every pair at once.

    For MINUS the query side carries the negated affinity so that every
    similarity is a plain inner product of a query row with a database row.
    Without that difference both are one array.
    """
    db = _database_rows(fm)
    sign = query_sign(fm)
    return (db if sign is None else db * sign), db


def similarity(fm: FeatureMatrix, i: int, j: int) -> float:
    """Inner-product similarity of nodes ``i`` and ``j`` with the affinity
    term applied according to ``fm.alpha_sign``."""
    if i == j:
        raise ArgumentError("similarity requires two distinct nodes")
    fm._check_node(i)
    fm._check_node(j)
    s = float(np.dot(fm.data[i].astype(np.float64), fm.data[j].astype(np.float64)))
    if fm.alpha_sign is not AlphaSign.OFF and fm.alpha is not None:
        s += fm.alpha_sign.factor * float(fm.alpha[i]) * float(fm.alpha[j])
    return s


class ContractionState:
    """Mutable solver workspace over an immutable :class:`FeatureMatrix`.

    Holds the 64-bit extended feature rows (affinity column folded in) of
    the alive nodes only, the aliveness mask and the merge forest. The
    database rows are packed at the front of one ``(n0, dim)`` array,
    ``packed``, so an exact search multiplies straight against
    ``packed[:n_alive]`` with no gather. ``query_sign`` (:func:`query_sign`)
    turns a database row into its query row, ``None`` unless the affinity
    sign is MINUS; :meth:`query_row` applies it to one row, and the searches
    apply it to the copies they gather. ``order[p]`` is the id in slot ``p``
    and ``slot[u]`` the slot of id ``u`` (``-1`` once ``u`` is dead); every
    read of a node's row goes through ``slot``. Until the first contraction
    the slots are the ids; after it packed order is not ascending id order.
    A contraction sums the merged rows into i's slot, which the merged node
    takes, and moves the last alive row into j's slot, in O(d). Memory:
    ``n0`` float64 rows under every sign, which :func:`_database_rows`
    writes in place, so building the state holds no other copy of the
    rows, plus the int64 slot, order and forest arrays.

    Mutation is single-writer; reads of the immutable input may be shared
    across threads.
    """

    def __init__(self, fm: FeatureMatrix) -> None:
        self.fm = fm
        self.sign = fm.alpha_sign
        n = fm.n
        self.packed = _database_rows(fm)
        self.query_sign = query_sign(fm)
        self.dim = self.packed.shape[1]
        self.order = np.arange(n, dtype=np.int64)
        self.slot = np.full(2 * n - 1, -1, dtype=np.int64)
        self.slot[:n] = self.order
        self.forest = ContractionForest(n)
        self.alive = self.forest.alive

    @property
    def n0(self) -> int:
        return self.forest.n0

    @property
    def n_alive(self) -> int:
        return self.forest.n_alive

    def check_alive(self, i: int) -> None:
        if not self.forest.is_alive(i):
            raise StateError(f"node {i} is not alive")

    def alive_ids(self) -> np.ndarray:
        return np.flatnonzero(self.alive)

    def query_row(self, u: int) -> np.ndarray:
        """The query row of alive node ``u``: a copy of its packed row with
        the sign applied, or under PLUS and OFF the packed row itself."""
        row = self.packed[self.slot.item(u)]
        return row if self.query_sign is None else row * self.query_sign

    def sim(self, i: int, j: int) -> float:
        si, sj = self.slot.item(i), self.slot.item(j)
        if si < 0 or sj < 0:
            raise StateError(f"node {i if si < 0 else j} is not alive")
        return float(np.dot(self.query_row(i), self.packed[sj]))

    def sims_to(self, q: int, ids: np.ndarray) -> np.ndarray:
        """Similarities from alive query node ``q`` to each alive node in
        ``ids``."""
        return self.packed.take(self.slot.take(ids), axis=0) @ self.query_row(q)

    def contract(self, i: int, j: int) -> int:
        """Contract nodes ``i`` and ``j``; returns the fresh merged id."""
        # the forest rejects i == j and dead ends before any row is written
        m = self.forest.merge(i, j)
        packed, order, slot = self.packed, self.order, self.slot
        si, sj = slot.item(i), slot.item(j)
        np.add(packed[si], packed[sj], out=packed[si])
        # one alive node fewer: slot ``last`` falls out of packed[:n_alive]
        last = self.n_alive
        order[si] = m
        slot[m] = si
        slot[i] = -1
        slot[j] = -1
        if sj != last:
            # the row in the last alive slot (m itself when si was last)
            # fills the hole j left
            moved = order.item(last)
            packed[sj] = packed[last]
            order[sj] = moved
            slot[moved] = sj
        return m


def objective(instance: FeatureMatrix | SparseWeightedGraph, labels: np.ndarray) -> float:
    """Sum of edge costs over cut edges, each unordered pair counted once.

    For a dense instance the sum runs over all pairs ``i < j`` of the
    implicit complete graph, in O(n*d) from per-cluster sums: with ``Q_c``
    and ``D_c`` the summed query and database rows of cluster ``c`` and
    ``D`` the sum of all database rows, the cut cost is
    ``1/2 * sum_c Q_c . (D - D_c)``. It is evaluated as the feature part
    ``X_c . (X - X_c)`` plus ``factor * A_c * (A - A_c)`` for the affinity
    column. Labels need not be contiguous; a single cluster gives exactly
    0.0.

    The cluster sums are taken a chunk of features at a time, each chunk's
    rows converted to float64 within ``_SUM_BYTES`` (at least one feature),
    so the pass holds the ``(d, clusters)`` sums but no float64 copy of the
    features. Each feature's sums are the same bits as from one whole copy.
    """
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    if isinstance(instance, SparseWeightedGraph):
        if labels.shape != (instance.n,):
            raise ArgumentError("labels length does not match node count")
        if instance.n_edges == 0:
            return 0.0
        cut = labels[instance.edge_u] != labels[instance.edge_v]
        return float(instance.edge_cost[cut].sum())
    fm = instance
    if labels.shape != (fm.n,):
        raise ArgumentError("labels length does not match node count")
    order = np.argsort(labels, kind="stable")
    grouped = labels[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    x_c = np.empty((fm.d, starts.size))
    step = max(1, _SUM_BYTES // (8 * fm.n))
    for lo in range(0, fm.d, step):
        # one row per feature, so every cluster sum runs along contiguous memory
        rows = fm.data[order, lo : lo + step].T.astype(np.float64, order="C")
        np.add.reduceat(rows, starts, axis=1, out=x_c[lo : lo + step])
    total = float(np.einsum("ij,ij->", x_c, x_c.sum(axis=1, keepdims=True) - x_c))
    if fm.alpha_sign is not AlphaSign.OFF and fm.alpha is not None:
        a_c = np.add.reduceat(fm.alpha[order].astype(np.float64), starts)
        total += fm.alpha_sign.factor * float(a_c @ (a_c.sum() - a_c))
    return total / 2.0


def materialize_cost_matrix(fm: FeatureMatrix, max_edges: int = 50_000_000) -> SparseWeightedGraph:
    """Complete graph with cost(u, v) = similarity(u, v) for all u < v."""
    n = fm.n
    n_pairs = n * (n - 1) // 2
    if n_pairs > max_edges:
        raise CapacityError(f"{n_pairs} edges exceed the cap of {max_edges}")
    qr, db = _extended_rows(fm)
    us = np.empty(n_pairs, dtype=np.int64)
    vs = np.empty(n_pairs, dtype=np.int64)
    cs = np.empty(n_pairs, dtype=np.float64)
    pos = 0
    for u in range(n - 1):
        cnt = n - u - 1
        us[pos:pos + cnt] = u
        vs[pos:pos + cnt] = np.arange(u + 1, n)
        cs[pos:pos + cnt] = db[u + 1:] @ qr[u]
        pos += cnt
    return SparseWeightedGraph(n, us, vs, cs)


def _pair_sim_table(instance: FeatureMatrix | SparseWeightedGraph) -> np.ndarray:
    if isinstance(instance, SparseWeightedGraph):
        table = np.zeros((instance.n, instance.n), dtype=np.float64)
        table[instance.edge_u, instance.edge_v] = instance.edge_cost
        table[instance.edge_v, instance.edge_u] = instance.edge_cost
        return table
    qr, db = _extended_rows(instance)
    table = qr @ db.T
    np.fill_diagonal(table, 0.0)
    return table


def enumerate_optimal(
    instance: FeatureMatrix | SparseWeightedGraph,
    max_n: int = MAX_ORACLE_N,
) -> tuple[Partition, float]:
    """Exhaustively minimise the multicut objective over all set partitions.

    Ties break toward fewer clusters, then lexicographically smaller label
    sequences. Only feasible for tiny instances (Bell-number enumeration).
    """
    n = instance.n
    if max_n > MAX_ORACLE_N:
        raise ArgumentError(f"max_n cannot exceed {MAX_ORACLE_N}")
    if n > max_n:
        raise CapacityError(f"n={n} exceeds the oracle capacity {max_n}")
    table = _pair_sim_table(instance)
    total = float(table[np.triu_indices(n, k=1)].sum())

    labels = [0] * n
    members: list[list[int]] = [[] for _ in range(n)]
    best: tuple[float, int, tuple[int, ...]] | None = None

    def descend(v: int, n_used: int, within: float) -> None:
        nonlocal best
        if v == n:
            key = (total - within, n_used, tuple(labels))
            if best is None or key < best:
                best = key
            return
        row = table[v]
        for c in range(n_used):
            gain = sum(row[u] for u in members[c])
            labels[v] = c
            members[c].append(v)
            descend(v + 1, n_used, within + gain)
            members[c].pop()
        labels[v] = n_used
        members[n_used].append(v)
        descend(v + 1, n_used + 1, within)
        members[n_used].pop()

    descend(0, 0, 0.0)
    assert best is not None
    obj, n_clusters, lab = best
    part = Partition(np.array(lab, dtype=np.int64), n_clusters, obj)
    return part, obj
