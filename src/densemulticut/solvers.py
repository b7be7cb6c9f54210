"""Greedy and lazy contraction solvers for the dense multicut problem.

All solvers share the same loop: take the best arc of the NN graph,
contract it, repair the graph, repeat while the best similarity is
nonnegative. They differ in how the graph is repaired (the exact repair,
with one or several neighbours per node, or lazy survival) and in how the
initial graph is built (exact or approximate). The sparse-graph baseline
operates directly on an explicit cost adjacency and is the reference the
dense greedy variants reproduce move for move.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .ann import AnnIndex, AnnParams, ann_default_build
from .core import (
    AlphaSign,
    ContractionForest,
    ContractionState,
    FeatureMatrix,
    Partition,
    SparseWeightedGraph,
    materialize_cost_matrix,
    objective,
)
from .errors import ArgumentError
from .knn import (
    NNGraph,
    CandidateQueue,
    best_arc,
    build_nn_graph,
    exhaustive_update,
    incremental_update,
)

ALGORITHMS = ("gaec", "dgaec", "dgaec-inc", "dlaec", "dapplaec")

#: Default neighbour counts: 1 for the plain dense greedy solver, 5 for the
#: variants that reuse neighbour lists across contractions; under the exact
#: repair a row of 5 arcs mostly shrinks instead of being searched again.
DEFAULT_K = {"dgaec": 1, "dgaec-inc": 5, "dlaec": 5, "dapplaec": 5}


class MergeStep(NamedTuple):
    i: int
    j: int
    m: int
    similarity: float


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str = "dgaec-inc"
    k: int | None = None
    alpha: float = 0.4
    alpha_sign: AlphaSign = AlphaSign.MINUS
    ann_params: AnnParams = field(default_factory=AnnParams)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ArgumentError(f"unknown algorithm {self.algorithm!r}")
        if self.k is not None and self.k < 1:
            raise ArgumentError("k must be at least 1")
        object.__setattr__(self, "alpha_sign", AlphaSign.parse(self.alpha_sign))

    @property
    def resolved_k(self) -> int:
        if self.k is not None:
            return self.k
        return DEFAULT_K.get(self.algorithm, 5)


@dataclass
class SolveResult:
    partition: Partition
    trace: list[MergeStep]
    stats: dict[str, float | int]

    @property
    def labels(self) -> np.ndarray:
        return self.partition.labels


StepCallback = Callable[[ContractionState, int, int, float], None]


def _result(
    part: Partition, trace: list[MergeStep], t_start: float, **counters: float | int
) -> SolveResult:
    """Wrap a solve's outcome with its stats record.

    Every algorithm returns the same seven keys: wall time, contractions,
    exhaustive and in-loop searches, in-arc insertions (rows that received
    an arc to a merged node without a search), initial-graph time and
    rebuilds; counters not given are zero.
    """
    stats: dict[str, float | int] = {
        "wall_ms": (time.perf_counter() - t_start) * 1e3,
        "n_contractions": len(trace),
        "n_exhaustive_searches": 0,
        "loop_searches": 0,
        "in_arc_insertions": 0,
        "init_ms": 0.0,
        "rebuilds": 0,
    }
    stats.update(counters)
    return SolveResult(part, trace, stats)


def gaec(graph: SparseWeightedGraph) -> SolveResult:
    """Greedy additive edge contraction on an explicit weighted graph.

    Repeatedly contracts the maximum-cost edge while that cost is
    nonnegative, summing parallel edge costs (absent edges count as zero).
    Ties break toward the lexicographically smallest node pair.
    """
    t_start = time.perf_counter()
    n = graph.n
    forest = ContractionForest(n)
    adj: dict[int, dict[int, float]] = {u: {} for u in range(n)}
    heap: list[tuple[float, int, int]] = []
    for u, v, c in zip(graph.edge_u, graph.edge_v, graph.edge_cost):
        u, v, c = int(u), int(v), float(c)
        adj[u][v] = c
        adj[v][u] = c
        heap.append((-c, u, v))
    heapq.heapify(heap)
    alive = forest.alive
    trace: list[MergeStep] = []
    while heap:
        negc, u, v = heapq.heappop(heap)
        if not (alive[u] and alive[v]):
            continue
        if -negc < 0.0:
            break
        m = forest.merge(u, v)
        trace.append(MergeStep(u, v, m, -negc))
        du = adj.pop(u)
        dv = adj.pop(v)
        if len(du) < len(dv):
            du, dv = dv, du
        merged = dict(du)
        for l, c in dv.items():
            merged[l] = merged.get(l, 0.0) + c
        merged.pop(u, None)
        merged.pop(v, None)
        adj[m] = merged
        for l, c in merged.items():
            dl = adj[l]
            dl.pop(u, None)
            dl.pop(v, None)
            dl[m] = c
            heapq.heappush(heap, (-c, l, m))
    labels = forest.labels()
    obj = objective(graph, labels)
    part = Partition(labels, int(labels.max()) + 1, obj)
    return _result(part, trace, t_start)


def _initial_graph_from_index(
    state: ContractionState, k: int, index: AnnIndex
) -> tuple[NNGraph, CandidateQueue]:
    graph = NNGraph(k, state.slot.size)
    queue = CandidateQueue(state.slot.size)
    lists = index.self_knn(k)
    rows = np.arange(state.n0)
    graph.set_rows(rows, lists.ids, lists.sims, from_full=index.exact)
    queue.refresh(graph, rows)
    return graph, queue


def _dense_solve(
    fm: FeatureMatrix,
    cfg: SolverConfig,
    mode: str,
    index_factory: Callable[..., AnnIndex] | None = None,
    step_callback: StepCallback | None = None,
) -> SolveResult:
    t_start = time.perf_counter()
    fm_eff = fm.with_affinity(cfg.alpha, cfg.alpha_sign)
    if fm_eff.n == 1:
        return _result(Partition(np.zeros(1, dtype=np.int64), 1, 0.0), [], t_start)
    lazy = mode in ("lazy", "approx-lazy")
    k = cfg.resolved_k
    state = ContractionState(fm_eff)
    stats: dict[str, float | int] = {
        "n_exhaustive_searches": 0,
        "loop_searches": 0,
        "in_arc_insertions": 0,
        "rebuilds": 0,
    }
    t_init = time.perf_counter()
    if mode == "approx-lazy":
        # the packed rows are in id order only until the first contraction,
        # and the index aliases them, so it must not outlive the initial graph
        factory = index_factory or ann_default_build
        index = factory(state.packed, state.query_sign, params=cfg.ann_params, seed=cfg.seed)
        graph, queue = _initial_graph_from_index(state, k, index)
        if index.exact:
            stats["n_exhaustive_searches"] += state.n0
        del index
    else:
        graph, queue = build_nn_graph(state, k)
        stats["n_exhaustive_searches"] += state.n0
    stats["init_ms"] = (time.perf_counter() - t_init) * 1e3

    trace: list[MergeStep] = []
    while state.n_alive > 1:
        arc = best_arc(graph, queue, state)
        if arc is None:
            if not lazy:
                break
            # the old graph and queue go before the new ones are allocated,
            # so the two are never held at once
            del graph, queue
            graph, queue = build_nn_graph(state, k)
            stats["rebuilds"] += 1
            stats["n_exhaustive_searches"] += state.n_alive
            arc = best_arc(graph, queue, state)
            if arc is None:
                break
        i, j, sim = arc
        if step_callback is not None:
            step_callback(state, i, j, sim)
        m = state.contract(i, j)
        trace.append(MergeStep(i, j, m, sim))
        if lazy:
            new_arcs, searches = incremental_update(graph, state, i, j, m)
        else:
            new_arcs, searches = exhaustive_update(graph, state, i, j, m)
        stats["loop_searches"] += searches
        stats["n_exhaustive_searches"] += searches
        stats["in_arc_insertions"] += new_arcs.insertions
        queue.push_many(graph, new_arcs)

    labels = state.forest.labels()
    obj = objective(fm_eff, labels)
    part = Partition(labels, int(labels.max()) + 1, obj)
    return _result(part, trace, t_start, **stats)


def dense_gaec(
    fm: FeatureMatrix,
    cfg: SolverConfig | None = None,
    step_callback: StepCallback | None = None,
) -> SolveResult:
    """Dense greedy contraction with an exact NN repair after each merge.

    The merged node is searched, and so is every node that listed a
    parent and has no arc left after the repair (see
    :func:`~densemulticut.knn.exhaustive_update`). Reproduces the sparse
    greedy baseline on the materialised complete graph move for move.
    """
    cfg = cfg or SolverConfig(algorithm="dgaec")
    return _dense_solve(fm, cfg, "exhaustive", step_callback=step_callback)


def dense_gaec_inc(
    fm: FeatureMatrix,
    cfg: SolverConfig | None = None,
    step_callback: StepCallback | None = None,
) -> SolveResult:
    """Dense greedy contraction that keeps k-NN lists across merges.

    The exact repair of :func:`dense_gaec` at the default k of 5: a node
    that listed a parent keeps its surviving arcs and takes the merged node
    above its floor, so it is searched again only once its list runs dry.
    A row loses its arcs one merge at a time, so this makes fewer searches
    than :func:`dense_gaec` at k = 1 and reproduces the same moves.
    """
    cfg = cfg or SolverConfig(algorithm="dgaec-inc")
    return _dense_solve(fm, cfg, "exhaustive", step_callback=step_callback)


def dense_laec(
    fm: FeatureMatrix,
    cfg: SolverConfig | None = None,
    step_callback: StepCallback | None = None,
) -> SolveResult:
    """Lazy contraction: consume the NN graph without per-merge re-search,
    rebuilding it exactly only when no candidate arcs remain."""
    cfg = cfg or SolverConfig(algorithm="dlaec")
    return _dense_solve(fm, cfg, "lazy", step_callback=step_callback)


def dense_app_laec(
    fm: FeatureMatrix,
    cfg: SolverConfig | None = None,
    step_callback: StepCallback | None = None,
    index_factory: Callable[..., AnnIndex] | None = None,
) -> SolveResult:
    """Lazy contraction seeded from an approximate initial NN graph.

    Only the initial graph is approximate; every later rebuild and search
    is exact.
    """
    cfg = cfg or SolverConfig(algorithm="dapplaec")
    return _dense_solve(
        fm, cfg, "approx-lazy", index_factory=index_factory,
        step_callback=step_callback,
    )


_DENSE_DISPATCH = {
    "dgaec": dense_gaec,
    "dgaec-inc": dense_gaec_inc,
    "dlaec": dense_laec,
    "dapplaec": dense_app_laec,
}


def solve(
    instance: FeatureMatrix | SparseWeightedGraph,
    cfg: SolverConfig,
    **kwargs,
) -> SolveResult:
    """Run the configured algorithm on a dense or sparse instance.

    The sparse baseline accepts a feature instance by materialising the
    complete cost graph first; dense algorithms require features.
    """
    if cfg.algorithm == "gaec":
        if isinstance(instance, FeatureMatrix):
            eff = instance.with_affinity(cfg.alpha, cfg.alpha_sign)
            instance = materialize_cost_matrix(eff)
        return gaec(instance)
    if isinstance(instance, SparseWeightedGraph):
        raise ArgumentError(
            f"algorithm {cfg.algorithm!r} requires node features, not an edge list"
        )
    return _DENSE_DISPATCH[cfg.algorithm](instance, cfg, **kwargs)
