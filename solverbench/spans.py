"""Outside-in span recorder for the traced benchmark run.

:class:`LayerTracer` wraps the public entry points of each layer of
``densemulticut`` where they are looked up at call time, records one span
per call in a :class:`SpanRecorder`, and restores every binding on exit.
Nothing under ``src/`` is changed: the spans sit at the layer boundaries,
seen from the caller's side.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, NamedTuple

import numpy as np

from densemulticut import ContractionForest, ContractionState
from densemulticut import knn, solvers
from densemulticut.ann import ProximityGraphIndex
from densemulticut.knn import CandidateQueue

ROOT = "solve"


class SpanTotals(NamedTuple):
    calls: int
    total_s: float
    self_s: float


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly (a child runs inside its parent and siblings do not
    overlap), so the children's durations are the part of the parent's
    interval they cover. ``parent`` holds -1 for a root.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=dur.size
    )
    return dur - covered


class SpanRecorder:
    """Spans and counters of one traced solve, kept in memory.

    A span is (name, start, end, parent index); counters are summed and
    peaks are maxima of values observed at span boundaries.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.peaks: defaultdict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(float("nan"))
        self._open.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def totals(self) -> dict[str, SpanTotals]:
        """Calls, total and self time per span name."""
        if self._open:
            raise RuntimeError("spans still open")
        start = np.array(self.starts)
        end = np.array(self.ends)
        selfs = self_times(start, end, np.array(self.parents, dtype=np.int64))
        acc: dict[str, list[float]] = {}
        for name, dur, own in zip(self.names, end - start, selfs):
            entry = acc.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += own
        return {name: SpanTotals(int(c), t, s) for name, (c, t, s) in acc.items()}


class LayerTracer:
    """Context manager that traces one solve's calls into each layer.

    ``sample`` names the nodes whose initial neighbour lists are copied at
    the moment the initial graph is built, for the recall check.
    """

    def __init__(self, recorder: SpanRecorder, sample: np.ndarray) -> None:
        self.rec = recorder
        self.sample = [int(q) for q in sample]
        self.initial: dict[int, list[int]] | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- hooks: run outside the wrapped call, around it --------------------

    def _snapshot(self, lists) -> None:
        if self.initial is None:
            self.initial = {q: [t for t, _ in lists(q)] for q in self.sample}

    def _graph_before(self, state, k, threads=1):
        self.rec.count("knn.build_graph_nodes", state.n_alive)

    def _graph_after(self, _, result, *args, **kwargs):
        graph = result[0]
        self._snapshot(graph.arcs)

    def _self_knn_after(self, _, result, *args, **kwargs):
        self._snapshot(lambda q: result[q])

    def _topk_before(self, state, queries, *args, **kwargs):
        q = 1 if np.ndim(queries) == 0 else len(queries)
        self.rec.count("knn.topk_queries", q)
        self.rec.count("knn.topk_flops", 2.0 * q * state.n_alive * state.dim)

    def _update_before(self, graph, state, i, j, *args, **kwargs):
        nin = graph.in_index.get(i, set()) | graph.in_index.get(j, set())
        self.rec.count("knn.in_nbrs", len(nin - {i, j}))

    def _update_after(self, _, result, *args, **kwargs):
        self.rec.count("knn.searches", result[1])

    def _best_arc_before(self, graph, queue, state):
        self.rec.peak("knn.heap_peak", len(queue))
        return len(queue)

    def _best_arc_after(self, before, result, graph, queue, state):
        self.rec.count("knn.heap_pops", before - len(queue))

    def _push_before(self, queue, graph, arcs):
        self.rec.count("knn.arcs_pushed", len(arcs))

    def _push_after(self, _, result, queue, graph, arcs):
        self.rec.peak("knn.heap_peak", len(queue))

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, before hook, after hook)."""
        return [
            (solvers, "build_nn_graph", "knn.build_graph", self._graph_before, self._graph_after),
            (solvers, "best_arc", "knn.best_arc", self._best_arc_before, self._best_arc_after),
            (solvers, "incremental_update", "knn.update", self._update_before, self._update_after),
            (solvers, "exhaustive_update", "knn.update", self._update_before, self._update_after),
            (solvers, "objective", "core.objective", None, None),
            (solvers, "ann_default_build", "ann.build", None, None),
            (knn, "topk_batch", "knn.topk", self._topk_before, None),
            (knn, "topk_exact", "knn.topk", self._topk_before, None),
            (ContractionState, "__init__", "core.state_init", None, None),
            (ContractionState, "contract", "core.contract", None, None),
            (ContractionForest, "labels", "core.labels", None, None),
            (CandidateQueue, "push_many", "knn.push", self._push_before, self._push_after),
            (ProximityGraphIndex, "self_knn", "ann.build", None, self._self_knn_after),
        ]

    def _wrap(self, fn, name, before, after):
        rec = self.rec

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(*args, **kwargs) if before else None
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if after:
                after(token, result, *args, **kwargs)
            return result

        return traced

    def __enter__(self) -> "LayerTracer":
        try:
            for owner, attr, name, before, after in self._targets():
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(original, name, before, after))
                self._saved.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
