"""Time the two in-neighbour block paths of ``knn.incremental_update``, the
lazy repair, on the lazy benchmark instances, the evidence for its size
rule ``_FEW_ROWS``.

Usage, from the repository root::

    python3 tools/repair_bench.py
    python3 tools/repair_bench.py --seed 7 --repeats 2

It builds the ``clustered-lazy`` and ``diffuse-lazy`` instances of
``solverbench/bench.py`` from the seed and solves each with both of their
solvers (``dlaec`` and ``dapplaec``) under the benchmark's settings.

- Two solves per solver force every in-neighbour block through one path:
  the numpy path (``_FEW_ROWS`` set to 0) and the Python path
  (``_FEW_ROWS`` above any block). Every call's batch and changed rows,
  the merge trace and the graph each solve leaves are digested; the exit
  code is 1 when the two paths differ anywhere, else 0.
- ``--repeats`` further solves per solver time the paths. The path
  alternates from call to call, so a drift in the machine's speed falls on
  both alike; the paths leave the same graph, so the solve does not change.
  Each call is timed in thread CPU time, so time the process spends
  descheduled does not count, and filed under its number of in-neighbours,
  the rows of the block.

It prints, per bucket of in-neighbour counts, the timed calls and the
median microseconds per call of each path; the crossover, the smallest
count from which the numpy path's median is below the Python path's in
every bucket; each solver's share of merges at or below ``_FEW_ROWS``
and above it; and each solver's share of merges whose contraction bound
(``knn._bound``, read before the update) is +inf, the merges on which the
merged node's row is left empty with nothing gathered for it.

BLAS runs on the benchmark's thread count, as in ``tools/trace_digest.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
WORKLOADS = ("clustered-lazy", "diffuse-lazy")
#: Upper ends of the in-neighbour buckets; the last bucket is open.
EDGES = (*range(17), 23, 31, 47, 63, 127)
#: ``_FEW_ROWS`` values that force every block through one path.
FORCE = {"numpy": 0, "python": 1 << 62}


def bucket(count: int) -> str:
    lo = 0
    for hi in EDGES:
        if count <= hi:
            return str(hi) if lo == hi else f"{lo}-{hi}"
        lo = hi + 1
    return f"{lo}+"


def in_neighbours(graph, state, i: int, j: int, m: int) -> int:
    """The rows of the block the update of merging i and j into m repairs:
    the update's own lookup, less its header ``[i, j, m]``."""
    from densemulticut import knn

    return knn._in_neighbours(graph, state.alive, i, j, m).size - 3


def segments(graph) -> bytes:
    """The reverse index as the graph holds it: each target's segment
    bounds and room, then every segment's sources in target order."""
    import numpy as np

    parts = [graph.in_src[s:e] for s, e in zip(graph.in_start.tolist(), graph.in_end.tolist())]
    bounds = np.concatenate((graph.in_start, graph.in_end, graph.in_limit, [graph.in_used]))
    return bounds.tobytes() + np.concatenate(parts).tobytes()


def forced_digest(fm, cfg, path: str) -> tuple[str, list[int], int]:
    """Solve with every block forced through ``path``; returns the digest
    of every update and of the solve, each merge's in-neighbours and the
    number of merges whose contraction bound is +inf."""
    import numpy as np

    from densemulticut import knn, solvers

    update = knn.incremental_update
    h = hashlib.blake2b(digest_size=8)
    counts: list[int] = []
    infinite = [0]
    graphs = []

    def digesting(graph, state, i, j, m):
        counts.append(in_neighbours(graph, state, i, j, m))
        infinite[0] += knn._bound(graph, i, j) == knn.INF
        batch, searches = update(graph, state, i, j, m)
        rows = batch.rows
        for arr in (rows, batch.best_sim, batch.best_dst, graph.nbr[rows], graph.sim[rows]):
            h.update(arr.tobytes())
        h.update(repr((batch.insertions, searches)).encode())
        h.update(graph.in_src[graph.in_start[m] : graph.in_end[m]].tobytes())
        if not graphs or graphs[-1] is not graph:
            graphs.append(graph)
        return batch, searches

    few_rows = knn._FEW_ROWS
    knn._FEW_ROWS = FORCE[path]
    solvers.incremental_update = digesting
    try:
        result = solvers.solve(fm, cfg)
    finally:
        solvers.incremental_update = update
        knn._FEW_ROWS = few_rows
    h.update(np.array([(s.i, s.j, s.m, s.similarity) for s in result.trace]).tobytes())
    h.update(np.asarray(result.labels).tobytes())
    graph = graphs[-1]
    for arr in (graph.nbr, graph.sim, graph.floor):
        h.update(arr.tobytes())
    h.update(segments(graph))
    return h.hexdigest(), counts, infinite[0]


def alternating_times(fm, cfg, first: int, times: dict[str, dict[str, list[int]]]) -> None:
    """Solve once, the calls taking the two paths in turn, the first call
    path number ``first`` of ``FORCE``; files every call's thread CPU
    nanoseconds in ``times[path][bucket]``."""
    from densemulticut import knn, solvers

    update = knn.incremental_update
    paths = list(FORCE)
    calls = [first]

    def timed(graph, state, i, j, m):
        path = paths[calls[0] % 2]
        calls[0] += 1
        count = in_neighbours(graph, state, i, j, m)
        knn._FEW_ROWS = FORCE[path]
        t0 = time.thread_time_ns()
        out = update(graph, state, i, j, m)
        times[path][bucket(count)].append(time.thread_time_ns() - t0)
        return out

    few_rows = knn._FEW_ROWS
    solvers.incremental_update = timed
    try:
        solvers.solve(fm, cfg)
    finally:
        solvers.incremental_update = update
        knn._FEW_ROWS = few_rows


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--repeats", type=int, default=2,
                   help="timed solves per workload and solver")
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # numpy loads only after the BLAS thread count is pinned
    from densemulticut import knn
    from solverbench import bench

    times: dict[str, dict[str, list[int]]] = {p: defaultdict(list) for p in FORCE}
    shares = []
    mismatches = 0
    for name in WORKLOADS:
        workload = bench.WORKLOADS[name]
        fm = workload.regime.instance(args.seed)
        for alg in (workload.ref, workload.alt):
            cfg = bench.config(alg)
            (a, counts, infinite), (b, _, _) = (forced_digest(fm, cfg, path) for path in FORCE)
            mismatches += a != b
            for rep in range(args.repeats):
                alternating_times(fm, cfg, rep, times)
            few = sum(c <= knn._FEW_ROWS for c in counts) / len(counts)
            shares.append((name, alg, len(counts), few, statistics.fmean(counts), infinite))
            print(f"{name} {alg}: {len(counts)} merges, "
                  f"{'paths agree' if a == b else 'PATHS DIFFER'}", flush=True)

    print("\nthread CPU time per incremental_update call, us (median)")
    print(f"{'in-nbrs':>8} {'calls':>7} {'numpy':>8} {'python':>8} {'py/np':>6}")
    medians = []
    for label in [bucket(e) for e in EDGES] + [bucket(EDGES[-1] + 1)]:
        np_ns, py_ns = times["numpy"].get(label), times["python"].get(label)
        if not (np_ns and py_ns):
            continue
        a, b = statistics.median(np_ns) / 1e3, statistics.median(py_ns) / 1e3
        medians.append((label, a, b))
        print(f"{label:>8} {len(np_ns) + len(py_ns):>7} {a:>8.1f} {b:>8.1f} {b / a:>6.2f}")
    crossover = next(
        (label for n, (label, _, _) in enumerate(medians)
         if all(a < b for _, a, b in medians[n:])),
        None,
    )
    print(f"crossover: numpy is faster from {crossover} in-neighbours on"
          if crossover else "crossover: the Python path is faster in the last bucket")
    print(f"\nmerges per side of _FEW_ROWS = {knn._FEW_ROWS}")
    for name, alg, total, few, mean, _ in shares:
        print(f"{name} {alg}: {few:.1%} at or below, {1 - few:.1%} above "
              f"(mean {mean:.1f} in-neighbours over {total} merges)")
    print("\nmerges whose contraction bound is +inf (merged node's row left empty)")
    for name, alg, total, _, _, infinite in shares:
        print(f"{name} {alg}: {infinite / total:.1%} ({infinite} of {total})")
    print("paths agree on every solve" if not mismatches else f"{mismatches} solvers differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
