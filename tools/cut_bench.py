"""Time the two exact top-k cuts of ``knn.select_rows`` over a fixed grid of
block shapes, the evidence for its size rule ``_FEW_CELLS`` and for the
partition cut's ranking limit ``_FEW_ENTRIES``.

Usage, from the repository root::

    python3 tools/cut_bench.py
    python3 tools/cut_bench.py --build
    python3 tools/cut_bench.py --ann
    python3 tools/cut_bench.py --state

For every block of r rows and c columns, r in {1, 2, 3, 4, 8, 512} and c in
{40, 400, 1000, 8000}, every k in {2, 5}, and two kinds of values, it
prints the microseconds per call, each the median of five timed repeats,
of the partition cut (``_select_few``) as ``select_rows`` runs it, of the
partition cut with every gathered entry ranked by the lexsort
(``_FEW_ENTRIES`` set to 0), and of the group-max cut
(``_select_groups``). It also prints the entries the partition cut gathers
and the cut ``select_rows`` takes. The ``normal`` blocks hold standard
normal similarities, the ``tied`` blocks two values, 0 and 1, so that a
row's k-th value is tied with about half its entries; each row has one
``-inf``, where a search masks the query's own column, and the ids are a
shuffled range. All cuts must return identical arrays on every block; the
exit code is 1 when they do not, else 0.

``--build`` instead times the graph builds' screened search and checks its
memory. For each benchmark instance (seed 7, the benchmark's affinity), for
one state after n/2 random contractions of it, whose merged rows have
larger norms, and for ``synth_rows(n, 32, 20, 0.1, seed=1)`` of
``tests/test_ann.py`` at n in {20000, 50000} under the same affinity, it
times ``knn.topk_batch`` over every alive node at k in {1, 5}, the median
of three calls, and prints the entries per row the screen gathers and
rescores (``fallback`` when the call took float64 products), the
``tracemalloc`` peak of one more call and its bound in bytes::

    nq·k·16 + n·dim·4 + 2·rows·n·4 + nq·32 + gathered·(16·dim + 256)

for nq queries against n alive rows of ``dim`` entries: the ``(nq, k)``
ids and similarities, the float32 copy of the rows, the budgeted block of
``rows = clamp(_SCREEN_CELLS // n, _SCREEN_FLOOR, _BLOCK)`` query rows
with as much again for the group maxima and group columns the screen
gathers from it, the per-query norms, slack and positions, and, per entry
of the block that gathers the most, the query and database rows of its
float64 rescore plus its indices and values. On the benchmark states it
compares each result with a float64 reference made of one-block
``block_topk`` calls of ``_BLOCK`` queries each, also timed. The exit code
is 1 when a peak exceeds its bound or a result differs from the reference
(ids unequal or similarities apart by more than a relative 1e-12), else
0. The relative error is taken against a row's scale ``‖q‖·max‖d‖``, the
bound on any of its similarities: a similarity near zero from cancelling
terms carries float64 rounding of that scale, not of itself.

``--ann`` instead measures the default ANN index's build, the initial graph
of ``dapplaec``. For each benchmark instance (seed 7, the benchmark's
affinity, the index over the state's packed rows as the solver builds it)
and for ``synth_rows(n, 32, 20, 0.1, seed=1)`` of ``tests/test_ann.py`` at n
in {20000, 50000, 100000}, it prints the median of three timed calls of
``ann_default_build`` plus ``self_knn(5)``, the ``tracemalloc`` peak of one
more such call, and its bound n·k·16 + ``_BLOCK``·n_anchor·8 +
2·n_anchor²·8 bytes: the (n, k) ids and similarities, one assignment block
and the anchor similarities with one block of their ranking. The exit code
is 1 when any peak exceeds its bound, else 0.

``--state`` instead checks the memory of the solver's workspace. For each
benchmark instance (seed 7, the benchmark's affinity) and for
``synth_rows(n, 32, 20, 0.1, seed=1)`` at n in {20000, 50000} under the
same affinity, it prints the ``tracemalloc`` peak of building
``ContractionState`` and its bound n·dim·8 + 42·n + 64 KiB bytes: one
float64 row per node under every affinity sign; the int64 ``order`` (n
entries), ``slot`` and forest ``parent`` (2·n − 1 each) and the forest's
boolean ``alive`` (2·n − 1), 42·n − 17 bytes in all; and 64 KiB for array
headers and the sign row. A second array of query rows would exceed it by
n·dim·8. The exit code is 1 when any peak exceeds its bound, else 0.

BLAS runs on the benchmark's thread count, as in ``tools/trace_digest.py``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
ROWS = (1, 2, 3, 4, 8, 512)
COLS = (40, 400, 1000, 8000)
KS = (2, 5)
KINDS = ("normal", "tied")
REPEATS = 5
BUILD_SEED = 7
BUILD_KS = (1, 5)
BUILD_REPEATS = 3
BUILD_SIZES = (20000, 50000)
ANN_K = 5
ANN_SIZES = (20000, 50000, 100000)
# Bytes a built ContractionState may hold beyond its rows and index arrays.
STATE_SLACK = 64 << 10


def per_call_us(cut, sims, ids, k) -> float:
    """Median over the repeats of the microseconds per call; each repeat
    makes a tenth of the calls that take ``autorange`` 0.2 s or more."""
    timer = timeit.Timer(lambda: cut(sims, ids, k))
    number = max(1, timer.autorange()[0] // 10)
    return sorted(timer.repeat(REPEATS, number))[REPEATS // 2] / number * 1e6


def build_states():
    """(label, state, whether to compare with the float64 reference) for
    every benchmark instance at ``BUILD_SEED``, fresh and after n/2 random
    contractions, and for the synthetic rows of ``BUILD_SIZES``."""
    import numpy as np

    from densemulticut.core import ContractionState, FeatureMatrix
    from solverbench import bench

    sys.path.insert(0, str(ROOT / "tests"))
    from test_ann import synth_rows

    for workload in bench.WORKLOADS.values():
        fm = workload.regime.instance(BUILD_SEED).with_affinity(bench.ALPHA, bench.SIGN)
        yield f"{workload.name} n {fm.n}", ContractionState(fm), True
        state = ContractionState(fm)
        rng = np.random.default_rng(BUILD_SEED)
        for _ in range(fm.n // 2):
            i, j = rng.choice(state.alive_ids(), size=2, replace=False)
            state.contract(int(i), int(j))
        yield f"{workload.name} merged n {state.n_alive}", state, True
    for n in BUILD_SIZES:
        rows = synth_rows(n, 32, 20, 0.1, seed=1).astype(np.float32)
        fm = FeatureMatrix(rows).with_affinity(bench.ALPHA, bench.SIGN)
        yield f"synth_rows n {n}", ContractionState(fm), False


def build_bound(state, nq: int, k: int, gathered: int) -> int:
    """The byte bound on one screened search's ``tracemalloc`` peak, from
    the module docstring; ``gathered`` is the most entries one block
    gathered."""
    from densemulticut import knn

    n, dim = state.n_alive, state.dim
    rows = min(knn._BLOCK, max(knn._SCREEN_FLOOR, knn._SCREEN_CELLS // n))
    return nq * k * 16 + n * dim * 4 + 2 * rows * n * 4 + nq * 32 + gathered * (16 * dim + 256)


def build_main() -> int:
    import tracemalloc

    import numpy as np

    from densemulticut import knn

    def median_s(run) -> float:
        return statistics.median(timeit.repeat(run, number=1, repeat=BUILD_REPEATS))

    def float64_blocks(state, queries, k):
        pos = state.slot[queries]
        n = state.n_alive
        parts = [
            knn.block_topk(
                state.packed[:n], pos[a : a + knn._BLOCK], state.order[:n], k, state.query_sign
            )
            for a in range(0, queries.size, knn._BLOCK)
        ]
        return np.concatenate([p.ids for p in parts]), np.concatenate([p.sims for p in parts])

    above = knn._above_threshold
    gathered: list[int] = []

    def counting(sims, k, slack=None):
        out = above(sims, k, slack)
        if slack is not None:
            gathered.append(out[0].size)
        return out

    print(
        f"_BLOCK = {knn._BLOCK}, _SCREEN_CELLS = {knn._SCREEN_CELLS}, "
        f"_SCREEN_FLOOR = {knn._SCREEN_FLOOR}, seed {BUILD_SEED}"
    )
    print(
        f"{'state':>28} {'k':>2} {'screened_s':>10} {'float64_s':>10} {'per_row':>8} "
        f"{'peak_mb':>8} {'bound_mb':>8} result"
    )
    failures = over = 0
    for label, state, reference in build_states():
        queries = state.alive_ids()
        for k in BUILD_KS:
            screened_s = median_s(lambda: knn.topk_batch(state, queries, k))
            gathered.clear()
            knn._above_threshold = counting
            tracemalloc.start()
            try:
                got = knn.topk_batch(state, queries, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                knn._above_threshold = above
            bound = build_bound(state, queries.size, k, max(gathered, default=0))
            over += peak > bound
            result = "within" if peak <= bound else "OVER"
            float64_s = "-"
            if reference:
                float64_s = f"{median_s(lambda: float64_blocks(state, queries, k)):.3f}"
                want_ids, want_sims = float64_blocks(state, queries, k)
                d = state.packed[: state.n_alive]
                q = d[state.slot[queries]]
                scale = np.sqrt(np.einsum("ij,ij->i", q, q) * np.einsum("ij,ij->i", d, d).max())
                ok = np.array_equal(got.ids, want_ids) and bool(
                    (np.abs(got.sims - want_sims) <= 1e-12 * scale[:, None]).all()
                )
                failures += not ok
                result += ", equal" if ok else ", DIFFERS"
            per_row = f"{sum(gathered) / queries.size:.2f}" if gathered else "fallback"
            print(
                f"{label:>28} {k:>2} {screened_s:>10.3f} {float64_s:>10} {per_row:>8} "
                f"{peak / 2**20:>8.2f} {bound / 2**20:>8.2f} {result}",
                flush=True,
            )
    print("every search equals the float64 reference" if not failures else f"{failures} differ")
    print("every peak is within its bound" if not over else f"{over} peaks over their bound")
    return 1 if failures or over else 0


def ann_rows():
    """(label, database rows, sign row) for every benchmark instance at
    ``BUILD_SEED`` and for the synthetic rows of ``ANN_SIZES``."""
    from densemulticut.core import ContractionState
    from solverbench import bench

    sys.path.insert(0, str(ROOT / "tests"))
    from test_ann import synth_rows

    for workload in bench.WORKLOADS.values():
        fm = workload.regime.instance(BUILD_SEED).with_affinity(bench.ALPHA, bench.SIGN)
        state = ContractionState(fm)
        yield f"{workload.name} n {fm.n}", state.packed, state.query_sign
    for n in ANN_SIZES:
        rows = synth_rows(n, 32, 20, 0.1, seed=1)
        yield f"synth_rows n {n}", rows, None


def ann_main() -> int:
    import tracemalloc

    import numpy as np

    from densemulticut import knn
    from densemulticut.ann import ann_default_build

    print(f"_BLOCK = {knn._BLOCK}, k = {ANN_K}, seed {BUILD_SEED}")
    print(f"{'rows':>28} {'anchors':>7} {'build_s':>8} {'peak_mb':>8} {'bound_mb':>8} result")
    over = 0
    for label, db, sign in ann_rows():
        def run():
            return ann_default_build(db, sign).self_knn(ANN_K)

        build_s = statistics.median(timeit.repeat(run, number=1, repeat=BUILD_REPEATS))
        tracemalloc.start()
        run()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        n = db.shape[0]
        n_anchor = min(n, max(8, int(4.0 * np.sqrt(n))))
        bound = n * ANN_K * 16 + knn._BLOCK * n_anchor * 8 + 2 * n_anchor**2 * 8
        over += peak > bound
        print(
            f"{label:>28} {n_anchor:>7} {build_s:>8.3f} {peak / 2**20:>8.2f} "
            f"{bound / 2**20:>8.2f} {'within' if peak <= bound else 'OVER'}",
            flush=True,
        )
    print("every peak is within its bound" if not over else f"{over} peaks over their bound")
    return 1 if over else 0


def state_main() -> int:
    import tracemalloc

    import numpy as np

    from densemulticut.core import ContractionState, FeatureMatrix
    from solverbench import bench

    sys.path.insert(0, str(ROOT / "tests"))
    from test_ann import synth_rows

    instances = [(w.name, w.regime.instance(BUILD_SEED)) for w in bench.WORKLOADS.values()]
    instances += [
        ("synth_rows", FeatureMatrix(synth_rows(n, 32, 20, 0.1, seed=1).astype(np.float32)))
        for n in BUILD_SIZES
    ]
    print(f"seed {BUILD_SEED}, sign {bench.SIGN.value}, slack {STATE_SLACK} bytes")
    print(f"{'instance':>28} {'dim':>4} {'rows_mb':>8} {'peak_mb':>8} {'bound_mb':>8} result")
    over = 0
    for name, fm in instances:
        label = f"{name} n {fm.n}"
        fm = fm.with_affinity(bench.ALPHA, bench.SIGN)
        tracemalloc.start()
        try:
            state = ContractionState(fm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, dim = fm.n, state.dim
        del state
        bound = n * dim * 8 + 42 * n + STATE_SLACK
        over += peak > bound
        print(
            f"{label:>28} {dim:>4} {n * dim * 8 / 2**20:>8.2f} {peak / 2**20:>8.2f} "
            f"{bound / 2**20:>8.2f} {'within' if peak <= bound else 'OVER'}",
            flush=True,
        )
    print("every peak is within its bound" if not over else f"{over} peaks over their bound")
    return 1 if over else 0


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--build", action="store_true",
                   help="time the graph builds' screened search instead of the cuts")
    p.add_argument("--ann", action="store_true",
                   help="time the ANN index build and check its memory peak instead")
    p.add_argument("--state", action="store_true",
                   help="check the memory peak of building the contraction state instead")
    args = p.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.build:
        return build_main()
    if args.ann:
        return ann_main()
    if args.state:
        return state_main()
    # numpy loads only after the BLAS thread count is pinned
    import numpy as np

    from densemulticut import knn

    few_entries = knn._FEW_ENTRIES

    def few_lexsort(sims, ids, k):
        knn._FEW_ENTRIES = 0
        try:
            return knn._select_few(sims, ids, k)
        finally:
            knn._FEW_ENTRIES = few_entries

    cuts = (knn._select_few, few_lexsort, knn._select_groups)
    rng = np.random.default_rng(0)
    print(f"_FEW_CELLS = {knn._FEW_CELLS}, _FEW_ENTRIES = {few_entries}")
    print(
        f"{'kind':>6} {'rows':>5} {'cols':>5} {'k':>2} {'gathered':>8} {'few_us':>10} "
        f"{'lexsort_us':>10} {'groups_us':>10} {'few/groups':>10} {'taken':>6}"
    )
    mismatches = 0
    for kind in KINDS:
        for r in ROWS:
            for c in COLS:
                if kind == "normal":
                    sims = rng.standard_normal((r, c))
                else:
                    sims = rng.integers(0, 2, size=(r, c)).astype(np.float64)
                sims[np.arange(r), rng.integers(0, c, size=r)] = -np.inf
                ids = rng.permutation(c)
                for k in KS:
                    kth = np.partition(sims, c - k, axis=1)[:, c - k]
                    gathered = int(np.count_nonzero(sims >= kth[:, None]))
                    first, *rest = (cut(sims, ids, k) for cut in cuts)
                    same = all(np.array_equal(a, b) for out in rest for a, b in zip(first, out))
                    mismatches += not same
                    few_us, lex_us, groups_us = (per_call_us(cut, sims, ids, k) for cut in cuts)
                    taken = (
                        "few" if k < c and (r == 1 or r * c <= knn._FEW_CELLS)
                        else "sorted" if k >= c // 8
                        else "groups"
                    )
                    print(
                        f"{kind:>6} {r:>5} {c:>5} {k:>2} {gathered:>8} {few_us:>10.1f} "
                        f"{lex_us:>10.1f} {groups_us:>10.1f} {few_us / groups_us:>10.2f} "
                        f"{taken:>6}{'' if same else '  MISMATCH'}",
                        flush=True,
                    )
    print("all cuts equal on every block" if not mismatches else f"{mismatches} blocks differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
