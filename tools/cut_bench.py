"""Time the two exact top-k cuts of ``knn.select_rows`` over a fixed grid of
block shapes, the evidence for its size rule ``_FEW_CELLS`` and for the
partition cut's ranking limit ``_FEW_ENTRIES``.

Usage, from the repository root::

    python3 tools/cut_bench.py

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

BLAS runs on the benchmark's thread count, as in ``tools/trace_digest.py``.
"""

from __future__ import annotations

import os
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


def per_call_us(cut, sims, ids, k) -> float:
    """Median over the repeats of the microseconds per call; each repeat
    makes a tenth of the calls that take ``autorange`` 0.2 s or more."""
    timer = timeit.Timer(lambda: cut(sims, ids, k))
    number = max(1, timer.autorange()[0] // 10)
    return sorted(timer.repeat(REPEATS, number))[REPEATS // 2] / number * 1e6


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
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
                    taken = "few" if r * c <= knn._FEW_CELLS else "groups"
                    print(
                        f"{kind:>6} {r:>5} {c:>5} {k:>2} {gathered:>8} {few_us:>10.1f} "
                        f"{lex_us:>10.1f} {groups_us:>10.1f} {few_us / groups_us:>10.2f} "
                        f"{taken:>6}{'' if same else '  MISMATCH'}",
                        flush=True,
                    )
    print("all cuts equal on every block" if not mismatches else f"{mismatches} blocks differ")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
