"""Run one solver-benchmark workload and print its result as JSON.

Usage, from the repository root::

    python3 solverbench/run.py --workload clustered-greedy --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` times the solves untraced and reports the end-to-end
metrics; ``--trace 1`` also runs traced solves and reports the per-layer
metrics. Human-readable lines come first; the last line of standard output
is one JSON object. The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: BLAS threads; the benchmark box has two cores.
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "densemulticut" / "__init__.py").is_file():
        print(f"densemulticut sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    t0 = time.perf_counter()
    from solverbench import bench

    import_s = time.perf_counter() - t0
    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result = bench.run(workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
