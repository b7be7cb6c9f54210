"""Print digests of dense-solver merge traces, to show that a change keeps
them.

Usage, from the repository root::

    python3 tools/trace_digest.py --seeds 1 2 3 --save ref.json
    python3 tools/trace_digest.py --seeds 1 2 3 --against ref.json
    python3 tools/trace_digest.py --suite --against suite.json
    python3 tools/trace_digest.py --ties 0 3000

The default mode solves the three benchmark instances (the workloads of
``solverbench/bench.py``, built from each seed) with the four dense solvers
under the benchmark's solver settings. ``--suite`` instead solves the 100
``clustered_instance``\\ s of the test suite with ``dgaec``,
``dgaec-inc``, ``dlaec`` and ``dapplaec``, the last once seeded from an
``ExactIndex`` and once from the default index, and with ``dgaec`` at
k = 3 as well: at its default k = 1 a row's only arc is always the one a
merge drops, so a row is either given the merged node or searched, while
at k = 3 rows that lose two arcs, or one arc to a merged node below
their floor, keep what survives.

``--ties START STOP`` checks exactness under similarity ties instead: for
every seed in ``range(START, STOP)`` it draws small integer features
(:func:`tie_instance`), solves them with ``gaec`` and with ``dgaec`` and
``dgaec-inc`` at k = 1 to 5, and prints the number of runs and every
(seed, solver, k) whose merge trace differs from ``gaec``'s. The exit code
is 1 when any differs.

Each solve prints one line with short digests of its merge pairs
``(i, j, m)``, its labels, its objective's bits and its similarities' bits.
``--save`` writes every solve's full record to a JSON file; ``--against``
reads such a file and adds, per solve, whether the pairs, the labels and
the objective bits equal it, how many steps' similarity bits differ and
the largest absolute difference; for a solve whose pairs differ it also
prints the first differing step, its index and both ``(i, j, m, sim)``
records. The exit code is 1 when any pairs, labels or objective differ
from the reference, else 0.

BLAS runs on the benchmark's thread count, so a similarity's bits do not
depend on the machine's core count beyond it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
DENSE = ("dgaec", "dgaec-inc", "dlaec", "dapplaec")
SUITE_SIZE = 100


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def record(result) -> dict:
    """Everything the comparison needs from one solve."""
    # numpy loads only after main() has pinned the BLAS thread count
    import numpy as np

    pairs = np.array([(s.i, s.j, s.m) for s in result.trace], dtype=np.int64)
    sims = np.array([s.similarity for s in result.trace], dtype=np.float64)
    return {
        "steps": len(result.trace),
        "pairs": _digest(pairs.tobytes()),
        "pair_list": pairs.tolist(),
        "labels": _digest(np.asarray(result.labels, dtype=np.int64).tobytes()),
        "objective": float(result.partition.objective).hex(),
        "sim_digest": _digest(sims.tobytes()),
        "sims": sims.tolist(),
    }


def bench_solves(seeds: list[int]):
    """(key, solve thunk) for every dense solver on every benchmark instance."""
    from solverbench import bench
    from densemulticut.solvers import solve

    for seed in seeds:
        for workload in bench.WORKLOADS.values():
            fm = workload.regime.instance(seed)
            for alg in DENSE:
                key = f"{alg} {workload.name} seed {seed}"
                yield key, (lambda fm=fm, alg=alg: solve(fm, bench.config(alg)))


def suite_solves():
    """(key, solve thunk) for the test suite's clustered instances: ``dgaec``,
    ``dgaec-inc`` and ``dlaec``, ``dgaec`` at k = 3, then ``dapplaec``
    through an ``ExactIndex`` and through the default index."""
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import clustered_instance
    from densemulticut.ann import ExactIndex
    from densemulticut.solvers import SolverConfig, dense_app_laec, solve

    def exact(db, sign, params, seed):
        return ExactIndex(db, sign)

    for idx in range(SUITE_SIZE):
        fm, sign = clustered_instance(idx)
        for alg in ("dgaec", "dgaec-inc", "dlaec"):
            cfg = SolverConfig(algorithm=alg, alpha=0.4, alpha_sign=sign)
            yield f"{alg} instance {idx}", (lambda fm=fm, cfg=cfg: solve(fm, cfg))
        cfg = SolverConfig(algorithm="dgaec", k=3, alpha=0.4, alpha_sign=sign)
        yield f"dgaec k 3 instance {idx}", (lambda fm=fm, cfg=cfg: solve(fm, cfg))
        cfg = SolverConfig(algorithm="dapplaec", alpha=0.4, alpha_sign=sign)
        for name, factory in (("exact-index", exact), ("default-index", None)):
            key = f"dapplaec {name} instance {idx}"
            yield key, (
                lambda fm=fm, cfg=cfg, factory=factory: dense_app_laec(
                    fm, cfg, index_factory=factory
                )
            )


def tie_instance(seed: int):
    """Integer features in ``[-r, r]``, ``r`` 2 or 3 by the seed's parity,
    for 2 to 40 nodes in 1 to 3 dimensions, and an affinity sign by the
    seed; every similarity is exact, so ties are common."""
    import numpy as np
    from densemulticut.core import AlphaSign, FeatureMatrix

    rng = np.random.default_rng(seed)
    n, d = rng.integers(2, 41), rng.integers(1, 4)
    r = 2 + seed % 2
    fm = FeatureMatrix(rng.integers(-r, r + 1, (n, d)).astype(np.float32))
    return fm, list(AlphaSign)[seed % 3]


def tie_sweep(start: int, stop: int) -> int:
    """Compare ``dgaec`` and ``dgaec-inc`` at k = 1 to 5 with ``gaec`` on
    the tie instances of ``range(start, stop)``; returns the exit code."""
    from densemulticut.solvers import SolverConfig, solve

    def trace(fm, sign, alg, k=None):
        cfg = SolverConfig(algorithm=alg, k=k, alpha=0.5, alpha_sign=sign)
        return [(s.i, s.j, s.m, s.similarity) for s in solve(fm, cfg).trace]

    runs = 0
    differ = []
    for seed in range(start, stop):
        fm, sign = tie_instance(seed)
        want = trace(fm, sign, "gaec")
        for alg in ("dgaec", "dgaec-inc"):
            for k in range(1, 6):
                runs += 1
                if trace(fm, sign, alg, k) != want:
                    differ.append((seed, alg, k))
                    print(f"seed {seed} {alg} k {k}: trace differs from gaec", flush=True)
    print(f"{runs} runs over seeds {start} to {stop - 1}: {len(differ)} differ from gaec")
    return 1 if differ else 0


def compare(got: dict, ref: dict) -> tuple[bool, str]:
    """Whether pairs, labels and objective equal the reference, and a note
    on the similarity bits."""
    same = {f: got[f] == ref[f] for f in ("pairs", "labels", "objective")}
    note = " ".join(f"{f} {'same' if ok else 'DIFF'}" for f, ok in same.items())
    if got["steps"] != ref["steps"]:
        note += f" steps {ref['steps']} -> {got['steps']}"
    else:
        a = got["sims"]
        b = ref["sims"]
        moved = [abs(x - y) for x, y in zip(a, b) if x != y]
        note += f" sim_moves {len(moved)}/{len(a)} max_abs {max(moved, default=0.0):.3g}"
    if not same["pairs"]:
        note += first_difference(got, ref)
    return all(same.values()), note


def first_difference(got: dict, ref: dict) -> str:
    """The first step whose pair differs from the reference, as both
    ``(i, j, m, sim)`` records."""
    steps = zip(got["pair_list"], got["sims"], ref["pair_list"], ref["sims"])
    for step, (p, s, q, t) in enumerate(steps):
        if p != q:
            return f" first diff at step {step}: ref {(*q, t)!r} got {(*p, s)!r}"
    return ""


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--suite", action="store_true",
                   help="solve the test suite's clustered instances with dgaec "
                   "(k 1 and 3), dgaec-inc, dlaec and dapplaec")
    p.add_argument("--ties", type=int, nargs=2, metavar=("START", "STOP"),
                   help="compare dgaec and dgaec-inc at k 1 to 5 with gaec on "
                   "the tied integer instances of these seeds")
    p.add_argument("--save", type=Path, help="write the full records to this JSON file")
    p.add_argument("--against", type=Path, help="compare with records saved by --save")
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.ties:
        return tie_sweep(*args.ties)
    reference = json.loads(args.against.read_text()) if args.against else {}
    solves = suite_solves() if args.suite else bench_solves(args.seeds)
    records = {}
    mismatches = moved_solves = 0
    for key, run in solves:
        rec = record(run())
        records[key] = rec
        line = (
            f"{key}: steps {rec['steps']} pairs {rec['pairs']} labels {rec['labels']} "
            f"objective {rec['objective']} sims {rec['sim_digest']}"
        )
        if args.against:
            ref = reference.get(key)
            if ref is None:
                ok, note = False, "missing from the reference"
            else:
                ok, note = compare(rec, ref)
                moved_solves += rec["sim_digest"] != ref["sim_digest"]
            mismatches += not ok
            line += f" | {note}"
        print(line, flush=True)
    if args.save:
        args.save.write_text(json.dumps(records))
    if args.against:
        print(
            f"{len(records)} solves: {len(records) - mismatches} with pairs, labels "
            f"and objective equal to the reference; similarity bits moved in "
            f"{moved_solves}"
        )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
