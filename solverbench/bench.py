"""Workloads, timed and traced runs, and metric assembly for the solver
benchmark. ``run.py`` is the command-line entry point.

Each workload solves one seeded instance with two solvers, the reference
solver ``ref`` and its cheaper variant ``alt``, alternating them in rounds
until the measuring time is used up. Every solve is checked; a solve that
raises or fails a check counts as failed.
"""

from __future__ import annotations

import heapq
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from densemulticut import AlphaSign, ContractionState, FeatureMatrix
from densemulticut import knn
from densemulticut.solvers import SolveResult, SolverConfig, solve

from . import checks
from .instances import Regime
from .spans import ROOT, LayerTracer, SpanRecorder

ALPHA = 0.4
SIGN = AlphaSign.MINUS
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 5
#: Size of the instance every solver runs once during set-up.
WARMUP_N = 400
#: Loop length of the calibration probe (about 60 ms on a 2-core x86-64 box).
PROBE_OPS = 30_000
#: Nodes whose initial neighbour lists are compared with exact top-k.
RECALL_SAMPLE = 200


@dataclass(frozen=True)
class Workload:
    name: str
    regime: Regime
    ref: str
    alt: str
    #: ``alt`` must reproduce ``ref`` merge for merge; otherwise its
    #: objective must stay within the approximation envelope.
    same_trace: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "clustered-greedy",
            Regime("clustered", n=2000, d=32, clusters=20, sigma=0.1),
            ref="dgaec",
            alt="dgaec-inc",
            same_trace=True,
        ),
        Workload(
            "clustered-lazy",
            Regime("clustered", n=4000, d=32, clusters=20, sigma=0.1),
            ref="dlaec",
            alt="dapplaec",
            same_trace=False,
        ),
        Workload(
            "diffuse-lazy",
            Regime("diffuse", n=8000, d=128),
            ref="dlaec",
            alt="dapplaec",
            same_trace=False,
        ),
    )
}

#: End-to-end metrics, reported by the untraced run: (name, unit).
END_TO_END = (
    ("ref.solve_rel", "probe"),
    ("alt.solve_rel", "probe"),
    ("ref.neg_objective", "cost"),
    ("alt.neg_objective", "cost"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: Per-layer metrics of one traced solve, reported for ``ref`` and ``alt``.
LAYER = (
    ("solve_s", "s"),
    ("trace_overhead_s", "s"),
    ("solvers.self_s", "s"),
    ("solvers.merges", "count"),
    ("solvers.rebuilds", "count"),
    ("core.state_init_s", "s"),
    ("core.contract_s", "s"),
    ("core.objective_s", "s"),
    ("core.labels_s", "s"),
    ("init.graph_s", "s"),
    ("init.recall_at_k", "ratio"),
    ("knn.build_graph_s", "s"),
    ("knn.build_graph_nodes", "count"),
    ("knn.topk_s", "s"),
    ("knn.topk_queries", "count"),
    ("knn.topk_gflops", "GFLOP/s"),
    ("knn.topk_peak_frac", "ratio"),
    ("knn.update_s", "s"),
    ("knn.update_self_s", "s"),
    ("knn.in_nbrs_per_merge", "count"),
    ("knn.searches_per_merge", "count"),
    ("knn.best_arc_s", "s"),
    ("knn.heap_pops", "count"),
    ("knn.heap_useful_frac", "ratio"),
    ("knn.heap_peak", "count"),
    ("knn.push_s", "s"),
    ("knn.arcs_pushed", "count"),
)
ROLES = ("ref", "alt")


def per_layer_metrics() -> list[tuple[str, str]]:
    return [(f"{role}.{name}", unit) for role in ROLES for name, unit in LAYER]


def config(algorithm: str) -> SolverConfig:
    return SolverConfig(algorithm=algorithm, alpha=ALPHA, alpha_sign=SIGN)


def calibration_probe() -> float:
    """Wall time of a fixed mix of the operations the solvers spend their
    time on: heap pushes and pops of tuples, dict-of-set updates, small
    matrix products and partial sorts. It exercises no ``densemulticut``
    code, so a change to the solvers cannot move it; only the machine's
    current speed does."""
    x = np.linspace(-1.0, 1.0, 2048 * 33).reshape(2048, 33)
    t0 = time.perf_counter()
    heap: list[tuple[float, int, int]] = []
    index: dict[int, set[int]] = {}
    for i in range(PROBE_OPS):
        heapq.heappush(heap, (float(i * 7919 % 10007), i, i + 1))
        index.setdefault(i % 1024, set()).add(i)
        if i % 200 == 0:
            sims = x[i % 2040 : i % 2040 + 8] @ x.T
            np.argpartition(-sims[0], 5)
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


@dataclass
class Trial:
    """One instance, the solves made on it, and their check outcomes."""

    workload: Workload
    fm: FeatureMatrix
    total: float
    attempted: int = 0
    failed: int = 0
    times: dict[str, list[float]] = field(default_factory=dict)
    traced_times: dict[str, list[float]] = field(default_factory=dict)
    #: untraced solve times in units of the adjacent calibration probes
    relative: dict[str, list[float]] = field(default_factory=dict)
    #: the probe that ran right after the last untraced solve, if no other
    #: solve ran since
    last_probe: float | None = None
    objectives: dict[str, list[float]] = field(default_factory=dict)
    ref_result: SolveResult | None = None

    def solve(self, role: str, tracer: LayerTracer | None = None):
        """Time one solve of the ``role`` solver, traced when ``tracer`` is
        given, check it, and return the result, or ``None`` when it raised
        or failed a check."""
        w = self.workload
        alg = getattr(w, role)
        cfg = config(alg)
        self.attempted += 1
        try:
            if tracer is None:
                before = self.last_probe or calibration_probe()
                t0 = time.perf_counter()
                result = solve(self.fm, cfg)
                elapsed = time.perf_counter() - t0
                self.last_probe = calibration_probe()
                probe = (before + self.last_probe) / 2
            else:
                self.last_probe = None
                rec = tracer.rec
                with tracer:
                    idx = rec.open(ROOT)
                    try:
                        result = solve(self.fm, cfg)
                    finally:
                        rec.close(idx)
                elapsed = rec.ends[idx] - rec.starts[idx]
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        problems = checks.check_solve(result, self.fm.n, self.total)
        objs = self.objectives.setdefault(role, [])
        objs.append(result.partition.objective)
        problems += checks.check_repeat(objs)
        if role == "ref" and self.ref_result is None:
            self.ref_result = result
        elif role == "alt" and self.ref_result is not None:
            if w.same_trace:
                problems += checks.check_same_trace(self.ref_result, result)
            else:
                problems += checks.check_envelope(
                    self.ref_result.partition.objective, result.partition.objective
                )
        if problems:
            for p in problems:
                print(f"check failed: {w.name} {alg}: {p}", file=sys.stderr)
            self.failed += 1
            return None
        if tracer is None:
            self.times.setdefault(role, []).append(elapsed)
            self.relative.setdefault(role, []).append(elapsed / probe)
        else:
            self.traced_times.setdefault(role, []).append(elapsed)
        return result


def setup(workload: Workload, seed: int) -> tuple[float, Trial]:
    """Make the instance and warm every solver up, ``SETUP_REPS`` times;
    returns the median set-up time and the trial."""
    samples = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        fm = workload.regime.instance(seed)
        total = checks.all_pairs_total(fm, ALPHA, SIGN)
        warm = workload.regime.resized(min(WARMUP_N, fm.n)).instance(seed)
        for alg in (workload.ref, workload.alt):
            solve(warm, config(alg))
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), Trial(workload, fm, total)


def _rounds(seconds: float, body) -> None:
    """Run ``body`` once, then again while another round, as long as the
    last one, still ends within ``seconds`` of the start."""
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        body()
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gemm_gflops(rows: int, cols: int, dim: int) -> float:
    """Throughput of a plain float64 product ``(rows x dim) @ (dim x cols)``,
    median over repeats that together take about 50 ms."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((rows, dim))
    b = rng.standard_normal((cols, dim))
    samples = []
    stop = time.perf_counter() + 0.05
    while time.perf_counter() < stop or len(samples) < 5:
        t0 = time.perf_counter()
        a @ b.T
        samples.append(time.perf_counter() - t0)
    return 2.0 * rows * cols * dim / statistics.median(samples) / 1e9


def recall_at_k(
    fm: FeatureMatrix, initial: dict[int, list[int]], k: int
) -> float:
    """Share of each sampled node's exact top-k found in its initial list."""
    state = ContractionState(fm.with_affinity(ALPHA, SIGN))
    hits = 0
    for q, got in initial.items():
        exact = {t for t, _ in knn.topk_exact(state, q, k)}
        hits += len(exact & set(got[:k]))
    return hits / (k * len(initial))


def layer_values(
    tracer: LayerTracer, result: SolveResult, fm: FeatureMatrix, k: int
) -> dict[str, float]:
    """Per-layer metrics of one traced solve (recall and GEMM timing are
    taken here, after the solve, outside every span)."""
    recorder = tracer.rec
    tot = recorder.totals()
    c = recorder.counters

    def total(name: str) -> float:
        return tot[name].total_s if name in tot else 0.0

    def calls(name: str) -> int:
        return tot[name].calls if name in tot else 0

    merges = len(result.trace)
    per_merge = max(merges, 1)
    topk_s = total("knn.topk")
    topk_calls = max(calls("knn.topk"), 1)
    gflops = c["knn.topk_flops"] / topk_s / 1e9 if topk_s > 0 else 0.0
    dim = fm.d + 1
    mean_alive = c["knn.topk_flops"] / (2.0 * dim * max(c["knn.topk_queries"], 1))
    mean_rows = min(512, max(1, round(c["knn.topk_queries"] / topk_calls)))
    peak = gemm_gflops(mean_rows, max(1, round(mean_alive)), dim)
    update_self = tot["knn.update"].self_s if "knn.update" in tot else 0.0
    if "ann.build" in tot:
        init_s = total("ann.build")
    else:
        init_s = recorder.durations("knn.build_graph")[0]
    pops = c["knn.heap_pops"]
    return {
        "solve_s": total(ROOT),
        "solvers.self_s": tot[ROOT].self_s,
        "solvers.merges": merges,
        "solvers.rebuilds": result.stats["rebuilds"],
        "core.state_init_s": total("core.state_init"),
        "core.contract_s": total("core.contract"),
        "core.objective_s": total("core.objective"),
        "core.labels_s": total("core.labels"),
        "init.graph_s": init_s,
        "init.recall_at_k": recall_at_k(fm, tracer.initial, k),
        "knn.build_graph_s": total("knn.build_graph"),
        "knn.build_graph_nodes": c["knn.build_graph_nodes"],
        "knn.topk_s": topk_s,
        "knn.topk_queries": c["knn.topk_queries"],
        "knn.topk_gflops": gflops,
        "knn.topk_peak_frac": gflops / peak,
        "knn.update_s": total("knn.update"),
        "knn.update_self_s": update_self,
        "knn.in_nbrs_per_merge": c["knn.in_nbrs"] / per_merge,
        "knn.searches_per_merge": c["knn.searches"] / per_merge,
        "knn.best_arc_s": total("knn.best_arc"),
        "knn.heap_pops": pops,
        "knn.heap_useful_frac": merges / pops if pops else 0.0,
        "knn.heap_peak": recorder.peaks["knn.heap_peak"],
        "knn.push_s": total("knn.push"),
        "knn.arcs_pushed": c["knn.arcs_pushed"],
    }


def layer_shares(recorder: SpanRecorder) -> dict[str, float]:
    """Self time of each span name as a share of the solve's wall time; the
    root span's self time is the solver loop's own, ``solvers.self``."""
    tot = recorder.totals()
    wall = tot[ROOT].total_s
    return {
        "solvers.self" if name == ROOT else name: t.self_s / wall
        for name, t in tot.items()
    }


def _log(line: str) -> None:
    print(line, flush=True)


def environment() -> dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _timed_metrics(trial: Trial, seconds: float) -> dict[str, float]:
    def timed_round() -> None:
        for role in ROLES:
            trial.solve(role)

    _rounds(seconds, timed_round)
    metrics = {"peak_rss_mb": peak_rss_mb()}
    for role in ROLES:
        times = trial.times.get(role)
        if not times:
            continue
        rel = trial.relative[role]
        metrics[f"{role}.solve_rel"] = statistics.median(rel)
        metrics[f"{role}.neg_objective"] = -trial.objectives[role][0]
        alg = getattr(trial.workload, role)
        for label, values, unit in (("wall time", times, "s"), ("solve_rel", rel, "probe")):
            q1, q3 = _quartiles(values)
            _log(
                f"{role} {alg} {label}: median {statistics.median(values):.4f} "
                f"q1 {q1:.4f} q3 {q3:.4f} {unit} over {len(values)} solves"
            )
    return metrics


def _traced_metrics(trial: Trial, seconds: float) -> dict[str, float]:
    n = trial.fm.n
    sample = np.unique(np.linspace(0, n - 1, min(RECALL_SAMPLE, n)).astype(np.int64))
    layers: dict[str, list[dict[str, float]]] = {role: [] for role in ROLES}
    shares: dict[str, dict[str, float]] = {}

    def traced_round() -> None:
        for role in ROLES:
            trial.solve(role)
            tracer = LayerTracer(SpanRecorder(), sample)
            result = trial.solve(role, tracer)
            if result is None:
                continue
            k = config(getattr(trial.workload, role)).resolved_k
            layers[role].append(layer_values(tracer, result, trial.fm, k))
            shares[role] = layer_shares(tracer.rec)

    _rounds(seconds, traced_round)
    metrics = {}
    for role in ROLES:
        if not layers[role]:
            continue
        for name, _ in LAYER:
            if name != "trace_overhead_s":
                metrics[f"{role}.{name}"] = statistics.median(v[name] for v in layers[role])
        if trial.times.get(role):
            metrics[f"{role}.trace_overhead_s"] = statistics.median(
                trial.traced_times[role]
            ) - statistics.median(trial.times[role])
        alg = getattr(trial.workload, role)
        _log(f"layer shares of {role} {alg} (self time / traced solve wall time):")
        for name, share in sorted(shares[role].items(), key=lambda kv: -kv[1]):
            _log(f"  {name:<18} {100 * share:6.2f}%")
    return metrics


def run(
    workload: Workload, seed: int, seconds: float, trace: bool, import_s: float = 0.0
) -> dict:
    """One benchmark run; returns the result object ``run.py`` prints.

    ``import_s`` is the caller's import time, counted into ``setup_s``.
    """
    setup_s, trial = setup(workload, seed)
    _log(f"env {environment()}")
    _log(f"setup: imports {import_s:.4f} s, instance and warm-up {setup_s:.4f} s")
    _log(
        f"workload {workload.name} seed {seed}: n={trial.fm.n} d={trial.fm.d} "
        f"ref={workload.ref} alt={workload.alt}"
    )
    if trace:
        metrics = _traced_metrics(trial, seconds)
        units = dict(per_layer_metrics())
    else:
        metrics = _timed_metrics(trial, seconds)
        metrics["setup_s"] = import_s + setup_s
        units = dict(END_TO_END)
    for name, value in metrics.items():
        _log(f"metric {name} = {value:.6g} {units[name]}")
    return {
        "correct": trial.failed == 0 and len(metrics) == len(units),
        "attempted": trial.attempted,
        "failed": trial.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
