"""Tests of the solver benchmark itself: checks, span arithmetic, the
instance generator, and a tiny-n smoke run of every workload."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from densemulticut import Partition, solvers
from densemulticut.solvers import MergeStep, SolveResult, solve

from solverbench import bench, checks
from solverbench.instances import Regime, simplex_centres
from solverbench.spans import LayerTracer, SpanRecorder, self_times

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def solved():
    fm = Regime("clustered", n=80, d=8, clusters=4, sigma=0.1).instance(5)
    result = solve(fm, bench.config("dgaec"))
    return fm, result, checks.all_pairs_total(fm, bench.ALPHA, bench.SIGN)


def _with(result, trace=None, objective=None):
    part = result.partition
    if objective is not None:
        part = Partition(part.labels, part.n_clusters, objective)
    return SolveResult(part, result.trace if trace is None else trace, result.stats)


class TestChecks:
    def test_accepts_a_real_solve(self, solved):
        fm, result, total = solved
        assert checks.check_solve(result, fm.n, total) == []

    def test_rejects_tampered_objective(self, solved):
        fm, result, total = solved
        bad = _with(result, objective=result.partition.objective * (1 + 1e-6))
        assert any("objective" in p for p in checks.check_solve(bad, fm.n, total))

    def test_rejects_negative_merge(self, solved):
        fm, result, total = solved
        first = result.trace[0]
        trace = [first._replace(similarity=-first.similarity)] + result.trace[1:]
        problems = checks.check_solve(_with(result, trace=trace), fm.n, total)
        assert any("negative" in p for p in problems)

    def test_rejects_cluster_count_mismatch(self, solved):
        fm, result, total = solved
        problems = checks.check_solve(_with(result, trace=result.trace[:-1]), fm.n, total)
        assert any("n_clusters" in p for p in problems)

    def test_pair_checks(self, solved):
        _, result, _ = solved
        assert checks.check_same_trace(result, result) == []
        swapped = [MergeStep(s.j, s.i, s.m, s.similarity) for s in result.trace]
        assert checks.check_same_trace(result, _with(result, trace=swapped))
        assert checks.check_envelope(-100.0, -98.5) == []
        assert checks.check_envelope(-100.0, -97.0)
        assert checks.check_repeat([1.5, 1.5]) == []
        assert checks.check_repeat([1.5, 1.5 + 1e-12])


class TestSpans:
    def test_self_time_on_hand_built_tree(self):
        # solve [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
        clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
        rec = SpanRecorder(clock=lambda: next(clock))
        root = rec.open("solve")
        a = rec.open("a")
        b = rec.open("b")
        rec.close(b)
        rec.close(a)
        c = rec.open("a")
        rec.close(c)
        rec.close(root)
        assert rec.parents == [-1, 0, 1, 0]
        tot = rec.totals()
        assert tot["solve"] == (1, 10.0, 3.0)
        assert tot["a"] == (2, 7.0, 6.0)
        assert tot["b"] == (1, 1.0, 1.0)

    def test_self_times_function(self):
        start = np.array([0.0, 1.0, 2.0])
        end = np.array([5.0, 4.0, 3.0])
        parent = np.array([-1, 0, 1])
        assert self_times(start, end, parent).tolist() == [2.0, 2.0, 1.0]

    def test_out_of_order_close_is_refused(self):
        rec = SpanRecorder()
        outer = rec.open("outer")
        rec.open("inner")
        with pytest.raises(RuntimeError):
            rec.close(outer)

    def test_tracer_restores_every_binding(self, solved):
        fm, result, _ = solved
        before = solvers.build_nn_graph
        rec = SpanRecorder()
        tracer = LayerTracer(rec, np.arange(3))
        with tracer:
            assert solvers.build_nn_graph is not before
            traced = solve(fm, bench.config("dgaec"))
        assert solvers.build_nn_graph is before
        assert [s.i for s in traced.trace] == [s.i for s in result.trace]
        assert tracer.initial is not None and set(tracer.initial) == {0, 1, 2}
        assert rec.totals()["core.objective"].calls == 1


class TestInstances:
    @pytest.mark.parametrize("family", ["clustered", "diffuse"])
    def test_deterministic_under_seed(self, family):
        regime = Regime(family, n=50, d=24, clusters=5, sigma=0.1)
        a, b, c = regime.rows(11), regime.rows(11), regime.rows(12)
        assert a.dtype == np.float32 and a.shape == (50, 24)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-6)

    def test_simplex_centres(self):
        c = simplex_centres(5, 8, np.random.default_rng(0))
        gram = c @ c.T
        assert np.allclose(np.diag(gram), 1.0)
        assert np.allclose(gram[~np.eye(5, dtype=bool)], -1.0 / 4)


class TestRun:
    @pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
    @pytest.mark.parametrize("trace", [False, True])
    def test_tiny_smoke_run(self, name, trace):
        w = bench.WORKLOADS[name]
        tiny = dataclasses.replace(w, regime=w.regime.resized(120))
        out = bench.run(tiny, seed=3, seconds=0, trace=trace)
        expected = bench.per_layer_metrics() if trace else bench.END_TO_END
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
        assert {k: v["unit"] for k, v in out["metrics"].items()} == dict(expected)
        json.dumps(out, allow_nan=False)

    def test_benchmark_json_matches_the_runner(self):
        assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
        assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
        assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == bench.per_layer_metrics()
