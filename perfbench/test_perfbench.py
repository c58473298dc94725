"""Tests of the benchmark's own logic: judging solves, spans, percentiles, names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

import reference
import run
import tracing
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ex1_result():
    from jsrelax import MatrixSet, RelaxConfig

    family = MatrixSet(tuple(workloads.example_arrays(workloads.EX1)))
    res = workloads.relax.run(family, RelaxConfig(node_count=3000, tol=1e-3))
    return res, reference.reference_bounds(workloads.example_arrays(workloads.EX1))


class TestJudge:
    def test_reference_brackets_example1(self, ex1_result):
        _, ref = ex1_result
        assert ref.lower == pytest.approx(1.389910663524, abs=1e-12)
        assert ref.lower < ref.upper < 1.42

    def test_converged_result_inside_reference_passes(self, ex1_result):
        res, ref = ex1_result
        outcome = workloads._relax_outcome(res)
        assert run.judge(outcome, None, ref) == (False, False)
        assert run.judge(outcome, outcome.fingerprint, ref) == (False, False)

    def test_rho_plus_below_reference_fails(self, ex1_result):
        res, ref = ex1_result
        doctored = dataclasses.replace(res, rho_hi=ref.lower * (1.0 - 1e-9))
        assert run.judge(workloads._relax_outcome(doctored), None, ref) == (True, True)

    def test_rho_minus_above_reference_fails(self, ex1_result):
        res, ref = ex1_result
        doctored = dataclasses.replace(res, rho_lo=ref.upper * (1.0 + 1e-9))
        assert run.judge(workloads._relax_outcome(doctored), None, ref) == (True, True)

    def test_max_iters_status_fails(self, ex1_result):
        res, ref = ex1_result
        doctored = dataclasses.replace(res, status="max_iters_reached")
        assert run.judge(workloads._relax_outcome(doctored), None, ref) == (True, False)

    def test_output_differing_from_first_repeat_fails(self, ex1_result):
        res, ref = ex1_result
        first = workloads._relax_outcome(res).fingerprint
        nudged = dataclasses.replace(res, rho_mid=res.rho_mid + 1e-15)
        assert run.judge(workloads._relax_outcome(nudged), first, ref) == (True, False)

    def test_rounding_margin_is_not_a_miss(self, ex1_result):
        _, ref = ex1_result
        assert not reference.contradicts(1.0, ref.lower * (1.0 - 1e-13), ref)
        assert reference.contradicts(1.0, float("nan"), ref)

    def test_ledger_counts_raised_solves_and_misses(self, ex1_result):
        res, ref = ex1_result
        bad = dataclasses.replace(res, rho_hi=ref.lower * 0.99)
        case = workloads.Case("ex1", workloads.example_arrays(workloads.EX1),
                              lambda: None, workloads._relax_outcome)
        ledger = run.Ledger([case], [ref])
        ledger.record(0, res, None)
        ledger.record(0, bad, None)
        ledger.record(0, None, "RuntimeError: boom")
        assert (ledger.attempted, ledger.failed) == (3, 2)
        assert ledger.failed_cases == {0}
        assert (ledger.relax_solves, ledger.misses) == (2, 1)


def _span(index, parent, start, end, name="x", solve=0):
    return tracing.Span(index, name, parent, solve, start=start, end=end)


class TestSpans:
    def test_self_time_subtracts_covered_part_of_children(self):
        spans = [
            _span(0, -1, 0.0, 10.0),
            _span(1, 0, 1.0, 3.0),
            _span(2, 1, 1.5, 2.5),   # grandchild: counts against span 1 only
            _span(3, 0, 2.0, 5.0),   # overlaps span 1: [1, 5] is covered once
            _span(4, 0, 6.0, 7.0),
            _span(5, 0, 9.5, 12.0),  # runs past its parent: only [9.5, 10] counts
        ]
        own = tracing.self_times(spans)
        assert own[0] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
        assert own[1] == pytest.approx(1.0)
        assert own[2] == pytest.approx(1.0)
        assert own[4] == pytest.approx(1.0)

    def test_tracer_records_nesting_and_restores_and_skips_missing(self):
        fake = types.ModuleType("perfbench_fake_layer")

        def inner(x):
            return x + 1

        def outer(x):
            return fake.inner(x) * 2

        fake.inner, fake.outer = inner, outer
        sys.modules[fake.__name__] = fake
        try:
            tracer = tracing.Tracer(hooks=(
                (fake.__name__, "outer", "relax.run", None, False),
                (fake.__name__, "inner", "relax.lr_step", None, False),
                (fake.__name__, "gone", "relax.mr_step", None, False),
            ))
            with tracer.installed():
                tracer.solve = 7
                assert fake.outer(1) == 4
            assert fake.outer is outer and fake.inner is inner
        finally:
            del sys.modules[fake.__name__]
        assert tracer.missing == [f"{fake.__name__}.gone"]
        run_span, step_span = sorted(tracer.spans, key=lambda s: s.index)
        assert (run_span.name, run_span.parent, run_span.solve) == ("relax.run", -1, 7)
        assert (step_span.name, step_span.parent) == ("relax.lr_step", run_span.index)
        assert run_span.start <= step_span.start <= step_span.end <= run_span.end
        metrics = tracing.layer_metrics(tracer.spans, tracer.hooked, 0.0)
        assert metrics["relax.iterations_per_solve_mean"] == 1.0
        assert metrics["relax.iterations_per_solve_max"] == 1.0

    def test_metrics_of_missing_hooks_are_absent_and_idle_layers_read_zero(self):
        spans = [_span(0, -1, 0.0, 1.0, "relax.run"), _span(1, 0, 0.1, 0.3, "relax.mr_step")]
        hooked = {"relax.run", "relax.mr_step", "io.write_norm"}
        metrics = tracing.layer_metrics(spans, hooked, 0.0)
        assert "relax.bounds_ms" not in metrics          # hook missing: absent
        assert "norms.combine_ms" not in metrics
        assert metrics["io.write_norm_ms"] == 0.0         # hooked but never called
        assert metrics["relax.step_ms"] == pytest.approx(200.0)
        assert metrics["relax.run_self_ms"] == pytest.approx(800.0)


class TestStatistics:
    def test_p90_needs_ten_samples_beyond_it(self):
        assert run.p90([float(i) for i in range(91)]) is None  # 9 beyond
        assert run.p90([float(i) for i in range(100)]) == pytest.approx(89.1)

    def test_p90_is_withheld_from_the_metrics(self):
        few = run.end_to_end([[0.01] * 50, [0.02] * 49], [0.2, 0.3, 0.25], 50.0)
        assert "solve_ms_p90" not in few
        assert few["setup_s"]["value"] == 0.25
        assert few["solve_ms_p50"]["value"] == pytest.approx(10.0)

    def test_p90_is_the_mean_over_windows_of_whole_passes(self):
        passes = [[0.001 * k * i for i in range(60)] for k in (1, 2, 3, 4)]
        passes.append([0.005 * i for i in range(30)])
        first, second = run.windows(passes)
        assert first == passes[0] + passes[1]
        assert second == passes[2] + passes[3] + passes[4]  # the short remainder joins it
        expected = (run.p90(first) + run.p90(second)) / 2
        assert run.windowed_p90(passes) == pytest.approx(expected)
        assert run.end_to_end(passes, [0.2], 1.0)["solve_ms_p90"]["value"] == \
            pytest.approx(1e3 * expected)
        assert run.windows([[0.1] * 30, [0.1] * 30]) == [[0.1] * 60]

    def test_solves_per_s_counts_solves_over_solving_time(self):
        passes = [[0.1, 0.3], [0.1, 0.3], [1.0, 0.2]]
        assert run.end_to_end(passes, [0.2], 1.0)["solves_per_s"]["value"] == pytest.approx(3.0)


class TestNames:
    def test_end_to_end_names_match_benchmark_json(self):
        declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]]
        assert declared == list(run.END_TO_END)
        metrics = run.end_to_end([[0.001 * (1 + i) for i in range(200)]], [0.2], 40.0)
        assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
        assert all(metrics[m["name"]]["unit"] == m["unit"] for m in BENCHMARK["end_to_end"])

    def test_per_layer_names_match_benchmark_json(self):
        declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
        assert declared == list(tracing.LAYER_METRICS)
        tracer = tracing.Tracer()
        tracer.hooked.update(name for _, _, name, _, _ in tracing.HOOKS)
        metrics = run.per_layer(tracer, [[0.01, 0.02]], [[0.011, 0.021]], [])
        assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
        assert all(metrics[m["name"]]["unit"] == m["unit"] for m in BENCHMARK["per_layer"])

    def test_workload_names_match_benchmark_json(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
        assert run.WORKLOADS == workloads.WORKLOADS


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.build("relax_family", 3, tmp_path)
    b = workloads.build("relax_family", 3, tmp_path)
    c = workloads.build("relax_family", 4, tmp_path)
    assert all((x.mats == y.mats).all() for x, y in zip(a, b))
    assert not (a[0].mats == c[0].mats).all()
    # a rotation keeps the spectral radius of every member
    base = workloads.corpus()[0]
    turned = workloads.rotated(base, 0.7)
    assert reference.reference_bounds(turned).lower == pytest.approx(
        reference.reference_bounds(base).lower, rel=1e-13)
