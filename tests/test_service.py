"""Tests for the parallel cached compilation service (repro.service)."""

from __future__ import annotations

import dataclasses
import time
from types import SimpleNamespace

import pytest

from repro.baselines.coyote import CoyoteCompiler
from repro.baselines.greedy_trs import GreedyChehabCompiler
from repro.compiler.circuit import CircuitProgram, InputSlot, Opcode
from repro.compiler.pipeline import Compiler, CompilerOptions
from repro.core.cost import CostModel, CostWeights
from repro.experiments.harness import BenchmarkRunner
from repro.fhe.params import BFVParameters
from repro.ir.parser import parse
from repro.kernels.registry import benchmark_suite, small_benchmark_suite
from repro.service import (
    BatchReport,
    CompilationCache,
    CompilationJob,
    CompilationService,
    cache_key,
    compiler_fingerprint,
    makespan,
    partition_jobs,
)

FAST_GREEDY = CompilerOptions(optimizer="greedy", max_rewrite_steps=3)


def _jobs(suite):
    return [CompilationJob(expr=b.expression(), name=b.name) for b in suite]


# ---------------------------------------------------------------------------
# cache semantics
# ---------------------------------------------------------------------------
class TestCacheSemantics:
    def test_miss_then_hit(self):
        service = CompilationService(options=FAST_GREEDY)
        expr = parse("(+ (* a b) c)")
        service.compile_expression(expr, name="one")
        assert service.cache.stats.misses == 1 and service.cache.stats.hits == 0
        report = service.compile_expression(expr, name="one")
        assert service.cache.stats.hits == 1
        assert report.name == "one"

    def test_structurally_equal_expressions_share_an_entry(self):
        service = CompilationService(options=FAST_GREEDY)
        service.compile_expression(parse("(+ a b)"))
        service.compile_expression(parse("(+ a b)"))
        assert service.cache.stats.hits == 1

    def test_different_expression_misses(self):
        service = CompilationService(options=FAST_GREEDY)
        service.compile_expression(parse("(+ a b)"))
        service.compile_expression(parse("(+ a c)"))
        assert service.cache.stats.hits == 0
        assert service.cache.stats.misses == 2

    def test_cached_report_is_renamed_per_job(self):
        service = CompilationService(options=FAST_GREEDY)
        expr = parse("(* (+ a b) c)")
        first = service.compile_expression(expr, name="alpha")
        second = service.compile_expression(expr, name="beta")
        assert first.name == "alpha" and second.name == "beta"
        assert second.circuit.name == "beta"
        assert first.stats == second.stats

    def test_lru_eviction(self):
        cache = CompilationCache(capacity=2)
        service = CompilationService(options=FAST_GREEDY, cache=cache)
        a, b, c = parse("(+ a b)"), parse("(+ a c)"), parse("(+ a d)")
        service.compile_expression(a)
        service.compile_expression(b)
        service.compile_expression(c)  # evicts a
        assert cache.stats.evictions == 1
        service.compile_expression(a)  # miss again
        assert cache.stats.misses == 4

    def test_disk_tier_survives_a_new_cache_instance(self, tmp_path):
        directory = str(tmp_path / "compile-cache")
        expr = parse("(VecAdd (Vec a b) (Vec c d))")
        cold = CompilationService(
            options=FAST_GREEDY, cache=CompilationCache(directory=directory)
        )
        report = cold.compile_expression(expr, name="k")
        warm = CompilationService(
            options=FAST_GREEDY, cache=CompilationCache(directory=directory)
        )
        cached = warm.compile_expression(expr, name="k")
        assert warm.cache.stats.disk_hits == 1
        assert cached.stats == report.stats

    def test_unstable_fingerprints_stay_out_of_the_disk_tier(self, tmp_path):
        class OpaqueOptimizer:
            def optimize(self, expr):
                raise AssertionError("not exercised")

        directory = str(tmp_path / "compile-cache")
        compiler = Compiler(CompilerOptions(optimizer="none"))
        service = CompilationService(
            Compiler(CompilerOptions(optimizer=OpaqueOptimizer())),
            cache=CompilationCache(directory=directory),
        )
        _, stable = compiler_fingerprint(service.compiler)
        assert not stable
        del compiler


# ---------------------------------------------------------------------------
# cache-key sensitivity to the compiler configuration
# ---------------------------------------------------------------------------
class TestCacheKeySensitivity:
    BASE = CompilerOptions()

    @pytest.mark.parametrize(
        "variant",
        [
            CompilerOptions(optimizer="none"),
            CompilerOptions(optimizer="beam"),
            CompilerOptions(cost_model=CostModel(weights=CostWeights(ops=1, depth=50, mult_depth=50))),
            CompilerOptions(layout_before_encryption=False),
            CompilerOptions(select_rotation_keys=True),
            CompilerOptions(rotation_key_budget=4),
            CompilerOptions(params=BFVParameters(poly_modulus_degree=8192, plain_modulus=786433, coeff_modulus_bits=389)),
            CompilerOptions(max_rewrite_steps=10),
        ],
        ids=[
            "optimizer-none",
            "optimizer-beam",
            "cost_model",
            "layout_before_encryption",
            "select_rotation_keys",
            "rotation_key_budget",
            "params",
            "max_rewrite_steps",
        ],
    )
    def test_every_options_field_changes_the_key(self, variant):
        expr = parse("(+ a b)")
        base_print, base_stable = compiler_fingerprint(Compiler(self.BASE))
        variant_print, variant_stable = compiler_fingerprint(Compiler(variant))
        assert base_stable and variant_stable
        assert base_print != variant_print
        assert cache_key(expr, base_print) != cache_key(expr, variant_print)

    def test_equal_options_share_a_fingerprint(self):
        first, _ = compiler_fingerprint(Compiler(CompilerOptions()))
        second, _ = compiler_fingerprint(Compiler(CompilerOptions()))
        assert first == second

    def test_wrapper_compilers_fingerprint_their_inner_pipeline(self):
        wrapped, stable = compiler_fingerprint(GreedyChehabCompiler())
        assert stable and wrapped.startswith("Compiler(")

    def test_coyote_fingerprints_its_options(self):
        fingerprint, stable = compiler_fingerprint(CoyoteCompiler())
        assert stable and fingerprint.startswith("CoyoteCompiler(")

    def test_no_cross_configuration_hits(self):
        cache = CompilationCache()
        expr = parse("(* a b)")
        greedy = CompilationService(options=CompilerOptions(optimizer="greedy"), cache=cache)
        none = CompilationService(options=CompilerOptions(optimizer="none"), cache=cache)
        greedy.compile_expression(expr)
        none.compile_expression(expr)
        assert cache.stats.hits == 0 and cache.stats.misses == 2


# ---------------------------------------------------------------------------
# cost-aware scheduling
# ---------------------------------------------------------------------------
class TestScheduler:
    def test_largest_first_balances_loads(self):
        plans = partition_jobs([8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0], workers=2)
        loads = sorted(plan.load for plan in plans)
        assert sum(loads) == pytest.approx(36.0)
        assert loads[1] == pytest.approx(18.0)  # perfect split for this instance

    def test_one_heavy_job_does_not_drag_peers(self):
        # Round-robin would pair the heavy job with others; LPT isolates it.
        plans = partition_jobs([100.0, 1.0, 1.0, 1.0], workers=2)
        assert makespan(plans) == pytest.approx(100.0)

    def test_deterministic_partition(self):
        weights = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        first = partition_jobs(weights, workers=3)
        second = partition_jobs(weights, workers=3)
        assert [plan.job_indices for plan in first] == [plan.job_indices for plan in second]

    def test_fewer_jobs_than_workers(self):
        plans = partition_jobs([2.0], workers=4)
        assert sum(len(plan.job_indices) for plan in plans) == 1


# ---------------------------------------------------------------------------
# parallel vs serial equivalence and fallbacks
# ---------------------------------------------------------------------------
class TestParallelCompilation:
    def test_parallel_matches_serial_on_the_full_benchmark_suite(self):
        jobs = _jobs(benchmark_suite())
        serial = CompilationService(options=FAST_GREEDY, workers=1, cache=CompilationCache())
        parallel = CompilationService(options=FAST_GREEDY, workers=2, cache=CompilationCache())
        serial_batch = serial.compile_batch(jobs)
        parallel_batch = parallel.compile_batch(jobs)
        assert parallel_batch.serial_fallback_reason is None
        assert len(parallel_batch.reports) == len(jobs)
        for serial_report, parallel_report in zip(serial_batch.reports, parallel_batch.reports):
            assert serial_report.name == parallel_report.name
            assert serial_report.stats.as_dict() == parallel_report.stats.as_dict()
            assert serial_report.optimized_expr == parallel_report.optimized_expr
            assert serial_report.final_cost == parallel_report.final_cost
        used_workers = {
            record.worker for record in parallel_batch.records if not record.cache_hit
        }
        assert len(used_workers) > 1

    def test_unpicklable_compiler_falls_back_to_serial(self):
        class UnpicklableOptimizer:
            def __init__(self):
                self.blocker = lambda expr: expr  # lambdas do not pickle

            def optimize(self, expr):
                from repro.trs.rewriter import RewriteResult

                return RewriteResult(
                    initial=expr, optimized=expr, steps=[], initial_cost=0.0, final_cost=0.0
                )

        service = CompilationService(
            Compiler(CompilerOptions(optimizer=UnpicklableOptimizer())), workers=2
        )
        batch = service.compile_batch(_jobs(small_benchmark_suite()[:3]))
        assert batch.serial_fallback_reason is not None
        assert len(batch.reports) == 3

    def test_duplicate_expressions_in_one_batch_compile_once(self):
        service = CompilationService(options=FAST_GREEDY)
        expr = parse("(+ (* a b) (* c d))")
        batch = service.compile_batch(
            [CompilationJob(expr=expr, name="first"), CompilationJob(expr=expr, name="second")]
        )
        assert [report.name for report in batch.reports] == ["first", "second"]
        assert batch.reports[0].stats == batch.reports[1].stats
        # One real compilation; the duplicate is fanned out, not recompiled,
        # and is reported as a dedup, not as a (cold-cache) hit.
        assert service.cache.stats.stores == 1
        assert batch.cache_hits == 0
        assert [record.deduplicated for record in batch.records] == [False, True]

    def test_batch_report_accounting(self):
        service = CompilationService(options=FAST_GREEDY)
        jobs = _jobs(small_benchmark_suite()[:4])
        batch = service.compile_batch(jobs)
        assert isinstance(batch, BatchReport)
        assert [record.name for record in batch.records] == [job.name for job in jobs]
        assert all(record.estimated_cost > 0 for record in batch.records)
        assert batch.cache_hits == 0
        rerun = service.compile_batch(jobs)
        assert rerun.cache_hits == len(jobs)
        assert all(record.worker == -1 for record in rerun.records)


# ---------------------------------------------------------------------------
# warm-cache speedup (the headline acceptance criterion)
# ---------------------------------------------------------------------------
class TestWarmCacheSpeedup:
    def test_warm_suite_compilation_is_at_least_5x_faster(self):
        service = CompilationService(options=FAST_GREEDY)
        jobs = _jobs(small_benchmark_suite())
        start = time.perf_counter()
        cold = service.compile_batch(jobs)
        cold_wall = time.perf_counter() - start
        start = time.perf_counter()
        warm = service.compile_batch(jobs)
        warm_wall = time.perf_counter() - start
        assert cold.cache_hits == 0
        assert warm.cache_hits == len(jobs)
        assert [r.stats for r in warm.reports] == [r.stats for r in cold.reports]
        assert cold_wall >= 5 * warm_wall, (
            f"warm run not >=5x faster: cold {cold_wall:.3f}s, warm {warm_wall:.3f}s"
        )


# ---------------------------------------------------------------------------
# harness integration
# ---------------------------------------------------------------------------
class TestHarnessIntegration:
    def test_runner_routes_compilation_through_the_shared_cache(self):
        cache = CompilationCache()
        suite = small_benchmark_suite()[:3]
        runner = BenchmarkRunner(
            {"greedy": GreedyChehabCompiler(max_rewrite_steps=3)}, cache=cache
        )
        first = runner.run(suite)
        assert cache.stats.misses == len(suite) and cache.stats.hits == 0
        second = runner.run(suite)
        assert cache.stats.hits == len(suite)
        assert [r.as_dict() for r in first] == [r.as_dict() for r in second]
        assert runner.last_batch_reports["greedy"].cache_hits == len(suite)
        assert all(result.correct for result in first)

    def test_multi_output_circuits_are_verified_by_declared_name(self):
        # A two-output circuit: out "first" carries input x, out "second"
        # carries input y.  Correctness must compare the concatenation of the
        # declared outputs, not an arbitrary dict entry.
        circuit = CircuitProgram(name="two_output", scalar_inputs=["x", "y"])
        rx = circuit.emit(Opcode.LOAD_INPUT, layout=[InputSlot(name="x")])
        ry = circuit.emit(Opcode.LOAD_INPUT, layout=[InputSlot(name="y")])
        circuit.mark_output(rx, "first", 1)
        circuit.mark_output(ry, "second", 1)
        report = SimpleNamespace(
            circuit=circuit, compile_time_s=0.0, final_cost=0.0, stats=circuit.stats()
        )
        runner = BenchmarkRunner({"greedy": GreedyChehabCompiler(max_rewrite_steps=1)})
        result = runner._make_result(
            SimpleNamespace(name="two_output"),
            "label",
            report,
            reference=[3, 5],
            inputs={"x": 3, "y": 5},
        )
        assert result.correct
