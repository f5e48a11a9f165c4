"""Tests for the pass framework, the compiler registry and the repro.api facade."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import api
from repro.baselines import CoyoteCompiler, GreedyChehabCompiler, ScalarCompiler
from repro.compiler import (
    Ciphertext,
    Compiler,
    CompilerOptions,
    CompilerSpec,
    PassPipeline,
    PipelineState,
    Program,
    available_compilers,
    build_compiler,
    circuit_stage,
    compiler_info,
    expr_stage,
)
from repro.compiler.passes import constant_fold, dead_code_eliminate
from repro.compiler.registry import compiler_fingerprint
from repro.ir.nodes import Add, Var
from repro.ir.parser import parse
from repro.kernels.registry import benchmark_by_name
from repro.service import CompilationCache, CompilationService

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


EXPR = parse("(* (+ a b) (+ c d))")


# ---------------------------------------------------------------------------
# the pass framework
# ---------------------------------------------------------------------------
class TestPassPipeline:
    def test_default_pipeline_stage_names(self):
        compiler = Compiler(CompilerOptions(optimizer="greedy"))
        assert compiler.pipeline.stage_names == [
            "constant-fold",
            "optimize",
            "lower",
            "dce",
            "rotation-keys",
        ]

    def test_report_carries_trace_with_all_stages(self):
        report = Compiler().compile_expression(EXPR, name="t")
        assert report.trace is not None
        assert report.trace.stage_names == [
            "constant-fold",
            "optimize",
            "lower",
            "dce",
            "rotation-keys",
        ]
        assert all(stage.wall_time_s >= 0.0 for stage in report.trace.stages)

    @pytest.mark.parametrize(
        "compiler",
        [Compiler(), ScalarCompiler(), GreedyChehabCompiler(), CoyoteCompiler()],
        ids=["pipeline", "scalar", "greedy", "coyote"],
    )
    def test_stage_times_sum_to_compile_time(self, compiler):
        report = compiler.compile_expression(EXPR, name="t")
        assert report.trace is not None
        total = report.trace.total_time_s
        # compile_time_s is measured around the whole run; the delta is the
        # (tiny) state-construction and report-assembly overhead.
        assert 0.0 <= report.compile_time_s - total < 0.1

    def test_coyote_trace_has_vectorize_stage(self):
        report = CoyoteCompiler().compile_expression(EXPR, name="t")
        assert report.trace.stage_names == ["constant-fold", "vectorize-search", "dce"]
        search = report.trace.stage("vectorize-search")
        assert search.wall_time_s > 0.0

    def test_optimize_stage_cost_snapshots_match_report_costs(self):
        report = GreedyChehabCompiler().compile_expression(EXPR, name="t")
        optimize = report.trace.stage("optimize")
        assert optimize.cost_before == pytest.approx(report.initial_cost)
        assert optimize.cost_after == pytest.approx(report.final_cost)

    def test_custom_pipeline_runs_and_traces(self):
        from repro.compiler.lowering import lower

        class _Lower:
            name = "lower"
            kind = "circuit"

            def run(self, state):
                state.circuit = lower(state.expr, name=state.name)

        pipeline = PassPipeline(
            [
                expr_stage("fold", lambda expr, state: constant_fold(expr)),
                _Lower(),
                circuit_stage("dce", lambda circuit, state: dead_code_eliminate(circuit)),
            ]
        )
        report = pipeline.compile(Add(Var("x"), Var("y")), name="custom")
        assert report.trace.stage_names == ["fold", "lower", "dce"]
        assert report.stats.total_operations > 0

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate stage"):
            PassPipeline(
                [
                    expr_stage("fold", lambda expr, state: expr),
                    expr_stage("fold", lambda expr, state: expr),
                ]
            )

    def test_circuit_stage_before_lowering_rejected(self):
        pipeline = PassPipeline(
            [circuit_stage("dce", lambda circuit, state: circuit)]
        )
        state = PipelineState(name="t", source_expr=EXPR, expr=EXPR)
        with pytest.raises(ValueError, match="before any lowering"):
            pipeline.run(state)

    def test_pipeline_without_lowering_cannot_compile(self):
        pipeline = PassPipeline([expr_stage("fold", lambda expr, state: expr)])
        with pytest.raises(ValueError, match="produced no circuit"):
            pipeline.compile(EXPR, name="t")

    def test_trace_pickles_with_report(self):
        import pickle

        report = ScalarCompiler().compile_expression(EXPR, name="t")
        clone = pickle.loads(pickle.dumps(report))
        assert clone.trace.stage_names == report.trace.stage_names


# ---------------------------------------------------------------------------
# the registry and specs
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtin_names_registered(self):
        names = available_compilers()
        for name in ("initial", "coyote", "greedy", "beam", "chehab-rl"):
            assert name in names

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="available:"):
            compiler_info("no-such-compiler")

    def test_build_compiler_types(self):
        assert isinstance(build_compiler("initial"), ScalarCompiler)
        assert isinstance(build_compiler("greedy"), GreedyChehabCompiler)
        assert isinstance(build_compiler("coyote"), CoyoteCompiler)
        assert isinstance(build_compiler("beam"), Compiler)

    def test_factory_options_forwarded(self):
        compiler = build_compiler("coyote", layout_candidates=3, seed=7)
        assert compiler.options.layout_candidates == 3
        assert compiler.options.seed == 7

    def test_describe_is_version_stamped_and_renders_options(self):
        spec = CompilerSpec.create("coyote", layout_candidates=3)
        text = spec.describe()
        assert repro.__version__ in text
        assert "coyote" in text
        # Every CoyoteOptions field is rendered, defaults included.
        for field_name in ("layout_candidates=3", "search_candidates=32", "max_candidates=192", "seed=0"):
            assert field_name in text

    def test_describe_differs_across_options_and_names(self):
        base = CompilerSpec.create("coyote").describe()
        assert CompilerSpec.create("coyote", seed=1).describe() != base
        assert CompilerSpec.create("greedy").describe() != base

    def test_spec_built_compiler_fingerprints_as_describe(self):
        spec = CompilerSpec.create("greedy", max_rewrite_steps=5)
        compiler = spec.build()
        fingerprint, stable = compiler_fingerprint(compiler)
        assert stable
        assert fingerprint == spec.describe()

    def test_spec_is_picklable_and_hashable(self):
        import pickle

        spec = CompilerSpec.create("coyote", layout_candidates=2)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert clone.options_dict == {"layout_candidates": 2}

    def test_spec_with_live_object_option_is_unstable(self):
        """An agent (or any live object) option must not produce disk keys."""
        assert CompilerSpec.create("chehab-rl", agent=object()).stable is False
        assert CompilerSpec.create("chehab-rl", train_timesteps=0).stable is True
        assert CompilerSpec.create("coyote", seed=1).stable is True

    def test_unstable_spec_entries_stay_out_of_disk_tier(self, tmp_path):
        """A live-object option (here: a custom optimizer, standing in for a
        trained agent) must keep the service's entries memory-tier-only."""
        from repro.trs.rewriter import RewriteResult

        class _LiveOptimizer:
            def optimize(self, expr):
                return RewriteResult(
                    initial=expr, optimized=expr, steps=[], initial_cost=0.0, final_cost=0.0
                )

        spec = CompilerSpec.create("chehab-rl", agent=_LiveOptimizer())
        assert spec.stable is False
        # chehab-rl wraps the agent directly; swap in a cheap equivalent via
        # the same unstable-spec machinery using the plain pipeline factory.
        compiler = Compiler(CompilerOptions(optimizer=_LiveOptimizer()))
        compiler._compiler_spec = spec
        cache_dir = tmp_path / "cache"
        service = CompilationService(compiler, cache=CompilationCache(directory=str(cache_dir)))
        assert service._stable is False
        service.compile_expression(parse("(+ a b)"), name="t")
        assert list(cache_dir.glob("*.pkl")) == []

    def test_describe_byte_stable_across_processes(self):
        """The acceptance-criteria subprocess round-trip."""
        script = (
            "from repro.compiler import CompilerSpec\n"
            "print(CompilerSpec.create('coyote', layout_candidates=3).describe())\n"
            "print(CompilerSpec.create('greedy').describe())\n"
            "print(CompilerSpec.create('initial').describe())\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        lines = completed.stdout.strip().splitlines()
        assert lines[0] == CompilerSpec.create("coyote", layout_candidates=3).describe()
        assert lines[1] == CompilerSpec.create("greedy").describe()
        assert lines[2] == CompilerSpec.create("initial").describe()


# ---------------------------------------------------------------------------
# the cache-stability satellite: Coyote hits the disk tier across services
# ---------------------------------------------------------------------------
class TestCoyoteDiskCache:
    def test_coyote_disk_cache_hit_across_fresh_services(self, tmp_path):
        """Regression: Coyote must have a stable (disk-eligible) fingerprint."""
        cache_dir = str(tmp_path / "cache")
        expr = benchmark_by_name("dot_product_4").expression()

        first = CompilationService("coyote", cache=CompilationCache(directory=cache_dir))
        assert first._stable
        cold = first.compile_expression(expr, name="dot_product_4")
        assert first.cache.stats.misses == 1

        # A brand-new service + cache instance (fresh process simulation):
        # the only shared state is the on-disk tier.
        second = CompilationService("coyote", cache=CompilationCache(directory=cache_dir))
        assert second.fingerprint == first.fingerprint
        warm = second.compile_expression(expr, name="dot_product_4")
        assert second.cache.stats.disk_hits == 1
        assert warm.stats.as_dict() == cold.stats.as_dict()

    def test_coyote_disk_cache_hit_from_subprocess_key(self, tmp_path):
        """A subprocess computes the same cache key, so its entries are shared."""
        cache_dir = str(tmp_path / "cache")
        service = CompilationService("coyote", cache=CompilationCache(directory=cache_dir))
        expr = parse("(+ (* a b) c)")
        service.compile_expression(expr, name="k")
        key = service.job_key(expr)
        script = (
            "from repro.service import CompilationService, CompilationCache\n"
            "from repro.ir.parser import parse\n"
            f"service = CompilationService('coyote', cache=CompilationCache(directory={cache_dir!r}))\n"
            "expr = parse('(+ (* a b) c)')\n"
            "print(service.job_key(expr))\n"
            "report = service.compile_expression(expr, name='k')\n"
            "print(service.cache.stats.disk_hits)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        subprocess_key, disk_hits = completed.stdout.split()
        assert subprocess_key == key
        assert int(disk_hits) == 1

    def test_hand_built_coyote_shares_entries_with_named_service(self, tmp_path):
        """Direct CoyoteCompiler construction stays stable (options dataclass)."""
        fingerprint, stable = compiler_fingerprint(CoyoteCompiler())
        assert stable
        again, _ = compiler_fingerprint(CoyoteCompiler())
        assert fingerprint == again


# ---------------------------------------------------------------------------
# the facade
# ---------------------------------------------------------------------------
class TestApiFacade:
    def test_compile_accepts_sexpr_string(self):
        report = repro.compile("(+ (* a b) c)", compiler="initial")
        assert report.stats.total_operations > 0
        assert report.trace is not None

    def test_compile_accepts_expr_and_program(self):
        with Program("prog") as program:
            a, b = Ciphertext("a"), Ciphertext("b")
            (a * b).set_output("x")
        from_program = repro.compile(program, compiler="initial")
        assert from_program.name == "prog"
        from_expr = repro.compile(program.output_expr, compiler="initial", name="prog")
        assert from_expr.stats.as_dict() == from_program.stats.as_dict()

    def test_compile_rejects_garbage_source(self):
        with pytest.raises(TypeError, match="s-expression"):
            repro.compile(12345, compiler="initial")

    def test_compile_options_forwarded_to_factory(self):
        report = repro.compile(EXPR, compiler="greedy", max_rewrite_steps=1)
        assert len(report.rewrite_steps) <= 1

    def test_options_with_instance_rejected(self):
        with pytest.raises(ValueError, match="registry name"):
            repro.compile(EXPR, compiler=ScalarCompiler(), max_rewrite_steps=1)

    def test_service_conflicts_with_compiler_arguments(self):
        service = api.make_service("initial")
        with pytest.raises(ValueError, match="not both"):
            repro.compile(EXPR, "coyote", service=service)
        # workers= is gone from compile(): with service= it is an unexpected
        # keyword, not a conflicting setting.
        with pytest.raises(TypeError, match="workers"):
            repro.compile(EXPR, service=service, workers=2)
        # A bare service= is the supported reuse path.
        report = repro.compile(EXPR, service=service)
        assert report.stats.total_operations > 0

    def test_declared_outputs_concatenates_in_declaration_order(self):
        from repro.compiler import declared_outputs

        report = repro.compile("(Vec (+ a b) (* a b))", compiler="initial")
        outcome = repro.execute(report, {"a": 2, "b": 3})
        assert outcome.correct
        assert outcome.outputs == declared_outputs(
            report.circuit, outcome.execution.outputs
        )

    def test_single_program_entry_points_take_no_workers(self):
        # Only compile_batch holds a batch for the process pool. The
        # single-program entry points pass workers= on as a compiler (or
        # workload) factory option, which the factory rejects; beside a
        # compiled report it is rejected outright.
        report = repro.compile(EXPR, compiler="initial")
        calls = (
            lambda: repro.compile(EXPR, compiler="initial", workers=2),
            lambda: repro.execute(EXPR, compiler="initial", workers=2),
            lambda: repro.execute(report, workers=2),
            lambda: repro.execute_batch(EXPR, compiler="initial", workers=2),
            lambda: repro.execute_batch(report, workers=2),
            lambda: repro.run_workload("dot-product", workers=2),
        )
        for call in calls:
            with pytest.raises(TypeError, match="workers"):
                call()
        batch = api.compile_batch([EXPR, "(* a b)"], compiler="initial", workers=2)
        assert batch.workers == 2 and len(batch.reports) == 2

    def test_cli_value_parser_handles_shell_booleans(self):
        from repro.__main__ import _parse_value

        assert _parse_value("false") is False
        assert _parse_value("TRUE") is True
        assert _parse_value("no") is False
        assert _parse_value("3") == 3
        assert _parse_value("[1, 2]") == [1, 2]
        assert _parse_value("hello") == "hello"

    def test_execute_verifies_against_reference(self):
        outcome = repro.execute(
            "(+ (* a b) c)", {"a": 2, "b": 3, "c": 4}, compiler="greedy"
        )
        assert outcome.correct
        assert outcome.outputs == [10]
        assert outcome.reference == [10]
        assert outcome.execution.latency_ms > 0

    def test_execute_generates_seeded_inputs(self):
        one = repro.execute("(* a b)", compiler="initial", seed=3)
        two = repro.execute("(* a b)", compiler="initial", seed=3)
        assert one.inputs == two.inputs
        assert one.correct and two.correct

    def test_execute_accepts_prebuilt_report(self):
        report = repro.compile("(- a b)", compiler="initial")
        outcome = repro.execute(report, {"a": 9, "b": 4})
        assert outcome.correct
        assert outcome.outputs == [5]

    def test_compile_batch_names_and_caches(self, tmp_path):
        sources = ["(+ a b)", ("(* a b)", "product")]
        batch = api.compile_batch(sources, compiler="initial", cache_dir=str(tmp_path))
        assert [report.name for report in batch.reports] == ["circuit_0", "product"]
        warm = api.compile_batch(sources, compiler="initial", cache_dir=str(tmp_path))
        assert warm.cache_hits == 2

    def test_list_compilers_rows(self):
        rows = repro.list_compilers()
        names = [row["name"] for row in rows]
        assert "coyote" in names and "greedy" in names
        assert all(row["description"] for row in rows)

    def test_describe_compiler_matches_spec(self):
        assert repro.describe_compiler("coyote", seed=2) == CompilerSpec.create(
            "coyote", seed=2
        ).describe()

    @pytest.mark.parametrize("name", ["initial", "greedy", "beam", "coyote"])
    def test_facade_stats_bit_identical_to_direct_construction(self, name):
        """repro.compile(name) == the pre-redesign hand-built compiler path."""
        direct = {
            "initial": ScalarCompiler(),
            "greedy": GreedyChehabCompiler(),
            "beam": Compiler(CompilerOptions(optimizer="beam")),
            "coyote": CoyoteCompiler(),
        }[name]
        kernels = ("dot_product_4", "box_blur_3x3", "hamming_distance_4", "linear_regression_4")
        if name == "beam":  # beam search is the slow one; one kernel suffices
            kernels = ("dot_product_4",)
        for kernel in kernels:
            expr = benchmark_by_name(kernel).expression()
            expected = direct.compile_expression(expr, name=kernel)
            actual = repro.compile(expr, compiler=name, name=kernel)
            assert actual.stats.as_dict() == expected.stats.as_dict()
            assert actual.initial_cost == expected.initial_cost
            assert actual.final_cost == expected.final_cost

    def test_facade_stats_bit_identical_for_chehab_rl(self):
        """The RL registry name matches the hand-wrapped agent compiler.

        train_timesteps=0 keeps the (seeded, lru-cached) agent untrained, so
        both paths share the identical policy and the comparison is exact.
        """
        from repro.experiments.harness import make_agent_compiler, make_default_agent

        agent = make_default_agent(train_timesteps=0, dataset_size=8, seed=0)
        direct = make_agent_compiler(agent)
        expr = benchmark_by_name("dot_product_4").expression()
        expected = direct.compile_expression(expr, name="dot_product_4")
        actual = repro.compile(
            expr,
            compiler="chehab-rl",
            name="dot_product_4",
            train_timesteps=0,
            dataset_size=8,
            seed=0,
        )
        assert actual.stats.as_dict() == expected.stats.as_dict()
        assert actual.final_cost == expected.final_cost


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------
class TestCli:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=_subprocess_env(),
            capture_output=True,
            text=True,
        )

    def test_list_compilers(self):
        completed = self._run("list-compilers")
        assert completed.returncode == 0
        for name in ("initial", "coyote", "greedy", "beam", "chehab-rl"):
            assert name in completed.stdout

    def test_compile_prints_stats_and_trace(self):
        completed = self._run("compile", "(* (+ a b) (+ c d))", "--compiler", "greedy")
        assert completed.returncode == 0
        assert "total_operations" in completed.stdout
        assert "optimize" in completed.stdout  # the trace table

    def test_run_verifies(self):
        completed = self._run(
            "run", "(+ (* a b) c)", "--inputs", "a=2,b=3,c=4", "--compiler", "initial"
        )
        assert completed.returncode == 0
        assert "OK" in completed.stdout

    def test_workers_is_a_compile_flag_only(self, capsys):
        from repro.__main__ import main

        for command in ("run", "run-batch"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "(+ a b)", "--workers", "2"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        argv = ["compile", "(+ a b)", "(* a b)", "--compiler", "initial", "--workers", "2"]
        assert main([*argv, "--json"]) == 0
        batch = json.loads(capsys.readouterr().out)["batch"]
        assert batch["workers"] == 2 and batch["jobs"] == 2

    def test_compile_with_cache_dir_and_options(self, tmp_path):
        argv = (
            "compile",
            "(+ a b)",
            "--compiler",
            "coyote",
            "--option",
            "layout_candidates=2",
            "--cache-dir",
            str(tmp_path),
        )
        assert self._run(*argv).returncode == 0
        # Second invocation is a fresh process: it must hit the disk tier.
        assert self._run(*argv).returncode == 0
        assert len(list(tmp_path.glob("*.pkl"))) == 1
