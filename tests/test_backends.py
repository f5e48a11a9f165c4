"""Tests of the pluggable execution-backend layer.

Covers the backend registry (the ``@register_backend``/spec idiom), backend
parity — every kernel of the Coyote/Porcupine/tree suites produces
bit-identical declared outputs and identical noise/latency accounting on
``reference`` vs ``vector-vm``, and identical accounting on ``cost-sim`` —
the per-execution metering refactor, the batched
:class:`~repro.service.execution.ExecutionService` with static-cost LPT
scheduling, and the ``backend=``/``run-batch`` surface of the api + CLI.
"""

from __future__ import annotations

import pytest

import repro
from repro import api
from repro.__main__ import main as cli_main
from repro.backends import (
    BackendSpec,
    BaseBackend,
    available_backends,
    backend_info,
    build_backend,
    get_backend,
    program_fingerprint,
    register_backend,
    resolve_backend,
)
from repro.compiler import build_compiler, declared_outputs, execute, execute_many
from repro.compiler.executor import default_backend_name
from repro.fhe import Evaluator, ExecutionMeter, FHEContext, LatencyModel
from repro.fhe.params import BFVParameters
from repro.kernels.registry import benchmark_by_name, benchmark_suite
from repro.service import ExecutionJob, ExecutionService

#: Small ring for fast tests; parity must hold at any degree.
PARAMS = BFVParameters.default(1024)


@pytest.fixture(scope="module")
def compiled_suite():
    """Every Coyote/Porcupine/tree kernel compiled with the initial compiler."""
    compiler = build_compiler("initial")
    suite = benchmark_suite(include_deep_trees=False)
    return [
        (benchmark, compiler.compile_expression(benchmark.expression(), name=benchmark.name))
        for benchmark in suite
    ]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestBackendRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        assert {"reference", "vector-vm", "cost-sim"} <= set(names)

    def test_backend_info_fields(self):
        info = backend_info("cost-sim")
        assert info.produces_outputs is False
        assert info.description
        assert backend_info("vector-vm").produces_outputs is True

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(KeyError, match="vector-vm"):
            backend_info("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("reference")(BaseBackend)

    def test_spec_describe_is_version_stamped(self):
        spec = BackendSpec.create("vector-vm")
        description = spec.describe()
        assert description.startswith(f"repro-{repro.__version__}::backend::vector-vm")
        assert spec.stable

    def test_describe_varies_with_options(self):
        assert BackendSpec.create("vector-vm").describe() != BackendSpec(
            "vector-vm", (("option", 1),)
        ).describe()

    def test_resolve_name_spec_and_instance(self):
        by_name, spec = resolve_backend("vector-vm")
        assert by_name.name == "vector-vm"
        assert spec is not None and spec.name == "vector-vm"
        by_spec, spec2 = resolve_backend(BackendSpec.create("cost-sim"))
        assert by_spec.name == "cost-sim"
        assert spec2.name == "cost-sim"
        instance = build_backend("reference")
        again, spec3 = resolve_backend(instance)
        assert again is instance
        assert spec3 is not None and spec3.name == "reference"

    def test_resolve_none_follows_default(self, monkeypatch):
        assert get_backend(None).name == "reference"
        monkeypatch.setenv("REPRO_BACKEND", "cost-sim")
        assert get_backend(None).name == "cost-sim"

    def test_instance_options_rejected(self):
        with pytest.raises(ValueError, match="registry name"):
            resolve_backend(build_backend("reference"), option=1)

    def test_api_list_backends(self):
        rows = api.list_backends()
        assert {row["name"] for row in rows} >= {"reference", "vector-vm", "cost-sim"}
        assert api.describe_backend("cost-sim").startswith(f"repro-{repro.__version__}")


# ---------------------------------------------------------------------------
# parity: reference vs vector-vm vs cost-sim over the full kernel suites
# ---------------------------------------------------------------------------
class TestBackendParity:
    def test_every_kernel_bit_identical_and_same_accounting(self, compiled_suite):
        covered_suites = set()
        for benchmark, report in compiled_suite:
            covered_suites.add(benchmark.suite)
            inputs = benchmark.sample_inputs(seed=1)
            reference = execute(report.circuit, inputs, params=PARAMS, backend="reference")
            vm = execute(report.circuit, inputs, params=PARAMS, backend="vector-vm")
            sim = execute(report.circuit, inputs, params=PARAMS, backend="cost-sim")
            # vector-vm: bit-identical outputs, identical accounting.
            assert vm.outputs == reference.outputs, benchmark.name
            assert vm.latency_ms == reference.latency_ms, benchmark.name
            assert vm.operation_counts == reference.operation_counts, benchmark.name
            assert vm.consumed_noise_budget == reference.consumed_noise_budget
            assert vm.remaining_noise_budget == reference.remaining_noise_budget
            assert vm.noise_budget_exhausted == reference.noise_budget_exhausted
            assert vm.encrypted_inputs == reference.encrypted_inputs
            # cost-sim: identical accounting, no outputs.
            assert sim.outputs == {}
            assert sim.latency_ms == reference.latency_ms, benchmark.name
            assert sim.operation_counts == reference.operation_counts, benchmark.name
            assert sim.consumed_noise_budget == reference.consumed_noise_budget
            assert sim.remaining_noise_budget == reference.remaining_noise_budget
            assert sim.noise_budget_exhausted == reference.noise_budget_exhausted
            assert sim.encrypted_inputs == reference.encrypted_inputs
        assert covered_suites == {"porcupine", "coyote", "trees"}

    def test_batched_execution_matches_per_seed_reference(self, compiled_suite):
        benchmark, report = next(
            (b, r) for b, r in compiled_suite if b.name == "dot_product_8"
        )
        inputs = [benchmark.sample_inputs(seed=seed) for seed in range(6)]
        references = [
            execute(report.circuit, item, params=PARAMS, backend="reference")
            for item in inputs
        ]
        batched = execute_many(report.circuit, inputs, params=PARAMS, backend="vector-vm")
        assert len(batched) == 6
        for single, vm in zip(references, batched):
            assert vm.outputs == single.outputs
            assert vm.batch_size == 6
            assert vm.backend == "vector-vm"

    def test_parity_on_vectorized_coyote_circuits(self):
        """Rotation/mask-heavy circuits (the Coyote compiler) stay parity-clean."""
        compiler = build_compiler("coyote")
        for name in ("dot_product_8", "matrix_multiply_3x3", "max_3"):
            benchmark = benchmark_by_name(name)
            report = compiler.compile_expression(benchmark.expression(), name=name)
            inputs = [benchmark.sample_inputs(seed=seed) for seed in range(4)]
            references = [
                execute(report.circuit, item, params=PARAMS, backend="reference")
                for item in inputs
            ]
            batched = execute_many(report.circuit, inputs, params=PARAMS, backend="vector-vm")
            for single, vm in zip(references, batched):
                assert vm.outputs == single.outputs, name
                assert vm.consumed_noise_budget == single.consumed_noise_budget

    def test_parity_at_default_degree(self):
        """Spot-check parity under the paper's n=16384 parameters too."""
        benchmark = benchmark_by_name("dot_product_4")
        report = build_compiler("initial").compile_expression(
            benchmark.expression(), name=benchmark.name
        )
        inputs = benchmark.sample_inputs(seed=0)
        reference = execute(report.circuit, inputs, backend="reference")
        vm = execute(report.circuit, inputs, backend="vector-vm")
        assert vm.outputs == reference.outputs
        assert vm.consumed_noise_budget == reference.consumed_noise_budget

    def test_deep_product_of_large_inputs_forces_double_reduction(self):
        """Regression: both MUL operands huge -> reduce both, never overflow.

        With every input near t/2 a chain of multiplications pushes *both*
        operand bounds past the reduction limit; a buggy fallback that
        re-reduced the already-reduced operand left the other unreduced and
        silently wrapped int64, breaking bit-identical outputs.
        """
        from repro.compiler.lowering import lower
        from repro.ir.parser import parse

        expr = parse("(* (* (* (* (* a b) c) d) e) (* (* (* (* f g) h) i) j))")
        circuit = lower(expr)
        params = BFVParameters.default()
        inputs = {name: params.plain_modulus // 2 for name in "abcdefghij"}
        reference = execute(circuit, inputs, params=params, backend="reference")
        vm = execute(circuit, inputs, params=params, backend="vector-vm")
        assert vm.outputs == reference.outputs

    def test_vector_vm_missing_input_raises(self, compiled_suite):
        from repro.core.exceptions import CompilationError

        _, report = next((b, r) for b, r in compiled_suite if b.name == "dot_product_4")
        with pytest.raises(CompilationError, match="missing value"):
            execute(report.circuit, {}, params=PARAMS, backend="vector-vm")


# ---------------------------------------------------------------------------
# per-execution metering (the shared-mutable-log fix)
# ---------------------------------------------------------------------------
class TestExecutionMetering:
    def test_repeated_executions_do_not_accumulate(self, compiled_suite):
        _, report = next((b, r) for b, r in compiled_suite if b.name == "dot_product_4")
        inputs = benchmark_by_name("dot_product_4").sample_inputs(seed=0)
        first = execute(report.circuit, inputs, params=PARAMS)
        second = execute(report.circuit, inputs, params=PARAMS)
        assert first.latency_ms == second.latency_ms
        assert first.operation_counts == second.operation_counts

    def test_strict_noise_context_still_fails_fast(self):
        """A strict_noise context raises during execution, as pre-refactor."""
        from repro.compiler.lowering import lower
        from repro.core.exceptions import NoiseBudgetExhausted
        from repro.ir.parser import parse

        # Deep multiply chain: exhausts the small ring's budget quickly.
        expr = parse("(* (* (* (* a a) (* a a)) (* (* a a) (* a a))) a)")
        circuit = lower(expr)
        context = FHEContext(params=PARAMS, strict_noise=True)
        with pytest.raises(NoiseBudgetExhausted):
            execute(circuit, {"a": 2}, context=context)

    def test_shared_context_executions_do_not_accumulate(self):
        """Two executions through one FHEContext keep independent accounting."""
        benchmark = benchmark_by_name("dot_product_4")
        report = build_compiler("initial").compile_expression(
            benchmark.expression(), name=benchmark.name
        )
        context = FHEContext(params=PARAMS)
        inputs = benchmark.sample_inputs(seed=0)
        first = execute(report.circuit, inputs, context=context)
        second = execute(report.circuit, inputs, context=context)
        assert first.latency_ms == second.latency_ms

    def test_reset_log_footgun_removed(self):
        context = FHEContext(params=PARAMS)
        assert not hasattr(context.evaluator, "reset_log")

    def test_evaluator_accepts_external_meter(self):
        context = FHEContext(params=PARAMS)
        meter = ExecutionMeter.for_context(context)
        evaluator = Evaluator(context, meter=meter)
        ct = context.encryptor.encrypt_values([1, 2, 3])
        evaluator.add(ct, ct)
        assert meter.counts["add"] == 1
        assert evaluator.log is meter.log

    def test_latency_model_costs_cached_and_exact(self):
        model = LatencyModel(PARAMS)
        scale = model._scale()
        assert model.cost_ms("multiply") == pytest.approx(22.0 * scale)
        assert model.cost_ms("sub") == model.cost_ms("add")
        with pytest.raises(ValueError, match="unknown operation"):
            model.cost_ms("bootstrap")

    def test_report_backend_and_batch_defaults(self):
        from repro.compiler.executor import ExecutionReport

        report = ExecutionReport()
        assert report.backend == "reference"
        assert report.batch_size == 1


# ---------------------------------------------------------------------------
# program fingerprints
# ---------------------------------------------------------------------------
class TestProgramFingerprint:
    def test_name_independent_content_sensitive(self, compiled_suite):
        import dataclasses

        _, report = next((b, r) for b, r in compiled_suite if b.name == "dot_product_4")
        circuit = report.circuit
        renamed = dataclasses.replace(circuit, name="other-name")
        assert program_fingerprint(circuit) == program_fingerprint(renamed)
        _, other = next((b, r) for b, r in compiled_suite if b.name == "dot_product_8")
        assert program_fingerprint(circuit) != program_fingerprint(other.circuit)

    @staticmethod
    def _copy(circuit):
        from repro.compiler.circuit import CircuitProgram

        return CircuitProgram(
            name=circuit.name,
            instructions=list(circuit.instructions),
            outputs=list(circuit.outputs),
            scalar_inputs=list(circuit.scalar_inputs),
        )

    def test_emit_and_mark_output_clear_the_cached_digest(self, compiled_suite):
        from repro.compiler.circuit import Opcode, content_digest

        _, report = next((b, r) for b, r in compiled_suite if b.name == "dot_product_4")
        circuit = self._copy(report.circuit)
        first = program_fingerprint(circuit)
        register = circuit.emit(Opcode.NEGATE, (circuit.outputs[0][0],))
        emitted = program_fingerprint(circuit)
        assert emitted != first and emitted == content_digest(circuit)
        circuit.mark_output(register, "negated", 1)
        marked = program_fingerprint(circuit)
        assert marked not in (first, emitted) and marked == content_digest(circuit)

    def test_renamed_and_pickled_copies_share_the_digest(self, compiled_suite):
        import dataclasses
        import pickle

        from repro.service.service import _rename_report

        _, report = next((b, r) for b, r in compiled_suite if b.name == "max_3")
        digest = program_fingerprint(report.circuit)
        renamed = _rename_report(report, "renamed").circuit
        assert renamed.name == "renamed"
        assert program_fingerprint(renamed) == digest
        assert program_fingerprint(dataclasses.replace(report.circuit, name="x")) == digest
        restored = pickle.loads(pickle.dumps(report.circuit))
        assert program_fingerprint(restored) == digest
        # The cache is not part of equality or the repr.
        assert restored == self._copy(report.circuit)
        assert digest not in repr(report.circuit)

    def test_warm_server_ticks_hash_each_circuit_at_most_once(self, monkeypatch):
        import repro.compiler.circuit as circuit_module
        from repro.server import Job, JobServer

        hashed = []
        original = circuit_module.content_digest

        def counting(program):
            hashed.append(program)
            return original(program)

        monkeypatch.setattr(circuit_module, "content_digest", counting)
        server = JobServer(backend="vector-vm", compiler="initial")
        sources = ["(+ (* a b) c)", "(Vec (* a b) (- c d))", "(* (+ a b) (+ c d))"]
        for round_ in range(3):
            for user in range(4):
                for source in sources:
                    server.submit(Job(source=source, seed=round_ * 10 + user))
            server.drain()
        counters = server.telemetry.snapshot()["counters"]
        assert counters["jobs_completed"] == 36
        assert counters["batches_coalesced"] == 9
        # One digest per distinct circuit over every coalesce and tape lookup.
        assert len(hashed) == len({id(program) for program in hashed}) == len(sources)


# ---------------------------------------------------------------------------
# the batched execution service
# ---------------------------------------------------------------------------
class TestExecutionService:
    def _jobs(self, compiled_suite, names, batch=3):
        jobs = []
        for name in names:
            benchmark, report = next(
                (b, r) for b, r in compiled_suite if b.name == name
            )
            jobs.append(
                ExecutionJob(
                    program=report.circuit,
                    inputs=[benchmark.sample_inputs(seed=s) for s in range(batch)],
                )
            )
        return jobs

    def test_parallel_workers_produce_same_reports(self, compiled_suite):
        # Execution has one serial path: there is no thread pool to select.
        with pytest.raises(TypeError, match="workers"):
            ExecutionService("vector-vm", params=PARAMS, workers=2)
        names = ["dot_product_4", "dot_product_8", "max_3", "sort_3"]
        service = ExecutionService("vector-vm", params=PARAMS)
        jobs = self._jobs(compiled_suite, names)
        batch = service.run_jobs(jobs)
        # Reports come back in input order, each equal to one direct
        # execute_many of its job.
        direct = [
            service.backend.execute_many(job.program, list(job.inputs), params=PARAMS)
            for job in jobs
        ]
        assert [[r.outputs for r in reports] for reports in batch.reports] == [
            [r.outputs for r in reports] for reports in direct
        ]
        assert [record.name for record in batch.records] == names
        assert [record.batch_size for record in batch.records] == [3] * len(names)
        assert batch.total_executions == 3 * len(names)

    def test_warm_run_jobs_fingerprints_once_per_group(self, compiled_suite, monkeypatch):
        import repro.backends.tapeopt as tapeopt
        import repro.service.execution as execution

        names = ["dot_product_4", "dot_product_8", "max_3", "sort_3"]
        jobs = self._jobs(compiled_suite, names)
        service = ExecutionService("vector-vm", params=PARAMS)
        service.run_jobs(jobs)  # warm: tapes compiled and memoized
        calls = []

        def counting(program):
            calls.append(program)
            return program_fingerprint(program)

        monkeypatch.setattr(tapeopt, "program_fingerprint", counting)
        # Scheduling must add no hashing of its own on top of the memo lookup.
        monkeypatch.setattr(execution, "program_fingerprint", counting, raising=False)
        service.run_jobs(jobs)
        assert len(calls) <= len(jobs)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(TypeError, match="workers"):
            ExecutionService("reference", workers=0)
        with pytest.raises(KeyError):
            ExecutionService("no-such-backend")

    def test_empty_input_jobs_record_no_measurement(self, compiled_suite):
        _, report = next((b, r) for b, r in compiled_suite if b.name == "dot_product_4")
        service = ExecutionService("vector-vm", params=PARAMS)
        batch = service.run_jobs([ExecutionJob(program=report.circuit, inputs=[])])
        assert batch.reports == [[]]
        assert batch.records[0].batch_size == 0

    def test_accepts_bare_tuples(self, compiled_suite):
        benchmark, report = next(
            (b, r) for b, r in compiled_suite if b.name == "dot_product_4"
        )
        service = ExecutionService("cost-sim", params=PARAMS)
        batch = service.run_jobs([(report.circuit, [benchmark.sample_inputs(0)])])
        assert batch.records[0].name == "dot_product_4"
        assert batch.reports[0][0].outputs == {}


# ---------------------------------------------------------------------------
# the api facade and CLI
# ---------------------------------------------------------------------------
class TestApiBackendSurface:
    def test_execute_with_vector_vm(self):
        outcome = repro.execute(
            "(* (+ a b) (+ c d))", {"a": 1, "b": 2, "c": 3, "d": 4}, backend="vector-vm"
        )
        assert outcome.correct
        assert outcome.backend == "vector-vm"
        assert outcome.outputs == outcome.reference

    def test_execute_with_cost_sim_skips_verification(self):
        outcome = repro.execute("(* a b)", {"a": 3, "b": 4}, backend="cost-sim")
        assert outcome.backend == "cost-sim"
        assert outcome.outputs == [] and outcome.reference == []
        assert outcome.correct
        assert not outcome.verified
        assert outcome.execution.latency_ms > 0.0

    def test_empty_batch_still_reports_requested_backend(self):
        batch = repro.execute_batch("(* a b)", inputs=[], backend="vector-vm")
        assert batch.batch_size == 0
        assert batch.backend == "vector-vm"

    def test_cli_run_cost_sim_reports_skipped_verification(self, capsys):
        code = cli_main(["run", "(* a b)", "--inputs", "a=2,b=3", "--backend", "cost-sim"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verified     : skipped (backend produces no outputs)" in out

    def test_execute_batch_round_trip(self):
        batch = repro.execute_batch(
            "(* (+ a b) (+ c d))", batch=5, backend="vector-vm", seed=7
        )
        assert batch.batch_size == 5
        assert batch.all_correct
        assert batch.backend == "vector-vm"
        assert batch.throughput_per_s > 0.0
        assert len({tuple(sorted(item.items())) for item in batch.inputs}) > 1
        assert all(report.batch_size == 5 for report in batch.executions)

    def test_execute_batch_explicit_inputs(self):
        inputs = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        batch = repro.execute_batch("(* a b)", inputs, backend="vector-vm")
        assert batch.outputs == [[2], [12]]
        assert batch.all_correct

    def test_env_var_overrides_default_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "vector-vm")
        assert default_backend_name() == "vector-vm"
        outcome = repro.execute("(* a b)", {"a": 2, "b": 5})
        assert outcome.backend == "vector-vm"
        monkeypatch.delenv("REPRO_BACKEND")
        assert default_backend_name() == "reference"

    def test_cli_run_with_backend(self, capsys):
        code = cli_main(
            ["run", "(+ (* a b) c)", "--inputs", "a=2,b=3,c=4", "--backend", "vector-vm"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "backend      : vector-vm" in out
        assert "verified     : OK" in out

    def test_cli_run_batch(self, capsys):
        code = cli_main(
            ["run-batch", "(* (+ a b) (+ c d))", "--batch", "6", "--backend", "vector-vm"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "batch size   : 6" in out
        assert "verified     : 6/6 OK" in out

    def test_execute_batch_cost_sim_marks_verification_skipped(self):
        batch = repro.execute_batch("(* a b)", batch=3, backend="cost-sim")
        assert not batch.verified
        assert batch.all_correct  # vacuous — nothing decrypted

    def test_cli_run_batch_cost_sim_reports_skipped_verification(self, capsys):
        code = cli_main(["run-batch", "(* a b)", "--batch", "3", "--backend", "cost-sim"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verified     : skipped (backend produces no outputs)" in out

    def test_cli_list_backends(self, capsys):
        assert cli_main(["list-backends"]) == 0
        out = capsys.readouterr().out
        for name in ("reference", "vector-vm", "cost-sim"):
            assert name in out


# ---------------------------------------------------------------------------
# harness + RL routing
# ---------------------------------------------------------------------------
class TestBackendRouting:
    def test_benchmark_runner_on_vector_vm(self):
        from repro.experiments.harness import BenchmarkRunner

        runner = BenchmarkRunner({"initial": "initial"}, backend="vector-vm")
        results = runner.run([benchmark_by_name("dot_product_4")])
        assert len(results) == 1
        assert results[0].backend == "vector-vm"
        assert results[0].correct and results[0].verified

    def test_benchmark_runner_on_cost_sim(self):
        from repro.experiments.harness import BenchmarkRunner

        runner = BenchmarkRunner({"initial": "initial"}, backend="cost-sim")
        results = runner.run([benchmark_by_name("dot_product_4")])
        assert results[0].backend == "cost-sim"
        assert results[0].correct  # vacuous
        assert not results[0].verified
        assert results[0].execution_latency_ms > 0.0

    def test_reward_simulated_latency_matches_reference_accounting(self):
        from repro.compiler.lowering import lower
        from repro.ir.parser import parse
        from repro.rl.reward import RewardConfig

        expr = parse("(* (+ a b) (+ c d))")
        config = RewardConfig()
        latency = config.simulated_latency_ms(expr)
        reference = execute(lower(expr), {"a": 1, "b": 2, "c": 3, "d": 4})
        assert latency == reference.latency_ms

    def test_env_latency_terminal_episode(self):
        from repro.ir.parser import parse
        from repro.rl.env import EnvConfig, FheRewriteEnv
        from repro.rl.reward import RewardConfig

        env = FheRewriteEnv(
            expression_source=lambda: parse("(+ (* a b) (* a b))"),
            config=EnvConfig(
                max_steps=3, reward=RewardConfig(use_latency_terminal=True)
            ),
        )
        env.reset()
        assert env.initial_latency_ms > 0.0
        done = False
        while not done:
            _, _, done, info = env.step((env.end_index, 0))
        assert "final_latency_ms" in info
        assert info["initial_latency_ms"] == env.initial_latency_ms
