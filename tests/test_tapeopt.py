"""Tests for the tape compiler behind the vector VM (PR 8).

Covers the optimization pipeline pass by pass on hand-built circuits
(alias elimination, load/const dedup, CSE, DCE, every superinstruction
kind and the cases where fusion must refuse), the modular-reduction
scheduler, the process-wide compiled-tape memo, float-for-float
accounting parity on fused tapes, an aliasing regression that would
corrupt outputs under in-place execution, and a bit-identical parity
sweep of the whole workload registry, plain and under the tape profiler.
"""

from __future__ import annotations

import gc
import random
import threading
import tracemalloc

import pytest

from repro import api
from repro.backends import (
    compile_tape,
    get_compiled_tape,
    reset_tape_cache,
    tape_cache_stats,
)
from repro.backends.tape import set_tape_profiling
from repro.backends.vector_vm import VectorVMBackend
from repro.compiler.circuit import CircuitProgram, InputSlot, Opcode
from repro.compiler.executor import execute, execute_many
from repro.fhe.params import BFVParameters
from repro.kernels.registry import benchmark_by_name
from repro.workloads import available_workloads, build_workload

PARAMS = BFVParameters.default(1024)

#: Every ExecutionReport accounting field that must match the reference
#: backend exactly (not approximately) — the tape replays the original
#: instruction sequence through the same ledger/meter formulas.
ACCOUNTING_FIELDS = (
    "latency_ms",
    "operation_counts",
    "encrypted_inputs",
    "consumed_noise_budget",
    "remaining_noise_budget",
    "noise_budget_exhausted",
)

#: The vector VM as served, and the same VM under the opt-in tape profiler
#: (which times the dispatch loop one op at a time): ``(label, profiled)``.
VM_VARIANTS = (
    ("vm", False),
    ("profiled", True),
)


def ct_input(program: CircuitProgram, name: str) -> int:
    """Emit a scalar encrypted input named ``name``; returns its register."""
    return program.emit(Opcode.LOAD_INPUT, name=name, layout=[InputSlot(name=name)])


def assert_backend_parity(program, inputs_list, params=PARAMS):
    """All VM variants must match the reference backend bit for bit."""
    reference = [
        execute(program, item, params=params, backend="reference")
        for item in inputs_list
    ]
    for label, profiled in VM_VARIANTS:
        previous = set_tape_profiling(profiled)
        try:
            reports = execute_many(
                program, inputs_list, params=params, backend="vector-vm"
            )
        finally:
            set_tape_profiling(previous)
        assert len(reports) == len(reference)
        for index, (ref, got) in enumerate(zip(reference, reports)):
            assert got.outputs == ref.outputs, f"{label}[{index}] outputs diverge"
            for field in ACCOUNTING_FIELDS:
                assert getattr(got, field) == getattr(ref, field), (
                    f"{label}[{index}] {field} diverges"
                )
    return reference


def compiled(source: str, compiler: str = "greedy") -> CircuitProgram:
    return api.compile(source, compiler=compiler).circuit


class TestPeepholePasses:
    def test_step0_rotation_and_output_markers_become_aliases(self):
        program = CircuitProgram(name="aliases")
        a = ct_input(program, "x")
        rot = program.emit(Opcode.ROTATE, (a,), step=0)
        marker = program.emit(Opcode.OUTPUT, (rot,))
        program.mark_output(marker, "alias", 1)
        square = program.emit(Opcode.MUL, (a, a))
        program.mark_output(square, "square", 1)

        stats = compile_tape(program, PARAMS).stats
        assert stats["eliminated"]["aliases"] == 2  # the rotation and the marker
        assert stats["tape_ops"] == 1  # only the multiply survives
        reference = assert_backend_parity(program, [{"x": 5}])
        assert reference[0].outputs == {"alias": [5], "square": [25]}

    def test_full_slot_rotation_is_a_free_alias(self):
        # A rotation by the full slot count moves no data: an alias on the
        # tape, and — since the evaluator normalizes steps mod n and treats
        # the identity rotation as a budget-preserving copy — free in the
        # accounting replay too.  All layers agree it never happened.
        program = CircuitProgram(name="fullrot")
        a = ct_input(program, "x")
        rot = program.emit(Opcode.ROTATE, (a,), step=PARAMS.slot_count)
        total = program.emit(Opcode.ADD, (rot, a))
        program.mark_output(total, "doubled", 1)

        tape = compile_tape(program, PARAMS)
        assert tape.stats["eliminated"]["aliases"] == 1
        assert tape.accounting.operation_counts == {"add": 1}
        reference = assert_backend_parity(program, [{"x": 3}])
        assert reference[0].outputs == {"doubled": [6]}

    def test_duplicate_loads_and_constants_collapse(self):
        program = CircuitProgram(name="dedup")
        a1 = ct_input(program, "a")
        a2 = ct_input(program, "a")  # identical layout -> same buffer
        k1 = program.emit(Opcode.LOAD_PLAIN, values=(3,), name="broadcast")
        k2 = program.emit(Opcode.LOAD_PLAIN, values=(3,), name="broadcast")
        s1 = program.emit(Opcode.ADD, (a1, a2))
        s2 = program.emit(Opcode.ADD, (a2, a1))  # commutative CSE of s1
        m1 = program.emit(Opcode.MUL_PLAIN, (s1, k1))
        m2 = program.emit(Opcode.MUL_PLAIN, (s2, k2))  # CSE once inputs unify
        program.emit(Opcode.MUL, (a1, a2))  # dead: never reaches an output
        program.mark_output(m1, "out", 1)
        assert m2 != m1  # distinct SSA registers before optimization

        tape = compile_tape(program, PARAMS)
        assert tape.stats["eliminated"] == {
            "cse": 2,
            "dead": 1,
            "dedup_consts": 1,
            "dedup_loads": 1,
        }
        assert tape.stats["consts"] == 1
        # Accounting replays the *original* program: both encrypted loads
        # and the dead multiply are still paid for, exactly like reference.
        assert tape.accounting.encrypted_inputs == 2
        assert tape.accounting.operation_counts["multiply"] == 1
        assert tape.accounting.operation_counts["multiply_plain"] == 2
        reference = assert_backend_parity(program, [{"a": 4}, {"a": 6}])
        assert reference[0].outputs == {"out": [24]}


class TestFusion:
    @pytest.mark.parametrize(
        "source, kind",
        [
            ("(+ (* a b) c)", "mul_add"),
            ("(- (* a b) c)", "mul_sub_l"),
            ("(- c (* a b))", "mul_sub_r"),
            ("(+ (<< a 2) b)", "rot_add"),
            ("(* (<< a 2) b)", "rot_mul"),
            ("(+ (* (<< a 2) b) c)", "rot_mul_add"),
        ],
    )
    def test_each_superinstruction_kind_fires(self, source, kind):
        program = compiled(source)
        stats = compile_tape(program, PARAMS).stats
        assert stats["fused"][kind] == 1, stats["fused"]
        inputs = [
            {name: seed + 2 for seed, name in enumerate(("a", "b", "c"))}
            for _ in range(3)
        ]
        inputs = [dict(item, a=item["a"] + shift) for shift, item in enumerate(inputs)]
        assert_backend_parity(program, inputs)

    def test_multi_use_intermediate_is_not_fused(self):
        # The product feeds two adds; folding it into either would force
        # recomputation for the other, so fusion must refuse.
        program = CircuitProgram(name="multiuse")
        a, b = ct_input(program, "a"), ct_input(program, "b")
        c, d = ct_input(program, "c"), ct_input(program, "d")
        product = program.emit(Opcode.MUL, (a, b))
        s1 = program.emit(Opcode.ADD, (product, c))
        s2 = program.emit(Opcode.ADD, (product, d))
        program.mark_output(s1, "s1", 1)
        program.mark_output(s2, "s2", 1)

        stats = compile_tape(program, PARAMS).stats
        assert stats["fused_total"] == 0
        assert stats["tape_ops"] == 3
        assert_backend_parity(program, [{"a": 2, "b": 3, "c": 4, "d": 5}])

    def test_output_intermediate_is_not_fused(self):
        # The product is itself a declared output: fusing it away would
        # leave nothing to decode, so fusion must refuse.
        program = CircuitProgram(name="outint")
        a, b, c = ct_input(program, "a"), ct_input(program, "b"), ct_input(program, "c")
        product = program.emit(Opcode.MUL, (a, b))
        program.mark_output(product, "prod", 1)
        total = program.emit(Opcode.ADD, (product, c))
        program.mark_output(total, "sum", 1)

        stats = compile_tape(program, PARAMS).stats
        assert stats["fused_total"] == 0
        reference = assert_backend_parity(program, [{"a": 2, "b": 3, "c": 4}])
        assert reference[0].outputs == {"prod": [6], "sum": [10]}


class TestAliasingRegression:
    def test_aliased_registers_survive_in_place_execution(self):
        # Regression for the in-place aliasing hazard: ``alias`` shares
        # storage with the raw input, and an execution strategy that wrote
        # the square into a reused buffer (or freed the input's buffer via
        # non-canonical liveness) would report 25 for ``alias``.  Every
        # optimization level must keep the alias intact.
        program = CircuitProgram(name="alias-hazard")
        a = ct_input(program, "x")
        rot = program.emit(Opcode.ROTATE, (a,), step=0)
        marker = program.emit(Opcode.OUTPUT, (rot,))
        program.mark_output(marker, "alias", 1)
        square = program.emit(Opcode.MUL, (a, a))
        program.mark_output(square, "square", 1)
        fourth = program.emit(Opcode.MUL, (square, square))
        program.mark_output(fourth, "fourth", 1)

        reference = assert_backend_parity(program, [{"x": 5}, {"x": 2}, {"x": 7}])
        assert reference[0].outputs == {"alias": [5], "square": [25], "fourth": [625]}


class TestReductionPlanning:
    def test_plans_are_bucketed_and_cached(self):
        program = compiled("(* (* a b) (* c d))")
        tape = get_compiled_tape(program, PARAMS)
        assert tape.plan_for(5) is tape.plan_for(7)  # both bucket to 8
        assert tape.plan_for(9) is not tape.plan_for(7)
        assert tape.plan_for(9) is tape.plan_for(16)

    def test_small_inputs_schedule_no_reductions(self):
        program = compiled("(* (* a b) (* c d))")
        assert get_compiled_tape(program, PARAMS).plan_for(7).reductions == 0

    def test_huge_inputs_stay_bit_identical_to_reference(self):
        # Worst-case magnitudes (t//2 per input) through a depth-3 product
        # tree overflow any unreduced int64 accumulation; the scheduler
        # must insert congruence-preserving reductions and still match the
        # reference evaluator exactly.
        source = "(* (* (* a b) (* c d)) (* (* e f) (* g h)))"
        program = compiled(source)
        huge = PARAMS.plain_modulus // 2
        plan = get_compiled_tape(program, PARAMS).plan_for(huge)
        assert plan.reductions > 0
        names = "abcdefgh"
        inputs = [
            {name: huge for name in names},
            {name: huge - index for index, name in enumerate(names)},
            {name: (huge // (index + 1)) for index, name in enumerate(names)},
            # Python ints beyond int64 must reduce mod t, not overflow.
            {
                name: (2**70 if index % 2 else -(2**70) + 1)
                for index, name in enumerate(names)
            },
        ]
        assert_backend_parity(program, inputs)


class TestAccountingReplay:
    def test_fused_tape_accounting_is_float_identical(self):
        # dot_product_8 is rotation-heavy: fusion rewrites most of its
        # tape, yet every accounting float must equal a metered reference
        # execution because accounting is replayed pre-fusion.
        benchmark = benchmark_by_name("dot_product_8")
        program = api.compile(
            benchmark.expression(), compiler="greedy", name=benchmark.name
        ).circuit
        stats = compile_tape(program, PARAMS).stats
        assert stats["fused_total"] > 0
        inputs = [benchmark.sample_inputs(seed=seed) for seed in range(4)]
        assert_backend_parity(program, inputs)


class TestTapeMemo:
    def test_hit_miss_and_reset_counters(self):
        reset_tape_cache()
        zeros = {
            "hits": 0, "misses": 0, "compiles": 0, "verified": 0, "findings": 0,
            "size": 0,
        }
        assert tape_cache_stats() == zeros
        program = compiled("(+ (* a b) c)")
        first = get_compiled_tape(program, PARAMS)
        assert tape_cache_stats() == {**zeros, "misses": 1, "compiles": 1, "size": 1}
        second = get_compiled_tape(program, PARAMS)
        assert second is first
        assert tape_cache_stats()["hits"] == 1
        assert tape_cache_stats()["compiles"] == 1

    def test_memo_is_name_independent_and_params_keyed(self):
        reset_tape_cache()
        first = get_compiled_tape(compiled("(+ (* a b) c)"), PARAMS)
        # A recompiled circuit with a different name is the same content
        # fingerprint — coalesced batches must share one compiled tape.
        renamed = api.compile("(+ (* a b) c)", compiler="greedy", name="other").circuit
        assert get_compiled_tape(renamed, PARAMS) is first
        assert tape_cache_stats()["hits"] == 1
        # Different BFV parameters are a different executable.
        other = get_compiled_tape(renamed, BFVParameters.default(2048))
        assert other is not first
        assert tape_cache_stats()["compiles"] == 2

    def test_backend_instances_share_the_memo(self):
        reset_tape_cache()
        program = compiled("(+ (* a b) c)")
        inputs = [{"a": 2, "b": 3, "c": 4}]
        execute_many(program, inputs, params=PARAMS, backend=VectorVMBackend())
        compiles = tape_cache_stats()["compiles"]
        execute_many(program, inputs, params=PARAMS, backend=VectorVMBackend())
        assert tape_cache_stats()["compiles"] == compiles
        assert tape_cache_stats()["hits"] >= 1


class TestSlotNarrowing:
    def test_live_set_follows_rotations(self):
        # out[0] = x[0] + x[2]: only slots 0 and 2 are ever read.
        program = CircuitProgram(name="narrow")
        packed = program.emit(
            Opcode.LOAD_INPUT,
            name="x",
            layout=[InputSlot(name=f"x{i}") for i in range(4)],
        )
        rotated = program.emit(Opcode.ROTATE, (packed,), step=2)
        total = program.emit(Opcode.ADD, (packed, rotated))
        program.mark_output(total, "pair", 1)

        tape = compile_tape(program, PARAMS)
        assert tape.live.tolist() == [0, 2]
        # position 0 (slot 0) reads slot 2 -> position 1; slot 4 is dead,
        # so position 1 reads itself.
        assert tape.gathers[2].tolist() == [1, 1]
        assert tape.loads[0].columns == ((0, "x0"), (1, "x2"))
        assert f"(B, 2 live of {PARAMS.slot_count})" in tape.render()
        reference = assert_backend_parity(
            program, [{"x0": 1, "x1": 10, "x2": 100, "x3": 1000}]
        )
        assert reference[0].outputs == {"pair": [101]}

    def test_random_batch_sizes_retain_no_arena_memory(self):
        # A seeded stream of 300 batch sizes in 1..256 through one memoized
        # tape: every arena is dropped with its batch, so the bytes still
        # allocated afterwards stay far below one arena per size seen.
        reset_tape_cache()
        benchmark = benchmark_by_name("matrix_multiply_5x5")
        program = compiled(benchmark.expression())
        tape = get_compiled_tape(program, BFVParameters.default())
        inputs = [benchmark.sample_inputs(seed=seed) for seed in range(256)]
        rng = random.Random(2026)
        sizes = [rng.randint(1, 256) for _ in range(300)]
        tape.execute_batch(inputs)  # plan the reductions before measuring
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for size in sizes:
                tape.execute_batch(inputs[:size])
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20

    def test_concurrent_batches_on_one_tape_match_the_serial_run(self):
        # The server may drain on a client thread beside its serving loop:
        # batches running at once on one memoized tape must not share arenas.
        reset_tape_cache()
        benchmark = benchmark_by_name("matrix_multiply_5x5")
        program = compiled(benchmark.expression())
        tape = get_compiled_tape(program, BFVParameters.default())
        inputs = [benchmark.sample_inputs(seed=seed) for seed in range(64)]
        rng = random.Random(7)
        jobs = [
            [(rng.randrange(64), rng.randint(1, 64)) for _ in range(50)]
            for _ in range(4)
        ]

        def run(batches):
            return [
                [report.outputs for report in tape.execute_batch(inputs[start : start + size])]
                for start, size in batches
            ]

        serial = [run(batches) for batches in jobs]
        results = [None] * len(jobs)
        barrier = threading.Barrier(len(jobs))

        def worker(index):
            barrier.wait()
            results[index] = run(jobs[index])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == serial

    def test_server_exports_the_tape_memo_gauge(self, tmp_path):
        from repro.obs.console import read_snapshot, render_top
        from repro.server import Job, JobServer

        reset_tape_cache()
        server = JobServer(str(tmp_path), backend="vector-vm")
        server.submit(Job(source="(+ (* a b) c)", seed=1))
        server.drain()
        server.close()
        snapshot = read_snapshot(server.store.metrics_path)
        assert snapshot["gauges"]["tape_memo_size"] == tape_cache_stats()["size"] == 1
        assert "tape_memo_size 1" in render_top(snapshot)


class TestWorkloadRegistrySweep:
    """Whole-registry parity: every workload, plain and profiled, B in {1,2,7,32}."""

    @pytest.fixture(scope="class")
    def circuits(self):
        table = {}
        for name in available_workloads():
            workload = build_workload(name)
            table[name] = (
                workload,
                api.compile(workload.source, compiler=workload.compiler, name=name).circuit,
            )
        return table

    @pytest.mark.parametrize("name", available_workloads())
    def test_workload_matches_reference(self, name, circuits):
        workload, program = circuits[name]
        for batch in (1, 2, 7, 32):
            inputs = [workload.sample_inputs(seed=seed) for seed in range(batch)]
            assert_backend_parity(program, inputs)
