"""Compiler tests: DSL, passes, lowering, execution, codegen and pipeline."""

import pytest

from repro.compiler import (
    Ciphertext,
    Compiler,
    CompilerOptions,
    Opcode,
    Program,
    execute,
    generate_seal_code,
    lower,
    reference_output,
)
from repro.compiler.dsl import Plaintext, vector_input
from repro.compiler.lowering import LoweringOptions
from repro.compiler.circuit import CircuitProgram, InputSlot
from repro.compiler.passes import constant_fold, cse_statistics, dead_code_eliminate
from repro.compiler.registry import build_compiler
from repro.ir import parse
from repro.ir.nodes import Const
from repro.kernels.registry import benchmark_by_name


class TestDSL:
    def test_staging_builds_ir(self):
        with Program("p") as program:
            a, b = Ciphertext("a"), Ciphertext("b")
            (a * b + a).set_output("y")
        assert program.output_expr == parse("(+ (* a b) a)")
        assert program.inputs == ["a", "b"]

    def test_operators(self):
        with Program("ops") as program:
            a, b = Ciphertext("a"), Ciphertext("b")
            ((a - b) * 2 + (-a) + (a << 1) + (b >> 2)).set_output("y")
        text = str(program.output_expr)
        assert "(<< a 1)" in text and "(<< b -2)" in text and "(- a)" in text

    def test_int_and_plaintext_operands(self):
        with Program("mixed") as program:
            a = Ciphertext("a")
            w = Plaintext(3)
            (a * w + 1).set_output("y")
        assert program.output_expr == parse("(+ (* a 3) 1)")

    def test_multiple_outputs_wrap_in_vec(self):
        with Program("multi") as program:
            a, b = Ciphertext("a"), Ciphertext("b")
            (a + b).set_output("s")
            (a * b).set_output("p")
        assert program.output_expr == parse("(Vec (+ a b) (* a b))")

    def test_vector_input_helper(self):
        with Program("vec") as program:
            xs = vector_input("x", 3)
            (xs[0] + xs[1] + xs[2]).set_output("y")
        assert program.inputs == ["x_0", "x_1", "x_2"]

    def test_set_output_requires_context(self):
        with Program("ctx") as _program:
            a = Ciphertext("a")
        with pytest.raises(RuntimeError):
            (a + a).set_output("y")

    def test_no_outputs_rejected(self):
        with Program("empty") as program:
            Ciphertext("a")
        with pytest.raises(ValueError):
            program.output_expr

    def test_nested_programs_rejected(self):
        with Program("outer"):
            with pytest.raises(RuntimeError):
                with Program("inner"):
                    pass


class TestPasses:
    @pytest.mark.parametrize(
        "before, after",
        [
            ("(+ 2 3)", "5"),
            ("(* (+ 1 2) x)", "(* 3 x)"),
            ("(* x 1)", "x"),
            ("(+ x 0)", "x"),
            ("(* x 0)", "0"),
            ("(- (- x))", "x"),
            ("(<< x 0)", "x"),
            ("(+ (* 2 4) (* x 1))", "(+ 8 x)"),
        ],
    )
    def test_constant_fold(self, before, after):
        assert constant_fold(parse(before)) == parse(after)

    def test_cse_statistics(self):
        stats = cse_statistics(parse("(+ (* a b) (* a b))"))
        assert stats["shared_nodes"] == 3
        assert stats["dag_size"] == 4

    def test_dead_code_eliminate(self):
        program = lower(parse("(+ a b)"), name="dce")
        # Append an unused plaintext load and check it is pruned.
        program.emit(Opcode.LOAD_PLAIN, name="vector", values=(1, 2, 3))
        before = len(program)
        pruned = dead_code_eliminate(program)
        assert len(pruned) == before - 1
        assert pruned.outputs[0][1] == "result"

    def test_dead_code_eliminate_renumbers_after_a_dead_instruction(self):
        program = CircuitProgram(name="gap")
        a = program.emit(Opcode.LOAD_INPUT, layout=(InputSlot(name="a"),))
        program.emit(Opcode.LOAD_PLAIN, name="vector", values=(7,))
        total = program.emit(Opcode.ADD, (a, a))
        program.mark_output(total, "result", 1)
        program.scalar_inputs.append("a")
        pruned = dead_code_eliminate(program)
        assert pruned is not program
        assert [ins.result for ins in pruned.instructions] == [0, 1]
        assert pruned.instructions[1].operands == (0, 0)
        assert pruned.outputs == [(1, "result", 1)]
        assert pruned.scalar_inputs == ["a"]

    def test_dead_code_eliminate_returns_a_live_program_itself(self):
        program = lower(parse("(+ (* a b) c)"), name="live")
        assert dead_code_eliminate(program) is program

    @pytest.mark.parametrize("compiler", ["greedy", "coyote"])
    def test_compile_takes_one_statistics_snapshot(self, compiler, monkeypatch):
        calls = []
        original = CircuitProgram.stats

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(CircuitProgram, "stats", counting)
        report = build_compiler(compiler).compile_expression(
            benchmark_by_name("dot_product_8").expression(), name="dot_product_8"
        )
        assert calls == [report.circuit]


class TestLowering:
    def test_leaf_vec_packs_client_side(self):
        program = lower(parse("(VecAdd (Vec a c) (Vec b d))"), name="packed")
        stats = program.stats()
        assert stats.encrypted_inputs == 2
        assert stats.rotations == 0
        assert stats.additions == 1

    def test_constant_vec_becomes_plaintext_operand(self):
        program = lower(parse("(VecMul (Vec a b) (Vec 2 3))"), name="plain")
        stats = program.stats()
        assert stats.ct_pt_multiplications == 1
        assert stats.ct_ct_multiplications == 0

    def test_layout_after_encryption_adds_rotations(self):
        expr = parse("(VecAdd (Vec a c) (Vec b d))")
        before = lower(expr, options=LoweringOptions(layout_before_encryption=True)).stats()
        after = lower(expr, options=LoweringOptions(layout_before_encryption=False)).stats()
        assert after.rotations > before.rotations
        assert after.encrypted_inputs >= before.encrypted_inputs

    def test_gather_of_computed_elements(self):
        program = lower(parse("(Vec (+ a b) (* c d))"), name="gather")
        stats = program.stats()
        assert stats.rotations >= 1
        assert stats.ct_pt_multiplications >= 1

    def test_scalar_constant_multiplication_is_plain(self):
        stats = lower(parse("(* a 5)")).stats()
        assert stats.ct_pt_multiplications == 1
        assert stats.ct_ct_multiplications == 0

    @pytest.mark.parametrize(
        "text, env, expected_first",
        [
            ("(+ (* a b) c)", {"a": 2, "b": 3, "c": 4}, 10),
            ("(VecAdd (Vec a c) (Vec b d))", {"a": 1, "b": 2, "c": 3, "d": 4}, 3),
            ("(- a b)", {"a": 2, "b": 9}, -7),
            ("(* (- a b) (- a b))", {"a": 7, "b": 3}, 16),
            ("(Vec (+ a b) (* a b) (- a))", {"a": 2, "b": 5}, 7),
            ("(<< (Vec a b c) 1)", {"a": 1, "b": 2, "c": 3}, 2),
        ],
    )
    def test_lowered_circuit_matches_reference(self, text, env, expected_first):
        expr = parse(text)
        program = lower(expr)
        report = execute(program, env)
        reference = reference_output(expr, env)
        assert report.outputs["result"] == reference
        assert reference[0] == expected_first


class TestPipelineAndCodegen:
    def test_pipeline_preserves_semantics(self, motivating_expression):
        compiler = Compiler(CompilerOptions(optimizer="greedy"))
        report = compiler.compile_expression(motivating_expression, name="motivating")
        inputs = {f"v{i}": i for i in range(1, 11)}
        execution = execute(report.circuit, inputs)
        assert execution.outputs["result"] == reference_output(motivating_expression, inputs)
        assert report.final_cost <= report.initial_cost
        assert report.compile_time_s > 0

    def test_none_optimizer_keeps_scalar_ops(self):
        expr = parse("(+ (* a b) (* c d))")
        report = Compiler(CompilerOptions(optimizer="none")).compile_expression(expr)
        assert report.stats.ct_ct_multiplications == 2
        assert report.rewrite_steps == []

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ValueError):
            Compiler(CompilerOptions(optimizer="magic")).compile_expression(parse("(+ a b)"))

    def test_optimizer_object_requires_interface(self):
        with pytest.raises(TypeError):
            Compiler(CompilerOptions(optimizer=object())).compile_expression(parse("(+ a b)"))

    def test_rotation_key_selection_pass(self):
        expr = parse("(+ (+ (* a b) (* c d)) (+ (* e f) (* g h)))")
        options = CompilerOptions(optimizer="greedy", select_rotation_keys=True)
        report = Compiler(options).compile_expression(expr)
        if report.circuit.rotation_steps:
            assert report.rotation_key_plan is not None
            assert report.rotation_key_plan.key_count > 0

    def test_seal_codegen_contains_api_calls(self):
        expr = parse("(+ (* a b) (* c d))")
        report = Compiler(CompilerOptions(optimizer="greedy")).compile_expression(expr, name="dot2")
        code = report.seal_code()
        assert "evaluator." in code
        assert "encrypted_outputs" in code
        assert "relinearize" in code or "multiply" in code

    def test_codegen_covers_every_opcode_used(self):
        program = lower(parse("(Vec (+ a b) (* c 3) (- d))"))
        code = generate_seal_code(program)
        assert "rotate_rows" in code or "multiply_plain" in code
        assert code.count("Ciphertext ct") >= 3

    def test_compilation_report_improvement_bounds(self):
        report = Compiler(CompilerOptions(optimizer="greedy")).compile_expression(parse("(+ a b)"))
        assert 0.0 <= report.cost_improvement <= 1.0
