"""The Coyote baseline's layout planner and option checks.

The layout search scores every candidate from the operations its plan
would emit and builds a circuit for the winner only.  The oracle test
builds every candidate anyway and checks that the score is the weighted
opcode count of that circuit, and that the circuit holds no dead code
(which is why the search needs no per-candidate dead code elimination).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.coyote import _LAYOUT_WEIGHTS, CoyoteCompiler, CoyoteOptions, _OpTally
from repro.compiler.circuit import CircuitProgram, Opcode
from repro.compiler.passes import dead_code_eliminate
from repro.compiler.registry import CompilerSpec, build_compiler
from repro.ir.dag import build_dag
from repro.ir.nodes import Vec
from repro.ir.parser import parse
from repro.ir.printer import to_sexpr
from repro.kernels.registry import benchmark_by_name
from repro.server import Job, JobServer, JobState

#: The twelve small serving kernels, two wide kernels and two deep trees.
ORACLE_KERNELS = (
    "dot_product_4",
    "dot_product_8",
    "max_3",
    "max_4",
    "sort_3",
    "hamming_distance_4",
    "l2_distance_4",
    "box_blur_3x3",
    "linear_regression_4",
    "gx_3x3",
    "roberts_cross_3x3",
    "matrix_multiply_3x3",
    "matrix_multiply_5x5",
    "polynomial_regression_16",
    "tree_50_50_10",
    "tree_100_100_8",
)

COUNTS = ("search_candidates", "max_candidates", "layout_candidates")


def _weighted_opcodes(program: CircuitProgram) -> float:
    return sum(_LAYOUT_WEIGHTS.get(ins.opcode, 0.0) for ins in program.instructions)


def _every_candidate(compiler: CoyoteCompiler, folded, count: int):
    """``(tally, program)`` for each of the search's ``count`` candidates,
    each planned twice from the same RNG state, in the search's order."""
    outputs = list(folded.elements) if isinstance(folded, Vec) else [folded]
    dag = build_dag(outputs[0] if len(outputs) == 1 else Vec(*outputs))
    rng = np.random.default_rng(compiler.options.seed)
    for candidate in range(count):
        start = rng.bit_generator.state
        tally = _OpTally()
        compiler._vectorize(dag, outputs, tally, rng, candidate > 0, {})
        end = rng.bit_generator.state
        rng.bit_generator.state = start
        program = CircuitProgram(name="candidate")
        compiler._vectorize(dag, outputs, program, rng, candidate > 0, {})
        assert rng.bit_generator.state == end
        yield tally, program


class TestLayoutPlanner:
    @pytest.mark.parametrize("name", ORACLE_KERNELS)
    def test_planned_score_matches_the_built_candidate(self, name):
        compiler = CoyoteCompiler()
        expr = parse(to_sexpr(benchmark_by_name(name).expression()))
        report = compiler.compile_expression(expr, name=name)
        count = dict(report.trace.stage("vectorize-search").counters)["cost_evals"]
        candidates = list(_every_candidate(compiler, report.optimized_expr, count))
        assert len(candidates) == count
        for tally, program in candidates:
            assert tally.score == _weighted_opcodes(program)
            assert dead_code_eliminate(program).instructions == program.instructions
        # The first cheapest candidate is the circuit the search built.
        scores = [tally.score for tally, _ in candidates]
        winner = candidates[scores.index(min(scores))][1]
        assert winner.instructions == report.circuit.instructions
        assert winner.outputs == report.circuit.outputs

    def test_search_builds_only_the_winner(self, monkeypatch):
        built = []
        original = CoyoteCompiler._vectorize

        def spy(self, dag, outputs, program, *args, **kwargs):
            built.append(type(program))
            return original(self, dag, outputs, program, *args, **kwargs)

        monkeypatch.setattr(CoyoteCompiler, "_vectorize", spy)
        report = CoyoteCompiler().compile_expression(
            benchmark_by_name("dot_product_8").expression()
        )
        evals = dict(report.trace.stage("vectorize-search").counters)["cost_evals"]
        assert built == [_OpTally] * evals + [CircuitProgram]


    def test_a_tally_builds_no_masks_and_no_input_names(self, monkeypatch):
        sent = []
        gathered = []
        original_emit = _OpTally.emit
        original_gather = _OpTally.gather

        def spy_emit(self, opcode, *args, **kwargs):
            sent.append(opcode)
            return original_emit(self, opcode, *args, **kwargs)

        def spy_gather(self, pairs):
            gathered.append(len(pairs))
            return original_gather(self, pairs)

        monkeypatch.setattr(_OpTally, "emit", spy_emit)
        monkeypatch.setattr(_OpTally, "gather", spy_gather)
        report = CoyoteCompiler().compile_expression(
            benchmark_by_name("matrix_multiply_3x3").expression()
        )
        assert sent and gathered
        assert Opcode.LOAD_PLAIN not in sent
        assert Opcode.MUL_PLAIN not in sent and Opcode.ROTATE not in sent
        # The built winner does hold the masks the tallies skipped, and
        # a mask weighs nothing in a layout's score.
        assert report.circuit.stats().plaintext_constants > 0
        assert Opcode.LOAD_PLAIN not in _LAYOUT_WEIGHTS
        assert not hasattr(_OpTally(), "scalar_inputs")

    def test_gather_score_counts_distinct_pairs(self):
        tally = _OpTally()
        tally.emit(Opcode.LOAD_INPUT)
        register = tally.gather({(0, 0): [1, 2], (0, 3): [0], (5, -1): [4]})
        weights = _LAYOUT_WEIGHTS
        assert tally.score == (
            2 * weights[Opcode.ROTATE] + 3 * weights[Opcode.MUL_PLAIN] + 2 * weights[Opcode.ADD]
        )
        assert register == 1
        single = _OpTally()
        single.gather({(0, 0): [0]})
        assert single.score == weights[Opcode.MUL_PLAIN]

    def test_scalar_inputs_are_the_layout_names_once_each(self):
        report = CoyoteCompiler().compile_expression(parse("(+ (* a b) (* a (+ b c)))"))
        load = report.circuit.instructions[0]
        assert load.opcode is Opcode.LOAD_INPUT
        names = [slot.name for slot in load.layout if slot.name is not None]
        assert report.circuit.scalar_inputs == names
        assert sorted(names) == ["a", "b", "c"]


class TestCoyoteOptions:
    @pytest.mark.parametrize("field", COUNTS)
    @pytest.mark.parametrize("value", [0, -1, -3])
    def test_counts_below_one_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            CoyoteOptions(**{field: value})
        with pytest.raises(ValueError, match=field):
            CompilerSpec.create("coyote", **{field: value})
        with pytest.raises(ValueError, match=field):
            build_compiler("coyote", **{field: value})

    def test_both_lane_counts_zero_is_rejected(self):
        with pytest.raises(ValueError, match="search_candidates"):
            CompilerSpec.create("coyote", search_candidates=0, max_candidates=0)

    def test_one_is_the_smallest_count(self):
        options = CoyoteOptions(search_candidates=1, max_candidates=1, layout_candidates=1)
        report = CoyoteCompiler(options).compile_expression(parse("(+ (* a b) (* c d))"))
        counters = dict(report.trace.stage("vectorize-search").counters)
        assert counters == {"cost_evals": 1, "lane_candidates": 2}

    def test_server_job_with_invalid_options_fails_alone(self):
        server = JobServer(None, backend="vector-vm")
        good = [server.submit(Job(source="(+ (* a b) c)", compiler="coyote", seed=s)) for s in range(3)]
        bad = server.submit(
            Job(source="(+ (* a b) c)", compiler="coyote", compiler_options={"max_candidates": 0})
        )
        assert server.drain() == 4
        for job_id in good:
            assert server.status(job_id)["status"] == "completed"
            assert server.result(job_id)["correct"]
        job = server.get(bad)
        assert job.status is JobState.FAILED
        assert "max_candidates" in job.error
        counters = server.telemetry.snapshot()["counters"]
        assert counters["jobs_completed"] == 3 and counters["jobs_failed"] == 1
