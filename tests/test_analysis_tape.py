"""Tape-verifier sweep: every workload × compiler is clean.

The acceptance gate of the static-analysis stack: the full workload
registry, compiled under both real compilers and analyzed through the
pipeline validators and the vector-VM tape verifier, must produce zero
findings — pipeline invariants after every pass, arena safety, output
coverage, reduction-schedule soundness and symbolic circuit equivalence
all hold on everything the repo actually ships.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro import api
from repro.analysis.tape_check import _circuit_terms, _live_positions, _Terms, verify_tape
from repro.backends.tapeopt import compile_tape
from repro.compiler.circuit import CircuitProgram, InputSlot, Opcode
from repro.fhe.params import BFVParameters
from repro.kernels.registry import benchmark_by_name
from repro.workloads import available_workloads, build_workload

PARAMS = BFVParameters.default(1024)
COMPILERS = ("greedy", "coyote")
WORKLOADS = tuple(sorted(available_workloads()))


@pytest.fixture(scope="module")
def compiled():
    """One verified compilation + tape per (workload, compiler)."""
    artifacts = {}
    for workload_name in WORKLOADS:
        workload = build_workload(workload_name)
        for compiler in COMPILERS:
            report = api.compile(
                workload.source, compiler, name=workload.name, verify=True
            )
            tape = compile_tape(report.circuit, PARAMS)
            artifacts[(workload_name, compiler)] = (report, tape)
    return artifacts


@pytest.mark.parametrize("compiler", COMPILERS)
@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_pipeline_validators_clean(compiled, workload_name, compiler) -> None:
    """The per-stage pipeline validators alone (no tape runs)."""
    report, _ = compiled[(workload_name, compiler)]
    assert report.analysis is not None
    assert report.analysis.ok, [
        f.render() for f in report.analysis.findings[:5]
    ]
    assert not report.analysis.findings


@pytest.mark.parametrize("compiler", COMPILERS)
@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_tape_verifier_clean(compiled, workload_name, compiler) -> None:
    """The verifier covers every reduction plan of the executed tape."""
    report, tape = compiled[(workload_name, compiler)]
    analysis = verify_tape(report.circuit, tape, location=workload_name)
    assert analysis.ok, [f.render() for f in analysis.findings[:5]]
    assert not analysis.findings


@pytest.mark.parametrize("former_opt_level", [0, 1, 2])
def test_analyze_facade_all_opt_levels(former_opt_level) -> None:
    """Every former opt level now gets the same full analysis: the knob is
    rejected and the tape checkers always run."""
    workload = build_workload("dot-product")
    with pytest.raises(TypeError):
        api.analyze(
            workload.source, "greedy", name=workload.name, opt_level=former_opt_level
        )
    _, analysis = api.analyze(workload.source, "greedy", name=workload.name)
    assert analysis.ok
    assert not analysis.findings
    checkers = set(analysis.checkers_run)
    assert {"pipeline-expr", "pipeline-circuit"} <= checkers
    assert {
        "tape-arena", "tape-bounds", "tape-outputs", "tape-equivalence", "tape-slots"
    } <= checkers


def test_verified_execution_through_backend() -> None:
    """VectorVMBackend(verify=True) runs the verifier on fresh tapes and
    still executes correctly."""
    from repro.backends.tapeopt import reset_tape_cache, tape_cache_stats
    from repro.backends.vector_vm import VectorVMBackend

    reset_tape_cache()
    report = api.compile("(+ (* a b) (<< c 2))", "greedy", name="verified-exec")
    backend = VectorVMBackend(verify=True)
    execution = backend.execute(
        report.circuit, {"a": 2, "b": 3, "c": 4}, params=PARAMS
    )
    assert execution.outputs
    stats = tape_cache_stats()
    assert stats["verified"] >= 1
    assert stats["findings"] == 0


def _const_and_template_tape():
    """out[:2] = [x, 5] * [3, 4]: one live constant and one live template
    constant, both reaching the output."""
    program = CircuitProgram(name="compact")
    packed = program.emit(
        Opcode.LOAD_INPUT,
        name="x",
        layout=[InputSlot(name="x"), InputSlot(constant=5)],
    )
    plain = program.emit(Opcode.LOAD_PLAIN, name="weights", values=[3, 4])
    product = program.emit(Opcode.MUL_PLAIN, (packed, plain))
    program.mark_output(product, "scaled", 2)
    tape = compile_tape(program, PARAMS)
    assert tape.live.tolist() == [0, 1]
    assert verify_tape(program, tape).ok
    return program, tape


def _rules(report):
    return {(f.checker, f.rule) for f in report.findings}


@pytest.mark.parametrize("target", ["const", "template"])
def test_changed_compact_value_is_an_output_mismatch(target) -> None:
    """One wrong live-slot value in the data the VM executes diverges."""
    program, tape = _const_and_template_tape()
    mutant = copy.copy(tape)
    if target == "const":
        changed = tape.consts[0].copy()
        changed[1] += 1
        mutant.consts = [changed]
    else:
        load = tape.loads[0]
        changed = load.template.copy()
        changed[1] += 1
        mutant.loads = [dataclasses.replace(load, template=changed)]
    report = verify_tape(program, mutant)
    assert ("tape-equivalence", "output-mismatch") in _rules(report)


def test_wrong_width_compact_array_is_a_shape_finding() -> None:
    """A constant one slot wider than the live set is misshapen."""
    program, tape = _const_and_template_tape()
    mutant = copy.copy(tape)
    mutant.consts = [np.append(tape.consts[0], 0)]
    report = verify_tape(program, mutant)
    assert ("tape-slots", "compact-shape") in _rules(report)


#: Coyote circuits whose symbolic terms are trees over a deep DAG: written
#: out as nested tuples they grow exponentially with depth.
DEEP_COYOTE_KERNELS = ("matrix_multiply_5x5", "tree_50_50_10")


@pytest.fixture(scope="module")
def deep_coyote():
    artifacts = {}
    for name in DEEP_COYOTE_KERNELS:
        report = api.compile(benchmark_by_name(name).expression(), "coyote", name=name)
        artifacts[name] = (report.circuit, compile_tape(report.circuit, PARAMS))
    return artifacts


@pytest.mark.parametrize("name", DEEP_COYOTE_KERNELS)
def test_deep_coyote_circuit_verifies_clean(deep_coyote, name) -> None:
    circuit, tape = deep_coyote[name]
    analysis = verify_tape(circuit, tape, location=name)
    assert analysis.ok, [f.render() for f in analysis.findings[:5]]
    assert not analysis.findings


@pytest.mark.parametrize("name", DEEP_COYOTE_KERNELS)
def test_circuit_terms_are_hash_consed(deep_coyote, name) -> None:
    """At most one interned term per instruction, however deep the DAG."""
    circuit, tape = deep_coyote[name]
    term = _Terms()
    outputs = _circuit_terms(circuit, tape.t, tape.n, _live_positions(tape), term)
    assert set(outputs) == {output_name for _, output_name, _ in circuit.outputs}
    assert len(term.keys) <= len(circuit.instructions)


def test_interned_terms_compare_by_id() -> None:
    term = _Terms()
    a, b = term("plain", b"a"), term("plain", b"b")
    assert term("plain", b"a") == a
    assert term.binary("add", a, b) == term.binary("add", b, a)
    assert term.binary("mul", b, a) == term.binary("mul", a, b)
    assert term.binary("sub", a, b) != term.binary("sub", b, a)
    assert term("rot", a, 3) != term("rot", a, 4)


def test_deep_coyote_rotation_change_is_an_output_mismatch(deep_coyote) -> None:
    """One wrong rotation step deep in a Coyote tape still diverges."""
    circuit, tape = deep_coyote["matrix_multiply_5x5"]
    index = next(i for i, op in enumerate(tape.ops) if op.kind.startswith("rot"))
    mutant = copy.copy(tape)
    mutant.ops = list(tape.ops)
    op = tape.ops[index]
    mutant.ops[index] = dataclasses.replace(op, step=op.step % tape.n + 1)
    report = verify_tape(circuit, mutant, input_bounds=(1,))
    assert ("tape-equivalence", "output-mismatch") in _rules(report)
