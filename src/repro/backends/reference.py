"""The reference backend: the SEAL-style evaluator interpreter.

Runs every instruction through a fresh
:class:`~repro.fhe.evaluator.Evaluator` (its own
:class:`~repro.fhe.meter.ExecutionMeter`, so accounting is per-execution),
encrypting program inputs with the client-side packing layouts recorded by
lowering and decrypting the declared outputs.  This is the bit-compatibility
baseline the vector VM and cost simulator are tested against.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Union

from repro.backends.base import BaseBackend, scalar_input
from repro.backends.registry import register_backend
from repro.compiler.circuit import CircuitProgram, Instruction, Opcode
from repro.compiler.executor import ExecutionReport, Value
from repro.core.exceptions import CompilationError
from repro.fhe.ciphertext import Ciphertext, Plaintext
from repro.fhe.evaluator import Evaluator, FHEContext
from repro.fhe.meter import ExecutionMeter
from repro.fhe.params import BFVParameters

__all__ = ["ReferenceBackend"]


def _slot_value(slot, inputs: Mapping[str, Value]) -> int:
    if slot.constant is not None:
        return int(slot.constant)
    return int(scalar_input(inputs, slot.name))


def _build_plaintext(instruction: Instruction, context: FHEContext) -> Plaintext:
    if instruction.name == "broadcast":
        return context.encoder.encode_scalar(instruction.values[0])
    return context.encoder.encode(list(instruction.values))


@register_backend(
    "reference",
    description="SEAL-style Evaluator interpreter (one input set at a time)",
    use_when="bit-compatibility baseline; anything touching FHEContext/keys",
)
class ReferenceBackend(BaseBackend):
    """Interpret the circuit on the simulated BFV evaluator."""

    name = "reference"

    def execute(
        self,
        program: CircuitProgram,
        inputs: Mapping[str, Value],
        params: Optional[BFVParameters] = None,
        context: Optional[FHEContext] = None,
    ) -> ExecutionReport:
        if context is None:
            # Generate exactly the Galois keys the circuit needs.
            steps = sorted(set(program.rotation_steps))
            context = FHEContext(params=params, galois_steps=steps or None)
        meter = ExecutionMeter.for_context(context)
        # Honour the context's strict-noise contract (fail fast on budget
        # exhaustion) while metering per-execution.
        evaluator = Evaluator(
            context, strict_noise=context.evaluator.strict_noise, meter=meter
        )

        registers: Dict[int, Union[Ciphertext, Plaintext]] = {}
        encrypted_inputs = 0

        for instruction in program.instructions:
            opcode = instruction.opcode
            if opcode is Opcode.LOAD_INPUT:
                slot_values = [_slot_value(slot, inputs) for slot in instruction.layout]
                plaintext = context.encoder.encode(slot_values)
                registers[instruction.result] = context.encryptor.encrypt(plaintext)
                encrypted_inputs += 1
            elif opcode is Opcode.LOAD_PLAIN:
                registers[instruction.result] = _build_plaintext(instruction, context)
            elif opcode is Opcode.ADD:
                lhs, rhs = (registers[op] for op in instruction.operands)
                registers[instruction.result] = evaluator.add(lhs, rhs)
            elif opcode is Opcode.SUB:
                lhs, rhs = (registers[op] for op in instruction.operands)
                registers[instruction.result] = evaluator.sub(lhs, rhs)
            elif opcode is Opcode.MUL:
                lhs, rhs = (registers[op] for op in instruction.operands)
                result = evaluator.multiply(lhs, rhs)
                registers[instruction.result] = evaluator.relinearize(result)
            elif opcode is Opcode.ADD_PLAIN:
                lhs = registers[instruction.operands[0]]
                plain = registers[instruction.operands[1]]
                registers[instruction.result] = evaluator.add_plain(lhs, plain)
            elif opcode is Opcode.SUB_PLAIN:
                lhs = registers[instruction.operands[0]]
                plain = registers[instruction.operands[1]]
                registers[instruction.result] = evaluator.sub_plain(lhs, plain)
            elif opcode is Opcode.MUL_PLAIN:
                lhs = registers[instruction.operands[0]]
                plain = registers[instruction.operands[1]]
                registers[instruction.result] = evaluator.multiply_plain(lhs, plain)
            elif opcode is Opcode.NEGATE:
                registers[instruction.result] = evaluator.negate(
                    registers[instruction.operands[0]]
                )
            elif opcode is Opcode.ROTATE:
                registers[instruction.result] = evaluator.rotate(
                    registers[instruction.operands[0]], instruction.step
                )
            elif opcode is Opcode.OUTPUT:
                registers[instruction.result] = registers[instruction.operands[0]]
            else:  # pragma: no cover - defensive
                raise CompilationError(f"unknown opcode {opcode}")

        report = ExecutionReport(
            latency_ms=meter.total_latency_ms,
            operation_counts=meter.operation_counts(),
            encrypted_inputs=encrypted_inputs,
            backend=self.name,
        )

        initial_budget = context.params.initial_noise_budget
        minimum_budget = initial_budget
        half = context.params.plain_modulus // 2
        for register, name, length in program.outputs:
            value = registers[register]
            if isinstance(value, Plaintext):
                decoded = context.encoder.decode(value, length)
                report.outputs[name] = decoded
                continue
            budget = context.decryptor.invariant_noise_budget(value)
            minimum_budget = min(minimum_budget, budget)
            if budget <= 0.0:
                report.noise_budget_exhausted = True
            raw = value.slots[:length]
            decoded = [
                int(v - context.params.plain_modulus) if v > half else int(v) for v in raw
            ]
            report.outputs[name] = decoded

        report.remaining_noise_budget = max(0.0, minimum_budget)
        report.consumed_noise_budget = initial_budget - report.remaining_noise_budget
        return report
