"""The common execution-backend protocol and shared accounting machinery.

An :class:`ExecutionBackend` turns a lowered
:class:`~repro.compiler.circuit.CircuitProgram` plus program inputs into
:class:`~repro.compiler.executor.ExecutionReport` objects.  Two built-in
backends register themselves (see :mod:`repro.backends.registry`):

``reference``
    The SEAL-style :class:`~repro.fhe.evaluator.Evaluator` interpreter —
    the bit-compatibility baseline every other backend is tested against.
``vector-vm``
    A linearized register VM executing a whole batch of input sets as
    stacked numpy arrays in one pass over the instruction tape.

All backends meter through one :class:`~repro.fhe.meter.ExecutionMeter` and
replicate the evaluator's noise formulas through one :class:`NoiseLedger`,
which is what makes their latency, operation-count and noise figures
bit-identical by construction.  The vector VM walks that ledger once per
tape through :func:`replay_accounting` and builds its reports from the
resulting :class:`TapeAccounting` with :meth:`TapeAccounting.reports`;
callers that want a circuit's accounting without running it call
:func:`replay_accounting` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.compiler.circuit import CircuitProgram, Opcode
from repro.compiler.executor import ExecutionReport, Value
from repro.core.exceptions import CompilationError
from repro.fhe.meter import ExecutionMeter
from repro.fhe.params import BFVParameters

__all__ = [
    "ExecutionBackend",
    "BaseBackend",
    "NoiseLedger",
    "TapeAccounting",
    "replay_accounting",
    "program_fingerprint",
    "scalar_input",
]


def scalar_input(inputs: Mapping[str, Value], name: str) -> Value:
    """``inputs[name]``, checked to be present and a scalar.

    The one input check every backend (and the server's per-job pre-check)
    raises through, so a malformed input reads the same everywhere.
    """
    value = inputs.get(name)
    if value is None:
        raise CompilationError(f"missing value for program input {name!r}")
    if isinstance(value, (list, tuple)):
        raise CompilationError(
            f"input {name!r} is packed slot-wise and must be a scalar"
        )
    return value


@runtime_checkable
class ExecutionBackend(Protocol):
    """What every execution backend exposes."""

    name: str

    def execute(
        self,
        program: CircuitProgram,
        inputs: Mapping[str, Value],
        params: Optional[BFVParameters] = None,
        context: Optional[object] = None,
    ) -> ExecutionReport: ...

    def execute_many(
        self,
        program: CircuitProgram,
        inputs_list: Sequence[Mapping[str, Value]],
        params: Optional[BFVParameters] = None,
    ) -> List[ExecutionReport]: ...


class BaseBackend:
    """Default ``execute_many``: sequential ``execute`` per input set.

    Backends with genuine batch execution (the vector VM) override it; the
    default keeps every backend usable through the batched entry points.
    """

    name = "base"

    def execute(
        self,
        program: CircuitProgram,
        inputs: Mapping[str, Value],
        params: Optional[BFVParameters] = None,
        context: Optional[object] = None,
    ) -> ExecutionReport:
        raise NotImplementedError

    def execute_many(
        self,
        program: CircuitProgram,
        inputs_list: Sequence[Mapping[str, Value]],
        params: Optional[BFVParameters] = None,
    ) -> List[ExecutionReport]:
        reports = [self.execute(program, inputs, params=params) for inputs in inputs_list]
        for report in reports:
            report.batch_size = len(reports)
        return reports


class NoiseLedger:
    """Scalar per-register noise-budget bookkeeping for tape backends.

    Replicates the :class:`~repro.fhe.evaluator.Evaluator` formulas operation
    by operation (same costs, same evaluation order), so a tape backend's
    noise figures are bit-identical to a reference execution without ever
    materialising :class:`~repro.fhe.ciphertext.Ciphertext` objects.  Meters
    every operation through the shared :class:`ExecutionMeter` as it goes.
    """

    __slots__ = (
        "meter",
        "initial_budget",
        "budget",
        "_add",
        "_negate",
        "_multiply",
        "_multiply_plain",
        "_relinearize",
        "_rotate",
    )

    def __init__(self, meter: ExecutionMeter) -> None:
        self.meter = meter
        noise = meter.noise_model
        self.initial_budget = meter.params.initial_noise_budget
        self.budget = {}  # register -> remaining bits (ciphertexts only)
        self._add = noise.add_cost()
        self._negate = noise.negate_cost()
        self._multiply = noise.multiply_cost()
        self._multiply_plain = noise.multiply_plain_cost()
        self._relinearize = noise.relinearize_cost()
        self._rotate = noise.rotate_bits

    def load_input(self, dst: int) -> None:
        self.budget[dst] = self.initial_budget

    def add(self, dst: int, lhs: int, rhs: int, operation: str) -> None:
        budget = self.budget
        budget[dst] = min(budget[lhs], budget[rhs]) - self._add
        self.meter.record(operation)

    def add_plain(self, dst: int, lhs: int, operation: str) -> None:
        self.budget[dst] = self.budget[lhs] - self._add
        self.meter.record(operation)

    def multiply_relinearize(self, dst: int, lhs: int, rhs: int) -> None:
        budget = self.budget
        value = min(budget[lhs], budget[rhs]) - self._multiply
        self.meter.record("multiply")
        budget[dst] = value - self._relinearize
        self.meter.record("relinearize")

    def multiply_plain(self, dst: int, lhs: int) -> None:
        self.budget[dst] = self.budget[lhs] - self._multiply_plain
        self.meter.record("multiply_plain")

    def negate(self, dst: int, operand: int) -> None:
        self.budget[dst] = self.budget[operand] - self._negate
        self.meter.record("negate")

    def rotate(self, dst: int, operand: int, step: int) -> None:
        # Normalize mod n exactly the way the evaluator does: rotation by
        # any multiple of the slot count is the identity, so the accounting
        # stays in lockstep across the reference and VM backends for
        # congruent steps.
        if step % self.meter.params.slot_count == 0:
            # The evaluator returns a budget-preserving copy without logging.
            self.budget[dst] = self.budget[operand]
            return
        self.budget[dst] = self.budget[operand] - self._rotate
        self.meter.record("rotate")

    def alias(self, dst: int, src: int) -> None:
        if src in self.budget:
            self.budget[dst] = self.budget[src]

    def is_ciphertext(self, register: int) -> bool:
        return register in self.budget

    def output_budget(self, register: int) -> float:
        """Remaining budget of an output register, clamped at zero."""
        return max(0.0, self.budget[register])


@dataclass(frozen=True)
class TapeAccounting:
    """Input-independent accounting of one circuit, replayed once."""

    latency_ms: float
    operation_counts: Dict[str, int]
    encrypted_inputs: int
    remaining_noise_budget: float
    consumed_noise_budget: float
    noise_budget_exhausted: bool

    def reports(self, batch: int, backend: str) -> List[ExecutionReport]:
        """``batch`` reports carrying this accounting and no outputs yet.

        Each report gets its own ``operation_counts`` copy, so callers may
        mutate one report without touching the others.
        """
        return [
            ExecutionReport(
                latency_ms=self.latency_ms,
                operation_counts=dict(self.operation_counts),
                encrypted_inputs=self.encrypted_inputs,
                consumed_noise_budget=self.consumed_noise_budget,
                remaining_noise_budget=self.remaining_noise_budget,
                noise_budget_exhausted=self.noise_budget_exhausted,
                backend=backend,
                batch_size=batch,
            )
            for _ in range(batch)
        ]


def replay_accounting(
    program: CircuitProgram, params: BFVParameters
) -> Tuple[TapeAccounting, Dict[int, Tuple[bool, float]]]:
    """Replay a circuit's instructions through the ledger/meter formulas.

    Mirrors the reference evaluator's metering statement for statement
    (same operations, same order), so every float is identical to a metered
    execution; accounting is input independent, so one replay stands for
    every run.  Returns the aggregate accounting plus per-output-register
    ``(is_ciphertext, clamped_budget)`` pairs.
    """
    meter = ExecutionMeter(params=params)
    ledger = NoiseLedger(meter)
    encrypted_inputs = 0
    for instruction in program.instructions:
        opcode = instruction.opcode
        dst = instruction.result
        if opcode is Opcode.LOAD_INPUT:
            ledger.load_input(dst)
            encrypted_inputs += 1
        elif opcode is Opcode.LOAD_PLAIN:
            pass
        elif opcode is Opcode.ADD:
            ledger.add(dst, *instruction.operands, "add")
        elif opcode is Opcode.SUB:
            ledger.add(dst, *instruction.operands, "sub")
        elif opcode is Opcode.MUL:
            ledger.multiply_relinearize(dst, *instruction.operands)
        elif opcode is Opcode.ADD_PLAIN:
            ledger.add_plain(dst, instruction.operands[0], "add")
        elif opcode is Opcode.SUB_PLAIN:
            ledger.add_plain(dst, instruction.operands[0], "sub")
        elif opcode is Opcode.MUL_PLAIN:
            ledger.multiply_plain(dst, instruction.operands[0])
        elif opcode is Opcode.NEGATE:
            ledger.negate(dst, instruction.operands[0])
        elif opcode is Opcode.ROTATE:
            ledger.rotate(dst, instruction.operands[0], instruction.step)
        elif opcode is Opcode.OUTPUT:
            ledger.alias(dst, instruction.operands[0])
        else:  # pragma: no cover - defensive
            raise CompilationError(f"unknown opcode {opcode}")

    initial_budget = params.initial_noise_budget
    minimum_budget = initial_budget
    exhausted = False
    per_output: Dict[int, Tuple[bool, float]] = {}
    for register, _, _ in program.outputs:
        if not ledger.is_ciphertext(register):
            per_output[register] = (False, 0.0)
            continue
        budget = ledger.output_budget(register)
        minimum_budget = min(minimum_budget, budget)
        if budget <= 0.0:
            exhausted = True
        per_output[register] = (True, budget)
    remaining = max(0.0, minimum_budget)
    accounting = TapeAccounting(
        latency_ms=meter.total_latency_ms,
        operation_counts=meter.operation_counts(),
        encrypted_inputs=encrypted_inputs,
        remaining_noise_budget=remaining,
        consumed_noise_budget=initial_budget - remaining,
        noise_budget_exhausted=exhausted,
    )
    return accounting, per_output


def program_fingerprint(program: CircuitProgram) -> str:
    """Content hash of a circuit (instructions + outputs, name excluded).

    Two circuits with identical instruction tapes share one compiled tape
    and one coalesced batch regardless of the benchmark name they were
    compiled under.  The digest is cached on the circuit
    (:meth:`~repro.compiler.circuit.CircuitProgram.fingerprint`), so the
    coalescer and the compiled-tape memo hash each circuit once.
    """
    return program.fingerprint()
