"""The common execution-backend protocol and shared accounting machinery.

An :class:`ExecutionBackend` turns a lowered
:class:`~repro.compiler.circuit.CircuitProgram` plus program inputs into
:class:`~repro.compiler.executor.ExecutionReport` objects.  Three built-in
backends register themselves (see :mod:`repro.backends.registry`):

``reference``
    The SEAL-style :class:`~repro.fhe.evaluator.Evaluator` interpreter —
    the bit-compatibility baseline every other backend is tested against.
``vector-vm``
    A linearized register VM executing a whole batch of input sets as
    stacked numpy arrays in one pass over the instruction tape.
``cost-sim``
    A no-crypto simulator running only the noise/latency models, for fast
    design-space exploration and RL reward evaluation.

All backends meter through one :class:`~repro.fhe.meter.ExecutionMeter` and
replicate the evaluator's noise formulas through one :class:`NoiseLedger`,
which is what makes their latency, operation-count and noise figures
bit-identical by construction.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Protocol, Sequence, runtime_checkable

from repro.compiler.circuit import CircuitProgram
from repro.compiler.executor import ExecutionReport, Value
from repro.fhe.meter import ExecutionMeter
from repro.fhe.params import BFVParameters

__all__ = [
    "ExecutionBackend",
    "BaseBackend",
    "NoiseLedger",
    "backend_produces_outputs",
    "program_fingerprint",
]


def backend_produces_outputs(backend: object) -> bool:
    """Whether ``backend`` decrypts real outputs (False for ``cost-sim``).

    The single place the skip-verification rule lives: callers that verify
    decrypted outputs against the plaintext reference consult this to mark
    accounting-only results as unverified rather than vacuously correct.
    """
    return bool(getattr(backend, "produces_outputs", True))


@runtime_checkable
class ExecutionBackend(Protocol):
    """What every execution backend exposes."""

    name: str
    #: False for accounting-only backends whose reports carry no outputs.
    produces_outputs: bool

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
    produces_outputs = True

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


def program_fingerprint(program: CircuitProgram) -> str:
    """Content hash of a circuit (instructions + outputs, name excluded).

    Two circuits with identical instruction tapes share one compiled tape
    and one coalesced batch regardless of the benchmark name they were
    compiled under.  The digest is cached on the circuit
    (:meth:`~repro.compiler.circuit.CircuitProgram.fingerprint`), so the
    coalescer and the compiled-tape memo hash each circuit once.
    """
    return program.fingerprint()
