"""Ciphertext-level circuit representation produced by lowering.

A :class:`CircuitProgram` is a straight-line, SSA-like sequence of
:class:`Instruction` objects over virtual ciphertext registers.  It is the
unit that the executor runs on the FHE simulator, that the code generator
turns into SEAL-style C++, and whose statistics (operation counts, depth,
multiplicative depth, estimated latency) populate Table 6.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Opcode",
    "Instruction",
    "InputSlot",
    "CircuitStats",
    "CircuitProgram",
    "content_digest",
]


class Opcode(enum.Enum):
    """Operation codes of the ciphertext circuit."""

    LOAD_INPUT = "load_input"          # encrypted, possibly packed, input
    LOAD_PLAIN = "load_plain"          # plaintext constant vector
    ADD = "add"                        # ct + ct
    SUB = "sub"                        # ct - ct
    MUL = "mul"                        # ct * ct (ciphertext-ciphertext)
    ADD_PLAIN = "add_plain"            # ct + pt
    SUB_PLAIN = "sub_plain"            # ct - pt
    MUL_PLAIN = "mul_plain"            # ct * pt (ciphertext-plaintext)
    NEGATE = "negate"                  # -ct
    ROTATE = "rotate"                  # cyclic slot rotation by a constant step
    OUTPUT = "output"                  # mark a register as a program output


#: Opcodes that consume noise budget / execution time (everything but loads
#: and output markers).
_COMPUTE_OPCODES = {
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.ADD_PLAIN,
    Opcode.SUB_PLAIN,
    Opcode.MUL_PLAIN,
    Opcode.NEGATE,
    Opcode.ROTATE,
}

_MULTIPLICATIVE = {Opcode.MUL}


@dataclass(frozen=True)
class InputSlot:
    """What a single slot of a packed encrypted input contains.

    Either the name of a scalar program input (``name``) or a literal
    constant (``constant``); exactly one of the two is set.
    """

    name: Optional[str] = None
    constant: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.name is None) == (self.constant is None):
            raise ValueError("an InputSlot holds either a name or a constant")


@dataclass
class Instruction:
    """One SSA instruction: ``result = opcode(operands)``."""

    result: int
    opcode: Opcode
    operands: Tuple[int, ...] = ()
    #: Rotation step (ROTATE), output name (OUTPUT) or packing layout
    #: (LOAD_INPUT) / constant values (LOAD_PLAIN), depending on the opcode.
    step: int = 0
    name: Optional[str] = None
    layout: Tuple[InputSlot, ...] = ()
    values: Tuple[int, ...] = ()

    def is_compute(self) -> bool:
        """True when the instruction is a homomorphic operation."""
        return self.opcode in _COMPUTE_OPCODES


@dataclass
class CircuitStats:
    """Static statistics of a circuit (the columns of Table 6)."""

    depth: int = 0
    mult_depth: int = 0
    ct_ct_multiplications: int = 0
    ct_pt_multiplications: int = 0
    rotations: int = 0
    additions: int = 0
    subtractions: int = 0
    negations: int = 0
    encrypted_inputs: int = 0
    plaintext_constants: int = 0
    total_operations: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "depth": self.depth,
            "mult_depth": self.mult_depth,
            "ct_ct_multiplications": self.ct_ct_multiplications,
            "ct_pt_multiplications": self.ct_pt_multiplications,
            "rotations": self.rotations,
            "additions": self.additions,
            "subtractions": self.subtractions,
            "negations": self.negations,
            "encrypted_inputs": self.encrypted_inputs,
            "plaintext_constants": self.plaintext_constants,
            "total_operations": self.total_operations,
        }


@dataclass
class CircuitProgram:
    """A straight-line ciphertext program.

    Attributes
    ----------
    name:
        Human-readable program name (benchmark kernel name).
    instructions:
        The SSA instruction sequence; ``result`` ids are dense and increase.
    outputs:
        ``(register, output_name, length)`` triples; ``length`` is the number
        of meaningful output slots.
    scalar_inputs:
        Names of the scalar program inputs (before client-side packing).
    rotation_steps:
        The distinct rotation steps used (for rotation-key selection).

    :meth:`fingerprint` caches the content digest; :meth:`emit` and
    :meth:`mark_output` clear it.  Code that edits ``instructions`` or
    ``outputs`` in place must build a new program instead.
    """

    name: str = "circuit"
    instructions: List[Instruction] = field(default_factory=list)
    outputs: List[Tuple[int, str, int]] = field(default_factory=list)
    scalar_inputs: List[str] = field(default_factory=list)
    #: Cached :func:`content_digest`; name independent, so renamed copies
    #: recompute the same value.  Kept through pickling (the digest is a
    #: stable sha256, not a salted ``hash()``).
    _fingerprint: Optional[str] = field(default=None, init=False, compare=False, repr=False)

    # -- construction helpers ----------------------------------------------------
    def _new_register(self) -> int:
        return len(self.instructions)

    def emit(
        self,
        opcode: Opcode,
        operands: Sequence[int] = (),
        *,
        step: int = 0,
        name: Optional[str] = None,
        layout: Sequence[InputSlot] = (),
        values: Sequence[int] = (),
    ) -> int:
        """Append an instruction and return its result register."""
        register = self._new_register()
        self._fingerprint = None
        self.instructions.append(
            Instruction(
                result=register,
                opcode=opcode,
                operands=tuple(operands),
                step=step,
                name=name,
                layout=tuple(layout),
                values=tuple(values),
            )
        )
        return register

    def mark_output(self, register: int, name: str, length: int) -> None:
        """Declare ``register`` as output ``name`` with ``length`` slots."""
        self._fingerprint = None
        self.outputs.append((register, name, length))

    def fingerprint(self) -> str:
        """The circuit's :func:`content_digest`, computed once per content."""
        digest = self._fingerprint
        if digest is None:
            digest = self._fingerprint = content_digest(self)
        return digest

    # -- queries -------------------------------------------------------------------
    @property
    def rotation_steps(self) -> List[int]:
        steps = sorted(
            {
                instruction.step
                for instruction in self.instructions
                if instruction.opcode is Opcode.ROTATE and instruction.step != 0
            }
        )
        return steps

    def __len__(self) -> int:
        return len(self.instructions)

    def stats(self) -> CircuitStats:
        """Compute the static operation/depth statistics of the circuit."""
        stats = CircuitStats()
        depth: Dict[int, int] = {}
        mult_depth: Dict[int, int] = {}
        for instruction in self.instructions:
            operand_depth = max(
                (depth.get(op, 0) for op in instruction.operands), default=0
            )
            operand_mult = max(
                (mult_depth.get(op, 0) for op in instruction.operands), default=0
            )
            opcode = instruction.opcode
            if opcode is Opcode.LOAD_INPUT:
                stats.encrypted_inputs += 1
            elif opcode is Opcode.LOAD_PLAIN:
                stats.plaintext_constants += 1
            elif opcode is Opcode.ADD or opcode is Opcode.ADD_PLAIN:
                stats.additions += 1
            elif opcode is Opcode.SUB or opcode is Opcode.SUB_PLAIN:
                stats.subtractions += 1
            elif opcode is Opcode.MUL:
                stats.ct_ct_multiplications += 1
            elif opcode is Opcode.MUL_PLAIN:
                stats.ct_pt_multiplications += 1
            elif opcode is Opcode.NEGATE:
                stats.negations += 1
            elif opcode is Opcode.ROTATE:
                stats.rotations += 1
            if instruction.is_compute():
                depth[instruction.result] = operand_depth + 1
                mult_depth[instruction.result] = operand_mult + (
                    1 if opcode in _MULTIPLICATIVE else 0
                )
            else:
                depth[instruction.result] = operand_depth
                mult_depth[instruction.result] = operand_mult
        output_registers = [register for register, _, _ in self.outputs]
        stats.depth = max((depth.get(r, 0) for r in output_registers), default=0)
        stats.mult_depth = max(
            (mult_depth.get(r, 0) for r in output_registers), default=0
        )
        stats.total_operations = sum(
            1 for instruction in self.instructions if instruction.is_compute()
        )
        return stats

    def estimated_latency_ms(self, latency_model) -> float:
        """Sum of per-instruction latencies under ``latency_model``."""
        mapping = {
            Opcode.ADD: "add",
            Opcode.SUB: "sub",
            Opcode.ADD_PLAIN: "add",
            Opcode.SUB_PLAIN: "sub",
            Opcode.MUL: "multiply",
            Opcode.MUL_PLAIN: "multiply_plain",
            Opcode.NEGATE: "negate",
            Opcode.ROTATE: "rotate",
        }
        total = 0.0
        for instruction in self.instructions:
            operation = mapping.get(instruction.opcode)
            if operation is not None:
                total += latency_model.cost_ms(operation)
        return total


def content_digest(program: CircuitProgram) -> str:
    """Content hash of a circuit (instructions + outputs, name excluded).

    The execution-side analogue of the compilation cache key: two circuits
    with identical instruction tapes share one compiled tape and one
    coalesced batch regardless of the benchmark name they were compiled
    under.  Callers go through :meth:`CircuitProgram.fingerprint`, which
    hashes each circuit once.
    """
    digest = hashlib.sha256()
    for instruction in program.instructions:
        digest.update(
            repr(
                (
                    instruction.result,
                    instruction.opcode.value,
                    instruction.operands,
                    instruction.step,
                    instruction.layout,
                    instruction.values,
                )
            ).encode("utf-8")
        )
    digest.update(repr(program.outputs).encode("utf-8"))
    return digest.hexdigest()
