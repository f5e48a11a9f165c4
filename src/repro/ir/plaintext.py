"""The compiled plaintext check: an expression's meaningful slots as scalar ops.

:func:`~repro.ir.evaluate.evaluate` is the specification of the IR's
plaintext semantics, but it materializes every node's full slot vector to
read ``arity`` slots at the end.  A server verifying each job against that
spec pays for ``slot_count`` slots per node when only the output slots
matter.  :func:`compile_check` does the slot bookkeeping once per
expression instead:

* only the ``(node, slot)`` pairs the output slots ``0..length-1`` depend
  on are compiled; ``Rotate`` and ``Vec`` placement resolve to slot indices
  at compile time and unneeded slots are never computed;
* each pair becomes one scalar op (``+``, ``-``, ``*``) over exact Python
  ints reduced mod the plaintext modulus — a ring homomorphism, so the
  result equals reducing :func:`evaluate`'s exact result — with constants
  folded and identical ops hash-consed into one register;
* running the check binds the variables, replays the flat op list and maps
  the outputs to centred representatives, exactly what
  :func:`~repro.compiler.executor.reference_output` returns.

Errors match :func:`evaluate`'s: an unbound variable, a vector binding
wider than the slot count or a ``Vec`` wider than the slot count raise the
same :class:`~repro.ir.evaluate.EvaluationError`, in the order a full
evaluation would hit them, even when they sit in slots no output reads.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.ir.evaluate import EvaluationError, Value, output_arity
from repro.ir.nodes import (
    Add,
    Const,
    Expr,
    Mul,
    Neg,
    Rotate,
    Sub,
    Var,
    Vec,
    VecAdd,
    VecMul,
    VecNeg,
    VecSub,
)

__all__ = ["PlaintextCheck", "compile_check"]

_VECTOR_VALUES = (list, tuple, np.ndarray)

#: Node type -> how a slot of it compiles: a kind name, or the scalar
#: function of a binary operator.
_KIND: Dict[type, object] = {
    Var: "var",
    Const: "const",
    Rotate: "rotate",
    Vec: "vec",
    Neg: "neg",
    VecNeg: "neg",
    Add: operator.add,
    VecAdd: operator.add,
    Sub: operator.sub,
    VecSub: operator.sub,
    Mul: operator.mul,
    VecMul: operator.mul,
}


class PlaintextCheck:
    """A compiled reference for one expression, slot count and modulus.

    Call :meth:`run` once per input set; compiling is the expensive part
    and is meant to be paid once per expression.
    """

    __slots__ = ("slot_count", "modulus", "_names", "_failure", "_template",
                 "_loads", "_ops", "_outputs")

    def __init__(
        self,
        slot_count: int,
        modulus: int,
        names: List[str],
        failure: Optional[str],
        template: List[int],
        loads: List[Tuple[int, str, int]],
        ops: List[Tuple[Callable[[int, int], int], int, int, int]],
        outputs: List[int],
    ) -> None:
        self.slot_count = slot_count
        self.modulus = modulus
        #: Every variable in first-visit order, checked before anything runs.
        self._names = names
        #: The error a full evaluation hits after checking ``_names``.
        self._failure = failure
        #: The register file with the constants in place.
        self._template = template
        #: ``(register, variable, slot)`` per variable slot read.
        self._loads = loads
        #: ``(function, register, lhs, rhs)``; operands precede their uses.
        self._ops = ops
        self._outputs = outputs

    def run(self, inputs: Mapping[str, Value]) -> List[int]:
        """The centred output slots under ``inputs``."""
        slot_count = self.slot_count
        for name in self._names:
            if name not in inputs:
                raise EvaluationError(f"unbound variable {name!r}")
            value = inputs[name]
            if isinstance(value, _VECTOR_VALUES) and len(value) > slot_count:
                raise EvaluationError(
                    f"vector value of length {len(value)} exceeds {slot_count} slots"
                )
        if self._failure is not None:
            raise EvaluationError(self._failure)
        modulus = self.modulus
        registers = self._template[:]
        for register, name, slot in self._loads:
            value = inputs[name]
            if isinstance(value, _VECTOR_VALUES):
                value = value[slot] if slot < len(value) else 0
            elif slot:
                value = 0
            registers[register] = int(value) % modulus
        for function, register, lhs, rhs in self._ops:
            registers[register] = function(registers[lhs], registers[rhs]) % modulus
        half = modulus // 2
        return [
            value - modulus if value > half else value
            for value in (registers[register] for register in self._outputs)
        ]


def compile_check(
    expr: Expr,
    *,
    modulus: int,
    length: Optional[int] = None,
    slot_count: int = 64,
) -> PlaintextCheck:
    """Compile ``expr``'s output slots ``0..length-1`` mod ``modulus``.

    ``length`` defaults to :func:`~repro.ir.evaluate.output_arity`; the
    slot count is raised to ``length`` when smaller, as
    :func:`~repro.compiler.executor.reference_output` does.
    """
    if length is None:
        length = output_arity(expr)
    slot_count = max(slot_count, length)
    if slot_count < 1:
        raise ValueError("slot_count must be positive")
    names, failure = _validation_order(expr, slot_count)
    compiler = _SlotCompiler(slot_count, modulus)
    outputs = (
        [compiler.slot(expr, slot) for slot in range(length)] if failure is None else []
    )
    return PlaintextCheck(
        slot_count,
        modulus,
        names,
        failure,
        compiler.template,
        compiler.loads,
        compiler.ops,
        outputs,
    )


def _validation_order(expr: Expr, slot_count: int) -> Tuple[List[str], Optional[str]]:
    """The checks a full evaluation makes, in its (pre-order) visiting order.

    Returns the distinct variable names up to the first static failure (a
    ``Vec`` wider than the slot count or an unknown node), plus that
    failure's message.
    """
    names: Dict[str, None] = {}
    visited = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Var:
            names[node.name] = None
        elif kind is not Const:
            if id(node) in visited:
                continue
            visited.add(id(node))
            if kind is Vec and len(node.children) > slot_count:
                failure = f"Vec of {len(node.children)} elements exceeds {slot_count} slots"
                return list(names), failure
            if kind not in _KIND:
                return list(names), f"cannot evaluate node {kind.__name__}"
            stack.extend(reversed(node.children))
    return list(names), None


class _SlotCompiler:
    """Builds the register file and hash-consed op list of one check."""

    def __init__(self, slot_count: int, modulus: int) -> None:
        self.slot_count = slot_count
        self.modulus = modulus
        #: Initial register file: constants in place, zeros elsewhere.
        self.template: List[int] = []
        self.loads: List[Tuple[int, str, int]] = []
        self.ops: List[Tuple[Callable[[int, int], int], int, int, int]] = []
        #: Constant value -> register, and back.
        self.constants: Dict[int, int] = {}
        self.constant_of: Dict[int, int] = {}
        #: ``(variable, slot)`` -> register.
        self.loaded: Dict[Tuple[str, int], int] = {}
        #: ``(function, lhs, rhs)`` -> register: one register per distinct op.
        self.interned: Dict[Tuple[object, int, int], int] = {}
        #: ``(id(node), slot)`` -> register; the nodes outlive the compile.
        self.memo: Dict[Tuple[int, int], int] = {}

    def _allocate(self, value: int = 0) -> int:
        self.template.append(value)
        return len(self.template) - 1

    def constant(self, value: int) -> int:
        value %= self.modulus
        register = self.constants.get(value)
        if register is None:
            register = self.constants[value] = self._allocate(value)
            self.constant_of[register] = value
        return register

    def slot(self, node: Expr, slot: int) -> int:
        """The register holding slot ``slot`` of ``node``'s value."""
        key = (id(node), slot)
        register = self.memo.get(key)
        if register is not None:
            return register
        kind = _KIND[type(node)]
        if kind == "var":
            load = (node.name, slot)
            register = self.loaded.get(load)
            if register is None:
                register = self.loaded[load] = self._allocate()
                self.loads.append((register, node.name, slot))
        elif kind == "const":
            register = self.constant(node.value)
        elif kind == "rotate":
            register = self.slot(node.children[0], (slot + node.step) % self.slot_count)
        elif kind == "vec":
            elements = node.children
            register = (
                self.slot(elements[slot], 0) if slot < len(elements) else self.constant(0)
            )
        elif kind == "neg":
            register = self._op(operator.sub, self.constant(0), self.slot(node.children[0], slot))
        else:
            lhs = self.slot(node.children[0], slot)
            register = self._op(kind, lhs, self.slot(node.children[1], slot))
        self.memo[key] = register
        return register

    def _op(self, function: Callable[[int, int], int], lhs: int, rhs: int) -> int:
        constant_of = self.constant_of
        left, right = constant_of.get(lhs), constant_of.get(rhs)
        if left is not None and right is not None:
            return self.constant(function(left, right))
        # Exact identities mod t: x + 0, 0 + x, x - 0, x * 0, 0 * x, x * 1, 1 * x.
        if function is operator.mul:
            if left == 0 or right == 0:
                return self.constant(0)
            if left == 1:
                return rhs
            if right == 1:
                return lhs
        elif right == 0:
            return lhs
        elif left == 0 and function is operator.add:
            return rhs
        key = (function, lhs, rhs)
        register = self.interned.get(key)
        if register is None:
            register = self.interned[key] = self._allocate()
            self.ops.append((function, register, lhs, rhs))
        return register
