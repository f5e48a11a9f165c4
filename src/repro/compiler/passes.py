"""Classic compiler passes applied around the TRS optimizer.

The original CHEHAB compiler complements term rewriting with standard
optimizations; the reproduction implements the same three:

* **constant folding** -- evaluate operations whose operands are constants;
* **common sub-expression elimination** -- the IR's structural hashing makes
  sharing implicit (identical sub-trees are the same DAG node); the pass
  here exposes the sharing statistics and canonicalises nested negations so
  that equal computations actually hash equally;
* **dead code elimination** -- at expression level there is no dead code per
  se, but lowering can produce unused instructions (e.g. masks that were
  later folded); :func:`dead_code_eliminate` prunes instructions whose
  results are unreachable from the program outputs.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.compiler.circuit import CircuitProgram, Opcode
from repro.ir.nodes import Add, Const, Expr, Mul, Neg, Rotate, Sub, Vec, VecNeg
from repro.ir.analysis import dag_size, expression_size

__all__ = [
    "constant_fold",
    "cse_statistics",
    "dead_code_eliminate",
    "simplify_pipeline",
]


def constant_fold(expr: Expr) -> Expr:
    """Fold constant sub-expressions bottom-up."""
    if expr.is_leaf():
        return expr
    children = [constant_fold(child) for child in expr.children]
    rebuilt = expr if children == list(expr.children) else expr.with_children(children)

    if isinstance(rebuilt, Add) and _both_const(rebuilt):
        return Const(rebuilt.lhs.value + rebuilt.rhs.value)
    if isinstance(rebuilt, Sub) and _both_const(rebuilt):
        return Const(rebuilt.lhs.value - rebuilt.rhs.value)
    if isinstance(rebuilt, Mul) and _both_const(rebuilt):
        return Const(rebuilt.lhs.value * rebuilt.rhs.value)
    if isinstance(rebuilt, Neg) and isinstance(rebuilt.operand, Const):
        return Const(-rebuilt.operand.value)
    if isinstance(rebuilt, Rotate) and rebuilt.step == 0:
        return rebuilt.operand
    if isinstance(rebuilt, Neg) and isinstance(rebuilt.operand, Neg):
        return rebuilt.operand.operand
    if isinstance(rebuilt, VecNeg) and isinstance(rebuilt.operand, VecNeg):
        return rebuilt.operand.operand
    # Arithmetic identities that frequently appear after other folds.
    if isinstance(rebuilt, Mul):
        if _is_const(rebuilt.lhs, 1):
            return rebuilt.rhs
        if _is_const(rebuilt.rhs, 1):
            return rebuilt.lhs
        if _is_const(rebuilt.lhs, 0) or _is_const(rebuilt.rhs, 0):
            return Const(0)
    if isinstance(rebuilt, Add):
        if _is_const(rebuilt.lhs, 0):
            return rebuilt.rhs
        if _is_const(rebuilt.rhs, 0):
            return rebuilt.lhs
    if isinstance(rebuilt, Sub) and _is_const(rebuilt.rhs, 0):
        return rebuilt.lhs
    return rebuilt


def _both_const(node: Expr) -> bool:
    return isinstance(node.children[0], Const) and isinstance(node.children[1], Const)


def _is_const(node: Expr, value: int) -> bool:
    return isinstance(node, Const) and node.value == value


def cse_statistics(expr: Expr) -> Dict[str, int]:
    """Sharing statistics: tree size vs DAG size (difference = CSE savings)."""
    tree = expression_size(expr)
    dag = dag_size(expr)
    return {"tree_size": tree, "dag_size": dag, "shared_nodes": tree - dag}


def dead_code_eliminate(program: CircuitProgram) -> CircuitProgram:
    """Remove instructions whose results never reach a program output.

    When every instruction is live and the registers are already dense
    (``result`` equals its position), there is nothing to prune or
    renumber and ``program`` itself is returned, so the pipeline sees an
    unchanged circuit and takes no second statistics snapshot.
    """
    live: Set[int] = {register for register, _, _ in program.outputs}
    for instruction in reversed(program.instructions):
        if instruction.result in live:
            live.update(instruction.operands)
    if all(
        instruction.result == index and index in live
        for index, instruction in enumerate(program.instructions)
    ):
        return program

    remap: Dict[int, int] = {}
    pruned = CircuitProgram(name=program.name)
    pruned.scalar_inputs = list(program.scalar_inputs)
    for instruction in program.instructions:
        if instruction.result not in live:
            continue
        new_operands = tuple(remap[op] for op in instruction.operands)
        register = pruned.emit(
            instruction.opcode,
            new_operands,
            step=instruction.step,
            name=instruction.name,
            layout=instruction.layout,
            values=instruction.values,
        )
        remap[instruction.result] = register
    for register, name, length in program.outputs:
        pruned.mark_output(remap[register], name, length)
    return pruned


def simplify_pipeline(expr: Expr) -> Expr:
    """Run the expression-level classic passes (currently constant folding)."""
    return constant_fold(expr)
