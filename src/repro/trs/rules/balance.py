"""Circuit balancing rules: reduce (multiplicative) depth of operator chains.

A left- or right-leaning chain of ``k`` multiplications has multiplicative
depth ``k``; balancing it into a tree reduces the depth to ``ceil(log2 k)``,
which directly reduces noise growth (noise grows exponentially with
multiplicative depth in BFV).  The same transformation on addition chains
reduces circuit depth.

Pattern variants cover the three-node case from Appendix E; the general
``balance-*-chain`` rules rebalance arbitrarily long chains in one step.
"""

from __future__ import annotations

from typing import List, Optional, Type

from repro.ir.nodes import Add, Expr, Mul, VecAdd, VecMul
from repro.trs.rule import FunctionRule, PatternRule, Rule

__all__ = ["balance_rules"]


def _collect_chain(node: Expr, cls: Type[Expr]) -> List[Expr]:
    """Flatten a chain of ``cls`` operations into its operand list."""
    if isinstance(node, cls):
        return _collect_chain(node.children[0], cls) + _collect_chain(
            node.children[1], cls
        )
    return [node]


def _build_balanced(operands: List[Expr], cls: Type[Expr]) -> Expr:
    """Combine ``operands`` with ``cls`` into a depth-minimal balanced tree."""
    nodes = list(operands)
    while len(nodes) > 1:
        paired: List[Expr] = []
        for index in range(0, len(nodes) - 1, 2):
            paired.append(cls(nodes[index], nodes[index + 1]))
        if len(nodes) % 2 == 1:
            paired.append(nodes[-1])
        nodes = paired
    return nodes[0]


def _chain_depth(node: Expr, cls: Type[Expr]) -> int:
    if not isinstance(node, cls):
        return 0
    return 1 + max(_chain_depth(child, cls) for child in node.children)


def _make_chain_rule(label: str, cls: Type[Expr]) -> Rule:
    """Rebalance a chain of ``cls`` operations into a balanced tree."""

    def matcher(node: Expr) -> bool:
        if not isinstance(node, cls):
            return False
        operands = _collect_chain(node, cls)
        if len(operands) < 3:
            return False
        balanced_depth = max(1, (len(operands) - 1).bit_length())
        return _chain_depth(node, cls) > balanced_depth

    def rewriter(node: Expr) -> Optional[Expr]:
        operands = _collect_chain(node, cls)
        return _build_balanced(operands, cls)

    return FunctionRule(
        f"balance-{label}-chain",
        matcher,
        rewriter,
        head=cls,
        category="balance",
        description=f"rebalance a {cls.__name__} chain into a depth-minimal tree",
    )


def balance_rules() -> List[Rule]:
    """The balancing rule family."""
    rules: List[Rule] = []

    rules.append(
        PatternRule(
            "balance-mul-right",
            "(* ?x (* ?y (* ?z ?t)))",
            "(* (* ?x ?y) (* ?z ?t))",
            category="balance",
            description="right-leaning multiplication chain => balanced tree",
        )
    )
    rules.append(
        PatternRule(
            "balance-mul-left",
            "(* (* (* ?x ?y) ?z) ?t)",
            "(* (* ?x ?y) (* ?z ?t))",
            category="balance",
            description="left-leaning multiplication chain => balanced tree",
        )
    )
    rules.append(
        PatternRule(
            "balance-add-right",
            "(+ ?x (+ ?y (+ ?z ?t)))",
            "(+ (+ ?x ?y) (+ ?z ?t))",
            category="balance",
            description="right-leaning addition chain => balanced tree",
        )
    )
    rules.append(
        PatternRule(
            "balance-vecmul-right",
            "(VecMul ?x (VecMul ?y (VecMul ?z ?t)))",
            "(VecMul (VecMul ?x ?y) (VecMul ?z ?t))",
            category="balance",
            description="right-leaning VecMul chain => balanced tree",
        )
    )
    rules.append(_make_chain_rule("mul", Mul))
    rules.append(_make_chain_rule("add", Add))
    rules.append(_make_chain_rule("vecmul", VecMul))
    rules.append(_make_chain_rule("vecadd", VecAdd))

    return rules
