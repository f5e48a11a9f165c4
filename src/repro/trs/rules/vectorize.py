"""Vectorization rules: pack scalar operations into vector instructions.

Two families (paper Appendix E):

* **Isomorphic** rules rewrite a ``Vec`` whose elements are all the same
  scalar operation into a single vector operation on re-packed operand
  vectors, e.g.::

      (Vec (+ a b) (+ c d))  =>  (VecAdd (Vec a c) (Vec b d))

  Fixed-width variants (widths 2, 3, 4 and 8) match the paper's
  ``add-vectorize-2`` style rules; a "full" variant per operator matches a
  ``Vec`` of any width whose elements are all that operator.

* **Non-isomorphic** rules handle mixed ``Vec`` elements: every element that
  uses the target operator is packed, while non-matching elements move into
  the first operand vector and the second operand vector is padded with the
  operator's identity element (1 for multiplication, 0 for addition and
  subtraction)::

      (Vec (* a b) (* c d) (- f g))
        => (VecMul (Vec a c (- f g)) (Vec b d 1))
"""

from __future__ import annotations

from typing import Callable, List, Optional, Type

from repro.ir.nodes import (
    Add,
    Const,
    Expr,
    Mul,
    Neg,
    Sub,
    Vec,
    VecAdd,
    VecMul,
    VecNeg,
    VecSub,
)
from repro.trs.rule import FunctionRule, Rule

__all__ = ["vectorization_rules"]

_OP_TABLE = (
    ("add", Add, VecAdd, 0),
    ("sub", Sub, VecSub, 0),
    ("mul", Mul, VecMul, 1),
)

_FIXED_WIDTHS = (2, 3, 4)


def _make_isomorphic_rule(
    label: str,
    scalar_cls: Type[Expr],
    vector_cls: Type[Expr],
    width: Optional[int],
) -> Rule:
    """Vectorize a Vec whose elements are all ``scalar_cls`` operations."""

    def matcher(node: Expr) -> bool:
        if not isinstance(node, Vec):
            return False
        elements = node.elements
        if width is not None and len(elements) != width:
            return False
        if len(elements) < 2:
            return False
        return all(isinstance(element, scalar_cls) for element in elements)

    def rewriter(node: Expr) -> Optional[Expr]:
        elements = node.elements
        lhs = Vec(*[element.children[0] for element in elements])
        rhs = Vec(*[element.children[1] for element in elements])
        return vector_cls(lhs, rhs)

    suffix = "full" if width is None else str(width)
    return FunctionRule(
        f"{label}-vectorize-{suffix}",
        matcher,
        rewriter,
        head=Vec,
        category="vectorize",
        description=f"pack a Vec of {label} operations into a single {vector_cls.__name__}",
    )


def _make_neg_rule(width: Optional[int]) -> Rule:
    """Vectorize a Vec whose elements are all negations."""

    def matcher(node: Expr) -> bool:
        if not isinstance(node, Vec):
            return False
        elements = node.elements
        if width is not None and len(elements) != width:
            return False
        if len(elements) < 2:
            return False
        return all(isinstance(element, Neg) for element in elements)

    def rewriter(node: Expr) -> Optional[Expr]:
        return VecNeg(Vec(*[element.operand for element in node.elements]))

    suffix = "full" if width is None else str(width)
    return FunctionRule(
        f"neg-vectorize-{suffix}",
        matcher,
        rewriter,
        head=Vec,
        category="vectorize",
        description="pack a Vec of negations into a single VecNeg",
    )


def _make_non_isomorphic_rule(
    label: str,
    scalar_cls: Type[Expr],
    vector_cls: Type[Expr],
    identity: int,
) -> Rule:
    """Vectorize the ``scalar_cls`` elements of a mixed Vec (identity padding)."""

    def matcher(node: Expr) -> bool:
        if not isinstance(node, Vec):
            return False
        elements = node.elements
        matching = sum(1 for element in elements if isinstance(element, scalar_cls))
        # The rule is useful only for genuinely mixed vectors: the isomorphic
        # rules already handle the all-matching case.
        return matching >= 2 and matching < len(elements)

    def rewriter(node: Expr) -> Optional[Expr]:
        first: List[Expr] = []
        second: List[Expr] = []
        for element in node.elements:
            if isinstance(element, scalar_cls):
                first.append(element.children[0])
                second.append(element.children[1])
            else:
                first.append(element)
                second.append(Const(identity))
        return vector_cls(Vec(*first), Vec(*second))

    return FunctionRule(
        f"{label}-vectorize-mixed",
        matcher,
        rewriter,
        head=Vec,
        category="vectorize",
        description=(
            f"pack the {label} elements of a mixed Vec, padding the second "
            f"operand with the identity element {identity}"
        ),
    )


def vectorization_rules() -> List[Rule]:
    """The vectorization rule family (isomorphic, full and mixed variants)."""
    rules: List[Rule] = []
    for label, scalar_cls, vector_cls, _identity in _OP_TABLE:
        for width in _FIXED_WIDTHS:
            rules.append(_make_isomorphic_rule(label, scalar_cls, vector_cls, width))
        rules.append(_make_isomorphic_rule(label, scalar_cls, vector_cls, None))
    rules.append(_make_neg_rule(2))
    rules.append(_make_neg_rule(None))
    for label, scalar_cls, vector_cls, identity in _OP_TABLE:
        rules.append(_make_non_isomorphic_rule(label, scalar_cls, vector_cls, identity))
    return rules
