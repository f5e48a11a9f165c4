"""Rotation rules: compose, hoist and exploit ciphertext rotations.

Rotations are the data-movement primitive of batched FHE.  They are
expensive (roughly half the cost of a ciphertext multiplication) and add
noise, so the rule set both *removes redundant rotations* (composition,
hoisting out of element-wise operations) and *introduces rotations when they
replace something more expensive* (the composite sum-of-products and
reduction rules of Appendix E, which turn trees of scalar multiplications
and additions into one vector multiplication followed by a logarithmic
rotate-and-add reduction).

Composite rules only fire when every packed operand is a leaf (an input
variable or a constant); this keeps the rewrites slot-exact for the
positions the surrounding program observes.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple, Type

from repro.ir.nodes import (
    Add,
    Const,
    Expr,
    Mul,
    Rotate,
    Vec,
    VecAdd,
    VecMul,
    VecSub,
)
from repro.trs.rule import FunctionRule, PatternRule, Rule

__all__ = ["rotation_rules"]


def _is_leaf_operand(node: Expr) -> bool:
    return node.is_leaf()


def _flatten_sum(node: Expr) -> Optional[List[Expr]]:
    """Flatten a tree of additions into its list of terms (None if not a sum)."""
    if isinstance(node, Add):
        left = _flatten_sum(node.lhs)
        right = _flatten_sum(node.rhs)
        if left is None or right is None:
            return None
        return left + right
    return [node]


def _term_operands(term: Expr) -> Optional[Tuple[Expr, Expr]]:
    """Split a reduction term into (lhs, rhs) factors of a product.

    Products of leaves split naturally; bare leaves are treated as a product
    with the multiplicative identity so that mixed sums still pack.
    """
    if isinstance(term, Mul) and _is_leaf_operand(term.lhs) and _is_leaf_operand(term.rhs):
        return term.lhs, term.rhs
    if _is_leaf_operand(term):
        return term, Const(1)
    return None


def _rotate_reduce(vector: Expr, term_count: int) -> Expr:
    """Build the rotate-and-add reduction summing ``term_count`` slots into slot 0."""
    result = vector
    power = 1 << max(0, (term_count - 1).bit_length())
    step = power // 2
    while step >= 1:
        result = VecAdd(result, Rotate(result, step))
        step //= 2
    return result


def rotation_rules() -> List[Rule]:
    """The rotation rule family."""
    rules: List[Rule] = []

    # -- structural rotation simplification ------------------------------------
    def _rotate_zero_matcher(node: Expr) -> bool:
        return isinstance(node, Rotate) and node.step == 0

    rules.append(
        FunctionRule(
            "rotate-zero",
            _rotate_zero_matcher,
            lambda node: node.operand,
            head=Rotate,
            category="rotation",
            description="(<< x 0) => x",
        )
    )

    def _rotate_compose_matcher(node: Expr) -> bool:
        return isinstance(node, Rotate) and isinstance(node.operand, Rotate)

    def _rotate_compose(node: Expr) -> Optional[Expr]:
        inner = node.operand
        return Rotate(inner.operand, node.step + inner.step)

    rules.append(
        FunctionRule(
            "rotate-compose",
            _rotate_compose_matcher,
            _rotate_compose,
            head=Rotate,
            category="rotation",
            description="(<< (<< x a) b) => (<< x (a+b))",
        )
    )

    # -- hoist rotations out of element-wise operations ------------------------
    for label, vector_cls in (("add", VecAdd), ("sub", VecSub), ("mul", VecMul)):

        def _distribute_matcher(node: Expr, cls: Type[Expr] = vector_cls) -> bool:
            return (
                isinstance(node, cls)
                and isinstance(node.children[0], Rotate)
                and isinstance(node.children[1], Rotate)
                and node.children[0].step == node.children[1].step
            )

        def _distribute(node: Expr, cls: Type[Expr] = vector_cls) -> Optional[Expr]:
            left = node.children[0]
            right = node.children[1]
            return Rotate(cls(left.operand, right.operand), left.step)

        rules.append(
            FunctionRule(
                f"rotate-hoist-{label}",
                _distribute_matcher,
                _distribute,
                head=vector_cls,
                category="rotation",
                description=(
                    f"(Vec{label.capitalize()} (<< x k) (<< y k)) => "
                    f"(<< (Vec{label.capitalize()} x y) k)"
                ),
            )
        )

    # -- composite: pack pairs of isomorphic scalar operations -------------------
    # Unstructured (non-loop) code has no Vec constructor to vectorize; these
    # rules pack two sibling scalar operations over leaf operands into one
    # vector operation and combine the two packed results with a single
    # rotation.  The scalar result lives in slot 0 of the rewritten
    # expression, which is the slot surrounding scalar operations observe.
    def _make_pack_pair_rule(
        name: str,
        outer_op: str,
        inner_cls: Type[Expr],
        inner_vec_cls: Type[Expr],
    ) -> Rule:
        outer_cls = {"+": Add, "*": Mul}[outer_op]
        outer_vec_cls = {"+": VecAdd, "*": VecMul}[outer_op]

        def matcher(node: Expr) -> bool:
            if not isinstance(node, outer_cls):
                return False
            left, right = node.children
            if not (isinstance(left, inner_cls) and isinstance(right, inner_cls)):
                return False
            operands = (*left.children, *right.children)
            return all(_is_leaf_operand(operand) for operand in operands)

        def rewriter(node: Expr) -> Optional[Expr]:
            left, right = node.children
            packed = inner_vec_cls(
                Vec(left.children[0], right.children[0]),
                Vec(left.children[1], right.children[1]),
            )
            return outer_vec_cls(packed, Rotate(packed, 1))

        return FunctionRule(
            name,
            matcher,
            rewriter,
            head=outer_cls,
            category="rotation",
            description=(
                f"pack two sibling {inner_cls.__name__} operations into one "
                f"{inner_vec_cls.__name__} and combine them with one rotation"
            ),
        )

    rules.append(_make_pack_pair_rule("pack-add-of-products", "+", Mul, VecMul))
    rules.append(_make_pack_pair_rule("pack-mul-of-products", "*", Mul, VecMul))
    rules.append(_make_pack_pair_rule("pack-add-of-sums", "+", Add, VecAdd))
    rules.append(_make_pack_pair_rule("pack-mul-of-sums", "*", Add, VecAdd))

    # -- composite: vector of pairwise sums of products -------------------------
    def _pack_pairs_matcher(node: Expr) -> bool:
        if not isinstance(node, Vec) or len(node.elements) < 2:
            return False
        for element in node.elements:
            if not isinstance(element, Add):
                return False
            if not isinstance(element.lhs, Mul) or not isinstance(element.rhs, Mul):
                return False
            for factor in (*element.lhs.children, *element.rhs.children):
                if not _is_leaf_operand(factor):
                    return False
        return True

    def _pack_pairs(node: Expr) -> Optional[Expr]:
        elements = node.elements
        count = len(elements)
        first: List[Expr] = []
        second: List[Expr] = []
        # Lay out the first product of every element, then the second product
        # of every element; a rotation by ``count`` then aligns each pair.
        for element in elements:
            first.append(element.lhs.lhs)
            second.append(element.lhs.rhs)
        for element in elements:
            first.append(element.rhs.lhs)
            second.append(element.rhs.rhs)
        packed = VecMul(Vec(*first), Vec(*second))
        return VecAdd(packed, Rotate(packed, count))

    rules.append(
        FunctionRule(
            "rotate-pack-sum-of-products",
            _pack_pairs_matcher,
            _pack_pairs,
            head=Vec,
            category="rotation",
            description=(
                "(Vec (+ (* a b) (* c d)) ...) => one VecMul followed by a "
                "rotation-aligned VecAdd"
            ),
        )
    )

    # -- composite: reduction of a long sum into slot 0 --------------------------
    def _reduction_target(node: Expr) -> Optional[Expr]:
        """The sum expression a reduction rule should consider, if any."""
        if isinstance(node, Vec) and len(node.elements) == 1:
            return node.elements[0]
        if isinstance(node, Add):
            return node
        return None

    def _reduce_sum_matcher(node: Expr) -> bool:
        target = _reduction_target(node)
        if target is None:
            return False
        terms = _flatten_sum(target)
        if terms is None:
            return False
        minimum = 2 if isinstance(node, Vec) else 3
        if len(terms) < minimum:
            return False
        return all(_term_operands(term) is not None for term in terms)

    def _reduce_sum(node: Expr) -> Optional[Expr]:
        terms = _flatten_sum(_reduction_target(node))
        assert terms is not None
        pairs = [_term_operands(term) for term in terms]
        has_product = any(isinstance(term, Mul) for term in terms)
        if has_product:
            lhs = Vec(*[pair[0] for pair in pairs])
            rhs = Vec(*[pair[1] for pair in pairs])
            packed: Expr = VecMul(lhs, rhs)
        else:
            packed = Vec(*[pair[0] for pair in pairs])
        return _rotate_reduce(packed, len(terms))

    rules.append(
        FunctionRule(
            "rotate-reduce-sum",
            _reduce_sum_matcher,
            _reduce_sum,
            head=(Vec, Add),
            category="rotation",
            description=(
                "(Vec (+ t0 (+ t1 ...))) over leaf products => packed VecMul "
                "plus a logarithmic rotate-and-add reduction into slot 0"
            ),
        )
    )

    # -- composite: element-wise squared difference / product reduction ----------
    def _reduce_sub_mul_matcher(node: Expr) -> bool:
        # Sum (possibly wrapped in a single-element Vec) of squared
        # element-wise differences/sums/products -- the L2-distance motif.
        target = _reduction_target(node)
        if target is None:
            return False
        terms = _flatten_sum(target)
        if terms is None or len(terms) < 2:
            return False
        inner_ops = set()
        for term in terms:
            if not (isinstance(term, Mul) and term.lhs == term.rhs):
                return False
            inner = term.lhs
            if inner.is_leaf() or inner.arity != 2 or inner.op not in ("+", "-", "*"):
                return False
            if not all(_is_leaf_operand(child) for child in inner.children):
                return False
            inner_ops.add(inner.op)
        return len(inner_ops) == 1

    def _reduce_sub_mul(node: Expr) -> Optional[Expr]:
        terms = _flatten_sum(_reduction_target(node))
        assert terms is not None
        inners = [term.lhs for term in terms]
        # Pack the inner expressions element-wise, square the packed vector,
        # then reduce with rotations.
        sample = inners[0]
        lhs = Vec(*[inner.children[0] for inner in inners])
        rhs = Vec(*[inner.children[1] for inner in inners])
        vectorized = {"+": VecAdd, "-": VecSub, "*": VecMul}.get(sample.op)
        if vectorized is None:
            return None
        packed_inner = vectorized(lhs, rhs)
        squared = VecMul(packed_inner, packed_inner)
        return _rotate_reduce(squared, len(terms))

    rules.append(
        FunctionRule(
            "rotate-reduce-squares",
            _reduce_sub_mul_matcher,
            _reduce_sub_mul,
            head=(Vec, Add),
            category="rotation",
            description=(
                "sum of squared element-wise differences => packed VecSub, one "
                "VecMul square and a rotate-and-add reduction (L2-distance motif)"
            ),
        )
    )

    return rules
