"""Static analyses over IR expressions.

These analyses implement the metrics defined in Sec. 3.1.1 and 5.3.1 of the
paper:

* **circuit depth** -- the longest chain of operations between any input and
  the output of the expression;
* **multiplicative depth** -- the longest chain counting only multiplications
  (scalar ``*`` and ``VecMul``), since multiplications dominate noise growth;
* **operation counts** -- per-class counts of scalar/vector operations and
  rotations, used both by the analytical cost function and by the Table 6
  reproduction.

All analyses operate on the *dataflow DAG* implied by the tree: structurally
identical sub-expressions are shared (they would be computed once after CSE),
which matches how the paper reports depth and operation counts.  The DAG walks
are pruned: a node already seen is not descended into again, so an expression
whose tree is exponentially larger than its DAG (``x`` squared ``k`` times)
is analysed in time linear in the DAG.  Only :func:`expression_size` and
:func:`iter_subexpressions` keep tree semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.ir.nodes import Const, Expr, Mul, Rotate, Var, Vec, VecMul

__all__ = [
    "OpCounts",
    "circuit_depth",
    "multiplicative_depth",
    "count_ops",
    "tally_op_counts",
    "dag_depths",
    "expression_size",
    "dag_size",
    "variables",
    "constants",
    "rotation_steps",
    "iter_subexpressions",
    "unique_subexpressions",
]

_MUL_OPS = frozenset({"*", "VecMul"})
_NON_OPS = frozenset({"var", "const", "Vec"})
#: Operator -> the :class:`OpCounts` field it increments.
_OP_FIELDS = {
    "+": "scalar_add",
    "-": "scalar_sub",
    "*": "scalar_mul",
    "neg": "scalar_neg",
    "VecAdd": "vec_add",
    "VecSub": "vec_sub",
    "VecMul": "vec_mul",
    "VecNeg": "vec_neg",
    "<<": "rotations",
    "Vec": "vec_constructors",
}


@dataclass
class OpCounts:
    """Per-class operation counts of an expression's dataflow DAG.

    ``Vec`` constructors are counted separately because they are not
    homomorphic operations themselves; they become client-side packing or
    rotation/mask sequences during lowering.
    """

    scalar_add: int = 0
    scalar_sub: int = 0
    scalar_mul: int = 0
    scalar_neg: int = 0
    vec_add: int = 0
    vec_sub: int = 0
    vec_mul: int = 0
    vec_neg: int = 0
    rotations: int = 0
    vec_constructors: int = 0

    @property
    def scalar_ops(self) -> int:
        """Total number of scalar arithmetic operations."""
        return self.scalar_add + self.scalar_sub + self.scalar_mul + self.scalar_neg

    @property
    def vector_ops(self) -> int:
        """Total number of element-wise vector operations (excluding rotations)."""
        return self.vec_add + self.vec_sub + self.vec_mul + self.vec_neg

    @property
    def multiplications(self) -> int:
        """Total scalar plus vector multiplications."""
        return self.scalar_mul + self.vec_mul

    @property
    def total(self) -> int:
        """All counted operations, including rotations and Vec constructors."""
        return (
            self.scalar_ops
            + self.vector_ops
            + self.rotations
            + self.vec_constructors
        )

    def as_dict(self) -> Dict[str, int]:
        """Plain dictionary view, convenient for reporting."""
        return {
            "scalar_add": self.scalar_add,
            "scalar_sub": self.scalar_sub,
            "scalar_mul": self.scalar_mul,
            "scalar_neg": self.scalar_neg,
            "vec_add": self.vec_add,
            "vec_sub": self.vec_sub,
            "vec_mul": self.vec_mul,
            "vec_neg": self.vec_neg,
            "rotations": self.rotations,
            "vec_constructors": self.vec_constructors,
        }


def iter_subexpressions(expr: Expr) -> Iterator[Tuple[Tuple[int, ...], Expr]]:
    """Yield ``(path, node)`` pairs in pre-order.

    ``path`` is the sequence of child indices leading from the root to the
    node; the root has the empty path ``()``.
    """
    stack: List[Tuple[Tuple[int, ...], Expr]] = [((), expr)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for index in range(len(node.children) - 1, -1, -1):
            stack.append((path + (index,), node.children[index]))


def unique_subexpressions(expr: Expr) -> List[Expr]:
    """Return the distinct sub-expressions of ``expr`` (DAG nodes).

    Nodes come in the order of their first pre-order occurrence.  The walk
    never descends into a node it has already seen: every descendant of a
    repeated node occurred inside its first occurrence, so pruning does not
    change that order.
    """
    seen: Set[Expr] = set()
    ordered: List[Expr] = []
    stack: List[Expr] = [expr]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        ordered.append(node)
        stack.extend(reversed(node.children))
    return ordered


def expression_size(expr: Expr) -> int:
    """Number of nodes in the expression *tree* (with duplication)."""
    sizes: Dict[Expr, int] = {}
    stack: List[Tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if node in sizes:
            continue
        if expanded or node.is_leaf():
            sizes[node] = 1 + sum(sizes[child] for child in node.children)
            continue
        stack.append((node, True))
        stack.extend((child, False) for child in node.children if child not in sizes)
    return sizes[expr]


def dag_size(expr: Expr) -> int:
    """Number of nodes in the expression *DAG* (shared sub-expressions counted once)."""
    return len(unique_subexpressions(expr))


def variables(expr: Expr) -> List[str]:
    """Names of the distinct variables of ``expr``, in first-occurrence order."""
    seen: Set[str] = set()
    ordered: List[str] = []
    for node in unique_subexpressions(expr):
        if isinstance(node, Var) and node.name not in seen:
            seen.add(node.name)
            ordered.append(node.name)
    return ordered


def constants(expr: Expr) -> List[int]:
    """Distinct constant values of ``expr``, in first-occurrence order."""
    seen: Set[int] = set()
    ordered: List[int] = []
    for node in unique_subexpressions(expr):
        if isinstance(node, Const) and node.value not in seen:
            seen.add(node.value)
            ordered.append(node.value)
    return ordered


def rotation_steps(expr: Expr) -> List[int]:
    """Distinct non-zero rotation steps appearing in ``expr``."""
    steps: Set[int] = set()
    for node in unique_subexpressions(expr):
        if isinstance(node, Rotate) and node.step != 0:
            steps.add(node.step)
    return sorted(steps)


def circuit_depth(expr: Expr) -> int:
    """Length of the longest operation chain from any input to the output."""
    return dag_depths(expr, {})[0]


def multiplicative_depth(expr: Expr) -> int:
    """Length of the longest chain counting only multiplications."""
    return dag_depths(expr, {})[1]


def dag_depths(
    expr: Expr,
    memo: Dict[Expr, Tuple[int, int]],
    tally: Optional[Dict[str, int]] = None,
) -> Tuple[int, int]:
    """``(circuit_depth, multiplicative_depth)`` of ``expr``, memoized in ``memo``.

    ``memo`` maps nodes to their depth pair and is filled in as a side
    effect.  A caller that costs many rewrites of one expression can keep
    it: only the nodes a rewrite created (the new spine) are computed.
    Given a ``tally``, each node added to ``memo`` also adds one to its
    operator's count there; from an empty memo that is the per-operator
    tally :func:`count_ops` takes, in the same walk.
    """
    # Iterative post-order to avoid recursion limits on deep expressions.
    stack: List[Tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if node in memo:
            continue
        leaf = node.is_leaf()
        if not (expanded or leaf):
            stack.append((node, True))
            stack.extend((child, False) for child in node.children if child not in memo)
            continue
        if tally is not None:
            tally[node.op] = tally.get(node.op, 0) + 1
        if leaf:
            memo[node] = (0, 0)
            continue
        depth = mult_depth = 0
        for child in node.children:
            child_depth, child_mult = memo[child]
            depth = max(depth, child_depth)
            mult_depth = max(mult_depth, child_mult)
        memo[node] = (
            depth + (0 if node.op in _NON_OPS else 1),
            mult_depth + (1 if node.op in _MUL_OPS else 0),
        )
    return memo[expr]


def count_ops(expr: Expr) -> OpCounts:
    """Count operations over the dataflow DAG of ``expr``."""
    tally: Dict[str, int] = {}
    for node in unique_subexpressions(expr):
        tally[node.op] = tally.get(node.op, 0) + 1
    return tally_op_counts(tally)


def tally_op_counts(tally: Mapping[str, int]) -> OpCounts:
    """The :class:`OpCounts` of a per-operator tally of DAG nodes."""
    return OpCounts(
        **{_OP_FIELDS[op]: count for op, count in tally.items() if op in _OP_FIELDS}
    )
