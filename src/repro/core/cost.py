"""The FHE-aware analytical cost model (paper Sec. 5.3.1).

The cost of an expression is the weighted sum

.. math::

    \\mathrm{Cost}(e) = w_{ops} \\cdot C_{ops}(e)
                      + w_{depth} \\cdot D_{circuit}(e)
                      + w_{mult} \\cdot D_{mult}(e)

with the per-operation costs used in the paper:

=================  =====
operation          cost
=================  =====
vector add / sub   1
vector mul         100
rotation           50
scalar +, -, *     250
=================  =====

These relative values incentivise vectorization (scalar operations are
penalised), prefer rotations over multiplications, and make additions nearly
free — exactly the ordering of real BFV operation latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.ir.analysis import OpCounts, count_ops, dag_depths, tally_op_counts
from repro.ir.nodes import Expr

__all__ = ["OperationCosts", "CostWeights", "CostModel", "CostMemo", "expression_cost"]


@dataclass(frozen=True)
class OperationCosts:
    """Relative latency assigned to each operation class."""

    vec_add: float = 1.0
    vec_sub: float = 1.0
    vec_mul: float = 100.0
    vec_neg: float = 1.0
    rotation: float = 50.0
    scalar_op: float = 250.0
    #: Vec constructors are not homomorphic operations; by default they are
    #: free (client-side packing).  Lowering accounts for any rotations and
    #: masks they induce explicitly.
    vec_constructor: float = 0.0

    def operations_cost(self, counts: OpCounts) -> float:
        """Total operation cost :math:`C_{ops}` for the given counts."""
        return (
            self.vec_add * counts.vec_add
            + self.vec_sub * counts.vec_sub
            + self.vec_mul * counts.vec_mul
            + self.vec_neg * counts.vec_neg
            + self.rotation * counts.rotations
            + self.scalar_op * counts.scalar_ops
            + self.vec_constructor * counts.vec_constructors
        )


@dataclass(frozen=True)
class CostWeights:
    """Weights of the three cost terms.

    The paper's default is ``(1, 1, 1)``; the reward-weight ablation
    (Table 1) additionally evaluates ``(1, 50, 50)``, ``(1, 100, 100)`` and
    ``(1, 150, 150)``.
    """

    ops: float = 1.0
    depth: float = 1.0
    mult_depth: float = 1.0


@dataclass(frozen=True)
class CostModel:
    """Callable cost model combining operation cost and depth terms."""

    operation_costs: OperationCosts = field(default_factory=OperationCosts)
    weights: CostWeights = field(default_factory=CostWeights)

    def operations_cost(self, expr: Expr) -> float:
        """The :math:`C_{ops}` term alone."""
        return self.operation_costs.operations_cost(count_ops(expr))

    def cost(self, expr: Expr) -> float:
        """Full weighted cost of ``expr``, from one walk over its DAG."""
        tally: Dict[str, int] = {}
        depths = dag_depths(expr, {}, tally)
        return self._weighted(tally_op_counts(tally), depths)

    def _weighted(self, counts: OpCounts, depths: Tuple[int, int]) -> float:
        ops_cost = self.operation_costs.operations_cost(counts)
        return (
            self.weights.ops * ops_cost
            + self.weights.depth * depths[0]
            + self.weights.mult_depth * depths[1]
        )

    def __call__(self, expr: Expr) -> float:
        return self.cost(expr)

    def breakdown(self, expr: Expr) -> dict:
        """Per-term breakdown used for reporting and debugging."""
        tally: Dict[str, int] = {}
        depth, mult = dag_depths(expr, {}, tally)
        counts = tally_op_counts(tally)
        ops_cost = self.operation_costs.operations_cost(counts)
        return {
            "operations_cost": ops_cost,
            "circuit_depth": depth,
            "multiplicative_depth": mult,
            "total": (
                self.weights.ops * ops_cost
                + self.weights.depth * depth
                + self.weights.mult_depth * mult
            ),
            "counts": counts.as_dict(),
        }


class CostMemo:
    """Costs the rewrites of one search's current expression by their delta.

    The memo holds the DAG of a *base* expression -- the search's current
    state -- as a reference count per node plus a per-operator tally.
    :meth:`cost` prices any expression as an exact delta from that base.
    It first references the expression's root; a node that becomes live
    adds its operator and references its children.  It then releases the
    base's root; a node whose count reaches zero subtracts its operator and
    releases its children.  A rewrite shares every node off its new spine
    with the base, so only the new spine and the old one it replaces are
    visited.  Depths come from a per-node ``(depth, mult_depth)`` memo, so
    only new nodes are computed.  The base is left as it was;
    :meth:`rebase` moves it to an accepted expression the same way.  The
    memo starts with an empty base, from which the delta is the whole DAG.
    The result equals ``model.cost(expr)`` float for float.

    A memo lives for one ``optimize`` call or one environment episode.  Its
    keys compare structurally, and compilers that parse the same kernel build
    equal but distinct trees, so a longer-lived memo would spend its lookups
    comparing whole trees and would grow without bound.
    """

    __slots__ = ("model", "depths", "base", "refs", "tally", "evaluations", "nodes_walked")

    def __init__(self, model: CostModel) -> None:
        self.model = model
        self.depths: Dict[Expr, Tuple[int, int]] = {}
        #: The expression the deltas are taken from (None: the empty DAG).
        self.base: Optional[Expr] = None
        #: Live node -> references from its live parents' child slots (plus
        #: one for the root).
        self.refs: Dict[Expr, int] = {}
        #: Operator -> live nodes of the base with that operator.
        self.tally: Dict[str, int] = {}
        #: Calls of :meth:`cost`.
        self.evaluations = 0
        #: Nodes visited by the reference-count deltas of :meth:`cost` and
        #: :meth:`rebase`.
        self.nodes_walked = 0

    @property
    def misses(self) -> int:
        """Nodes whose depths had to be computed."""
        return len(self.depths)

    def cost(self, expr: Expr) -> float:
        """``self.model.cost(expr)``, as a delta from the base's DAG."""
        _, changes = self._delta(expr)
        self.evaluations += 1
        tally = dict(self.tally)
        for op, change in changes.items():
            tally[op] = tally.get(op, 0) + change
        return self.model._weighted(tally_op_counts(tally), dag_depths(expr, self.depths))

    def rebase(self, expr: Expr) -> None:
        """Make ``expr`` the base that later :meth:`cost` calls start from."""
        refs, changes = self._delta(expr)
        for node, count in refs.items():
            if count:
                self.refs[node] = count
            else:
                del self.refs[node]
        for op, change in changes.items():
            self.tally[op] = self.tally.get(op, 0) + change
        self.base = expr

    def _delta(self, expr: Expr) -> Tuple[Dict[Expr, int], Dict[str, int]]:
        """Swap the base's root for ``expr``'s without touching the base.

        Returns the new reference count of every node it visited and the
        change of the per-operator tally.
        """
        base_refs = self.refs
        refs: Dict[Expr, int] = {}
        tally: Dict[str, int] = {}
        walked = 0
        stack = [expr]
        while stack:
            node = stack.pop()
            walked += 1
            count = refs.get(node)
            if count is None:
                count = base_refs.get(node, 0)
            refs[node] = count + 1
            if not count:
                tally[node.op] = tally.get(node.op, 0) + 1
                stack.extend(node.children)
        if self.base is not None:
            stack.append(self.base)
        while stack:
            node = stack.pop()
            walked += 1
            count = refs.get(node)
            if count is None:
                count = base_refs[node]
            refs[node] = count - 1
            if count == 1:
                tally[node.op] = tally.get(node.op, 0) - 1
                stack.extend(node.children)
        self.nodes_walked += walked
        return refs, tally


#: Default cost model matching the paper's configuration.
DEFAULT_COST_MODEL = CostModel()


def expression_cost(expr: Expr, model: CostModel = DEFAULT_COST_MODEL) -> float:
    """Convenience wrapper around :meth:`CostModel.cost`."""
    return model.cost(expr)
