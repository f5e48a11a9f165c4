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
from typing import Dict, Tuple

from repro.ir.analysis import (
    OpCounts,
    count_node_ops,
    count_ops,
    dag_depths,
    unique_subexpressions,
)
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
        """Full weighted cost of ``expr``."""
        return self._weighted(count_ops(expr), dag_depths(expr, {}))

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
        counts = count_ops(expr)
        ops_cost = self.operation_costs.operations_cost(counts)
        depth, mult = dag_depths(expr, {})
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
    """Costs many rewrites of one expression under one :class:`CostModel`.

    Each :meth:`cost` makes one pruned pass over the DAG to count
    operations and reuses the per-node ``(depth, mult_depth)`` memo, so after
    a rewrite only the new spine's depths are computed.  The result equals
    ``model.cost(expr)`` float for float.

    A memo lives for one ``optimize`` call or one environment episode.  Its
    keys compare structurally, and compilers that parse the same kernel build
    equal but distinct trees, so a longer-lived memo would spend its lookups
    comparing whole trees and would grow without bound.
    """

    __slots__ = ("model", "depths", "evaluations", "nodes_walked")

    def __init__(self, model: CostModel) -> None:
        self.model = model
        self.depths: Dict[Expr, Tuple[int, int]] = {}
        #: Calls of :meth:`cost`.
        self.evaluations = 0
        #: Distinct nodes visited by the counting passes.
        self.nodes_walked = 0

    @property
    def misses(self) -> int:
        """Nodes whose depths had to be computed."""
        return len(self.depths)

    def cost(self, expr: Expr) -> float:
        """``self.model.cost(expr)``, reusing the depths of known nodes."""
        nodes = unique_subexpressions(expr)
        self.evaluations += 1
        self.nodes_walked += len(nodes)
        return self.model._weighted(count_node_ops(nodes), dag_depths(expr, self.depths))


#: Default cost model matching the paper's configuration.
DEFAULT_COST_MODEL = CostModel()


def expression_cost(expr: Expr, model: CostModel = DEFAULT_COST_MODEL) -> float:
    """Convenience wrapper around :meth:`CostModel.cost`."""
    return model.cost(expr)
