"""Unit tests for the FHE-aware analytical cost model."""

import pytest

from repro.core.cost import CostModel, CostWeights, OperationCosts, expression_cost
from repro.ir import parse
from repro.ir.analysis import count_ops, dag_depths
from repro.ir.printer import to_sexpr
from repro.kernels.registry import benchmark_by_name, benchmark_suite


class TestOperationCosts:
    def test_paper_cost_values(self):
        costs = OperationCosts()
        assert costs.vec_add == 1.0
        assert costs.vec_mul == 100.0
        assert costs.rotation == 50.0
        assert costs.scalar_op == 250.0

    def test_scalar_expression_cost(self, cost_model):
        # 2 scalar multiplications + 1 scalar addition = 750; depth 2, mult depth 1.
        expr = parse("(+ (* a b) (* c d))")
        assert cost_model.operations_cost(expr) == 750.0
        assert cost_model.cost(expr) == 750.0 + 2 + 1

    def test_vectorized_equivalent_is_cheaper(self, cost_model):
        scalar = parse("(Vec (+ a b) (+ c d))")
        vectorized = parse("(VecAdd (Vec a c) (Vec b d))")
        assert cost_model.cost(vectorized) < cost_model.cost(scalar)

    def test_rotation_cheaper_than_vec_mul(self, cost_model):
        rotated = parse("(<< (VecAdd (Vec a b) (Vec c d)) 1)")
        multiplied = parse("(VecMul (VecAdd (Vec a b) (Vec c d)) (Vec e f))")
        assert cost_model.cost(rotated) < cost_model.cost(multiplied)

    def test_shared_subexpressions_counted_once(self, cost_model):
        shared = parse("(+ (* a b) (* a b))")
        distinct = parse("(+ (* a b) (* c d))")
        assert cost_model.cost(shared) < cost_model.cost(distinct)


class TestWeights:
    def test_default_weights_are_ones(self):
        weights = CostWeights()
        assert (weights.ops, weights.depth, weights.mult_depth) == (1.0, 1.0, 1.0)

    def test_depth_weight_changes_preference(self):
        deep = parse("(* a (* b (* c d)))")        # depth 3, mult depth 3
        balanced = parse("(* (* a b) (* c d))")    # depth 2, mult depth 2
        flat_model = CostModel()
        depth_model = CostModel(weights=CostWeights(ops=1, depth=150, mult_depth=150))
        # Operation counts are identical, so only the depth terms differ.
        assert flat_model.operations_cost(deep) == flat_model.operations_cost(balanced)
        assert depth_model.cost(deep) - depth_model.cost(balanced) > flat_model.cost(deep) - flat_model.cost(balanced)

    def test_breakdown_fields(self, cost_model):
        breakdown = cost_model.breakdown(parse("(+ (* a b) c)"))
        assert breakdown["circuit_depth"] == 2
        assert breakdown["multiplicative_depth"] == 1
        assert breakdown["operations_cost"] == 500.0
        assert breakdown["total"] == cost_model.cost(parse("(+ (* a b) c)"))

    def test_expression_cost_helper(self):
        assert expression_cost(parse("(+ a b)")) == 250.0 + 1

    def test_callable(self, cost_model):
        expr = parse("(* a b)")
        assert cost_model(expr) == cost_model.cost(expr)


#: The 43-kernel suite plus a deep tree with many equal-but-distinct subtrees.
_ORACLE_EXPRESSIONS = [
    pytest.param(name, id=name)
    for name in [b.name for b in benchmark_suite(include_deep_trees=False)] + ["tree_100_50_8"]
]


class TestOneWalk:
    """``CostModel.cost`` walks the DAG once; ``count_ops`` and
    ``dag_depths`` (two separate walks) are its oracle."""

    @pytest.mark.parametrize("name", _ORACLE_EXPRESSIONS)
    def test_cost_equals_the_two_walk_cost(self, name):
        expr = parse(to_sexpr(benchmark_by_name(name).expression()))
        for model in (CostModel(), CostModel(weights=CostWeights(1.0, 50.0, 50.0))):
            expected = model._weighted(count_ops(expr), dag_depths(expr, {}))
            assert model.cost(expr) == expected
            breakdown = model.breakdown(expr)
            assert breakdown["total"] == expected
            assert breakdown["counts"] == count_ops(expr).as_dict()

    def test_tally_counts_each_new_node_once(self):
        expr = parse("(+ (* a b) (* a b))")
        memo, tally = {}, {}
        assert dag_depths(expr, memo, tally) == (2, 1)
        assert tally == {"+": 1, "*": 1, "var": 2}
        # A node the memo already holds adds nothing: only the new root and
        # the new leaf ``c`` are counted.
        again = {}
        dag_depths(parse("(+ (* a b) c)"), memo, again)
        assert again == {"+": 1, "var": 1}
