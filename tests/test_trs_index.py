"""Equivalence of the one-walk matcher, the cost memo and the batched lane
scorer with the per-rule, per-call and per-candidate computations they
replace."""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines.coyote import CoyoteCompiler, CoyoteOptions, _Placement
from repro.compiler.pipeline import Compiler
from repro.core.cost import CostMemo, CostModel, CostWeights
from repro.datagen import RandomExpressionGenerator, SyntheticKernelGenerator
from repro.ir.analysis import (
    count_ops,
    dag_size,
    expression_size,
    iter_subexpressions,
    variables,
)
from repro.ir.nodes import Add, Mul, Var
from repro.ir.parser import parse
from repro.trs.registry import MatchMemo, RuleSet, default_ruleset
from repro.trs.rewriter import GreedyRewriter
from repro.trs.rule import FunctionRule


def _expressions():
    random_gen = RandomExpressionGenerator(max_depth=4, max_vector_size=4, seed=7)
    synthetic = SyntheticKernelGenerator(seed=11, max_size=6)
    return random_gen.generate_many(12) + synthetic.generate_many(12)


def _greedy_states(expr, ruleset):
    """``expr`` and every intermediate state of a greedy run on it."""
    result = GreedyRewriter(ruleset=ruleset, max_steps=12).optimize(expr)
    states = [expr]
    for step in result.steps:
        rule = ruleset[step.rule_index]
        states.append(rule.apply_at(states[-1], rule.find(states[-1])[step.location_index]))
    assert states[-1] == result.optimized
    return states


@pytest.fixture(scope="module")
def greedy_runs():
    ruleset = default_ruleset()
    return [_greedy_states(expr, ruleset) for expr in _expressions()]


def _reference_cost(model: CostModel, expr) -> float:
    """The cost as a tree walk with duplicates and two depth passes."""
    seen, nodes = set(), []
    for _, node in iter_subexpressions(expr):
        if node not in seen:
            seen.add(node)
            nodes.append(node)

    def depth(node, multiplicative):
        if node.is_leaf():
            return 0
        below = max(depth(child, multiplicative) for child in node.children)
        if multiplicative:
            return below + (1 if node.op in ("*", "VecMul") else 0)
        return below + (0 if node.op in ("var", "const", "Vec") else 1)

    fields = {
        "+": "scalar_add", "-": "scalar_sub", "*": "scalar_mul", "neg": "scalar_neg",
        "VecAdd": "vec_add", "VecSub": "vec_sub", "VecMul": "vec_mul",
        "VecNeg": "vec_neg", "<<": "rotations", "Vec": "vec_constructors",
    }
    counts = count_ops(parse("x"))
    for node in nodes:
        if node.op in fields:
            setattr(counts, fields[node.op], getattr(counts, fields[node.op]) + 1)
    return (
        model.weights.ops * model.operation_costs.operations_cost(counts)
        + model.weights.depth * depth(expr, False)
        + model.weights.mult_depth * depth(expr, True)
    )


class TestMatchIndex:
    def test_index_equals_find_on_every_greedy_state(self, greedy_runs):
        ruleset = default_ruleset()
        for states in greedy_runs:
            shared = MatchMemo()
            for state in states:
                expected = [rule.find(state) for rule in ruleset]
                assert ruleset.match_paths(state) == expected
                # A memo carried across the states of one search agrees too.
                assert ruleset.match_paths(state, shared) == expected

    def test_suite_kernels(self):
        from repro.kernels.registry import small_benchmark_suite

        ruleset = default_ruleset()
        for benchmark in small_benchmark_suite():
            expr = benchmark.expression()
            assert ruleset.match_paths(expr) == [rule.find(expr) for rule in ruleset]

    def test_memo_counts_work(self):
        ruleset = default_ruleset()
        memo = MatchMemo()
        expr = parse("(+ (* a b) (* a c))")
        ruleset.match_paths(expr, memo)
        misses = memo.misses
        assert misses == len(set(node for _, node in iter_subexpressions(expr)))
        ruleset.match_paths(expr, memo)
        assert memo.misses == misses
        assert memo.nodes_walked > 0

    def test_every_default_rule_has_a_head(self):
        assert [rule.name for rule in default_ruleset() if rule.head is None] == []

    def test_function_rules_match_only_at_their_heads(self, greedy_runs):
        from repro.kernels.registry import small_benchmark_suite

        function_rules = [rule for rule in default_ruleset() if isinstance(rule, FunctionRule)]
        states = [state for states in greedy_runs for state in states]
        states += [benchmark.expression() for benchmark in small_benchmark_suite()]
        for state in states:
            for _path, node in iter_subexpressions(state):
                for rule in function_rules:
                    if rule.matcher(node):
                        assert isinstance(node, rule.head_types), (rule.name, node)

    def test_tuple_and_missing_heads_are_indexed(self):
        def rewriter(node):
            return Var("z")

        rules = [
            FunctionRule("either", lambda node: isinstance(node, (Add, Mul)), rewriter, head=(Add, Mul)),
            FunctionRule("anywhere", lambda node: isinstance(node, Var), rewriter),
            FunctionRule("adds", lambda node: isinstance(node, Add), rewriter, head=Add),
        ]
        ruleset = RuleSet(rules)
        assert [rule.head_types for rule in ruleset] == [(Add, Mul), (), (Add,)]
        expr = parse("(+ (* a b) (+ c (* d 2)))")
        assert ruleset.match_paths(expr) == [rule.find(expr) for rule in ruleset]
        assert ruleset.match_paths(expr)[0] == [(), (0,), (1,), (1, 1)]

    def test_applicability_helpers_agree_with_find(self):
        ruleset = default_ruleset()
        expr = parse("(+ (* a b) (* a c))")
        applicable = [i for i, rule in enumerate(ruleset) if rule.find(expr)]
        assert ruleset.applicable_rules(expr) == applicable
        mask = ruleset.action_mask(expr)
        assert [i for i, flag in enumerate(mask[:-1]) if flag] == applicable
        assert mask[-1] is True
        for index in applicable:
            rule = ruleset[index]
            assert ruleset.apply(expr, index) == rule.apply_at(expr, rule.find(expr)[0])


class TestCostMemo:
    @pytest.mark.parametrize(
        "model", [CostModel(), CostModel(weights=CostWeights(ops=1, depth=50, mult_depth=50))]
    )
    def test_memo_equals_cost_float_for_float(self, greedy_runs, model):
        ruleset = default_ruleset()
        for states in greedy_runs:
            memo = CostMemo(model)
            for state in states:
                assert memo.cost(state) == model.cost(state) == _reference_cost(model, state)
                # Candidates of the next step, costed through the same memo.
                for rule, paths in zip(ruleset, ruleset.match_paths(state)):
                    for path in paths[:2]:
                        candidate = rule.apply_at(state, path)
                        assert memo.cost(candidate) == model.cost(candidate)
            assert memo.evaluations > len(states)

    def test_squared_chain_is_linear_in_the_dag(self):
        expr = Add(Var("a"), Var("b"))
        for _ in range(64):
            expr = Mul(expr, expr)
        start = time.perf_counter()
        assert count_ops(expr).scalar_mul == 64
        assert dag_size(expr) == 67
        assert variables(expr) == ["a", "b"]
        CostModel().cost(expr)
        assert time.perf_counter() - start < 1.0
        assert expression_size(expr) == 2 ** 66 - 1


def _scalar_lane_search(compiler, group, dag, placements, rng):
    """Score each lane permutation with a Python loop (the batched oracle)."""

    def movement_cost(assignment):
        distinct = set()
        for node_id in group:
            for operand_id in dag.nodes[node_id].operands:
                placement = placements[operand_id]
                distinct.add((placement.register, placement.lane - assignment[node_id]))
        return float(len(distinct))

    width = len(group)
    candidate_count = min(
        compiler.options.max_candidates,
        max(compiler.options.search_candidates, width * width),
    )
    best, best_score = None, float("inf")
    for candidate in range(candidate_count):
        order = list(range(width)) if candidate == 0 else list(rng.permutation(width))
        assignment = {node_id: order[i] for i, node_id in enumerate(group)}
        score = movement_cost(assignment)
        if score < best_score:
            best_score, best = score, assignment
    return best


class TestBatchedLaneScoring:
    def test_same_assignment_as_scalar_loop(self):
        compiler = CoyoteCompiler(CoyoteOptions())
        draw = np.random.default_rng(3)
        for trial in range(60):
            width = int(draw.integers(1, 16))
            operands = 1 if trial % 5 == 0 else 2
            sources = int(draw.integers(operands, 40))
            placements = {
                source: _Placement(
                    register=int(draw.integers(0, 4)), lane=int(draw.integers(0, 20))
                )
                for source in range(sources)
            }
            nodes = {
                100 + i: SimpleNamespace(
                    operands=tuple(int(x) for x in draw.integers(0, sources, operands))
                )
                for i in range(width)
            }
            dag = SimpleNamespace(nodes=nodes)
            group = list(nodes)
            seed = int(draw.integers(0, 1000))
            self._assert_matches_scalar_loop(compiler, group, dag, placements, seed)

    @pytest.mark.parametrize("operands", [1, 2])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_one_node_pack_matches_scalar_loop(self, operands, seed):
        placements = {
            0: _Placement(register=2, lane=5),
            1: _Placement(register=0, lane=3),
        }
        dag = SimpleNamespace(nodes={100: SimpleNamespace(operands=(0, 1)[:operands])})
        for compiler in (
            CoyoteCompiler(CoyoteOptions()),
            CoyoteCompiler(CoyoteOptions(search_candidates=5, max_candidates=3)),
        ):
            lanes = self._assert_matches_scalar_loop(compiler, [100], dag, placements, seed)
            assert lanes == {100: 0}

    @staticmethod
    def _assert_matches_scalar_loop(compiler, group, dag, placements, seed):
        """Same lanes, counter and final RNG state as the Python loop."""
        width = len(group)
        counters = {"lane_candidates": 5}
        rng = np.random.default_rng(seed)
        batched = compiler._search_lanes(group, dag, placements, rng, counters)
        oracle_rng = np.random.default_rng(seed)
        expected = _scalar_lane_search(compiler, group, dag, placements, oracle_rng)
        assert batched == expected
        assert all(type(lane) is int for lane in batched.values())
        options = compiler.options
        assert counters["lane_candidates"] == 5 + min(
            options.max_candidates, max(options.search_candidates, width * width)
        )
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        return batched

    @pytest.mark.parametrize("count", [1, 31, 191])
    def test_shuffling_length_one_rows_draws_nothing(self, count):
        rng = np.random.default_rng(11)
        before = rng.bit_generator.state
        rows = np.zeros((count, 1), dtype=np.int64)
        rng.permuted(rows, axis=1, out=rows)
        assert rng.bit_generator.state == before
        assert not rows.any()

    @pytest.mark.parametrize("width", [1, 2, 7, 16, 40])
    def test_row_shuffle_draws_what_successive_permutations_draw(self, width):
        count = 50
        sequential = np.random.default_rng(5)
        expected = [sequential.permutation(width) for _ in range(count)]
        batched = np.random.default_rng(5)
        rows = np.tile(np.arange(width), (count, 1))
        batched.permuted(rows, axis=1, out=rows)
        assert np.array_equal(rows, np.array(expected).reshape(count, width))
        assert batched.bit_generator.state == sequential.bit_generator.state


class TestStageCounters:
    def test_optimize_stage_reports_counters(self):
        report = Compiler().compile_expression(parse("(+ (* a b) (* a c))"))
        counters = dict(report.trace.stage("optimize").counters)
        assert set(counters) == {"nodes_walked", "memo_misses", "cost_evals"}
        assert all(type(value) is int and value > 0 for value in counters.values())
        payload = report.as_dict()["trace"]["stages"]
        stage = next(entry for entry in payload if entry["name"] == "optimize")
        assert stage["counters"] == counters
        assert "counters" not in next(e for e in payload if e["name"] == "lower")

    def test_vectorize_search_reports_counters(self):
        report = CoyoteCompiler().compile_expression(parse("(+ (* a b) (* c d))"))
        counters = dict(report.trace.stage("vectorize-search").counters)
        assert counters["cost_evals"] >= 1
        assert counters["lane_candidates"] >= 32

    def test_cli_compile_json(self, capsys):
        from repro.__main__ import main

        assert main(["compile", "(+ (* a b) (* a c))", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stage = next(s for s in payload["trace"]["stages"] if s["name"] == "optimize")
        assert stage["counters"]["cost_evals"] > 0
