"""The delta cost of :class:`~repro.core.cost.CostMemo` against full walks.

The memo prices a candidate by the reference-count delta between the
candidate's DAG and the base (the search's current expression).  These
tests check that the delta is exact on every candidate greedy costs, on
hand-built DAGs where sharing makes the bookkeeping subtle, and that a
candidate visits a small part of the DAG rather than all of it.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.compiler.registry import build_compiler
from repro.core.cost import CostMemo, CostModel, CostWeights
from repro.ir.analysis import count_ops, dag_depths, dag_size, unique_subexpressions
from repro.ir.nodes import Add, Mul, Sub, Var
from repro.ir.parser import parse
from repro.kernels.registry import benchmark_by_name
from repro.rl.agent import ChehabAgent
from repro.rl.env import FheRewriteEnv
from repro.trs.registry import MatchMemo, default_ruleset
from repro.trs.rewriter import GreedyRewriter

#: The kernels of perfbench's ``serve-small`` workload.
SERVE_SMALL = (
    "dot_product_4",
    "dot_product_8",
    "max_3",
    "max_4",
    "sort_3",
    "hamming_distance_4",
    "l2_distance_4",
    "box_blur_3x3",
    "linear_regression_4",
    "gx_3x3",
    "roberts_cross_3x3",
    "matrix_multiply_3x3",
)
MODELS = [CostModel(), CostModel(weights=CostWeights(ops=1, depth=50, mult_depth=50))]


def _greedy_candidates(expr, ruleset, model):
    """``(state, candidates)`` for every step of a greedy run on ``expr``."""
    greedy = GreedyRewriter(ruleset=ruleset, cost_model=model)
    result = greedy.optimize(expr)
    matches = MatchMemo()
    state = expr
    for step in [None, *result.steps]:
        if step is not None:
            rule = ruleset[step.rule_index]
            state = rule.apply_at(state, locations[step.rule_index][step.location_index])
        locations = ruleset.match_paths(state, matches)
        candidates = [
            rule.apply_at(state, path)
            for rule, paths in zip(ruleset, locations)
            for path in paths[: greedy.max_locations_per_rule]
        ]
        yield state, candidates
    assert state == result.optimized


def _reference_refs(expr):
    """Per node: one reference per child slot of each DAG parent, plus one
    for the root."""
    refs = Counter({expr: 1})
    for node in unique_subexpressions(expr):
        refs.update(node.children)
    return dict(refs)


def _assert_base_is(memo, expr):
    """The memo's base is exactly ``expr``'s DAG."""
    assert memo.base is expr
    assert memo.refs == _reference_refs(expr)
    tally = Counter(node.op for node in unique_subexpressions(expr))
    assert {op: count for op, count in memo.tally.items() if count} == dict(tally)


class TestDeltaMatchesFullCost:
    @pytest.mark.parametrize("model", MODELS, ids=["paper", "depth-heavy"])
    @pytest.mark.parametrize("name", SERVE_SMALL)
    def test_every_greedy_candidate_on_serve_small(self, name, model):
        ruleset = default_ruleset()
        memo = CostMemo(model)
        expr = benchmark_by_name(name).expression()
        for state, candidates in _greedy_candidates(expr, ruleset, model):
            memo.rebase(state)
            assert memo.cost(state) == model.cost(state)
            for candidate in candidates:
                assert memo.cost(candidate) == model.cost(candidate)
            # Costing leaves the base alone; moving it by deltas is exact.
            _assert_base_is(memo, state)

    def test_every_greedy_candidate_on_a_deep_tree(self):
        """tree_100_50_8: 46 steps, 6325 candidates.

        Every state is checked against ``CostModel.cost`` and every
        candidate against the same full walk with a shared depth memo
        (``dag_depths`` memoizes a pure function of the node, so the values
        are those of ``CostModel.cost``; a fresh memo per candidate would
        take about 12 s here).
        """
        model = CostModel()
        ruleset = default_ruleset()
        memo = CostMemo(model)
        depths = {}
        costed = 0
        expr = benchmark_by_name("tree_100_50_8").expression()
        for state, candidates in _greedy_candidates(expr, ruleset, model):
            memo.rebase(state)
            assert memo.cost(state) == model.cost(state)
            for candidate in candidates:
                full = model._weighted(count_ops(candidate), dag_depths(candidate, depths))
                assert memo.cost(candidate) == full
                costed += 1
        assert costed == 6325
        _assert_base_is(memo, state)


class TestHandBuiltDags:
    @pytest.fixture
    def model(self):
        return CostModel()

    def _check(self, model, base, candidate):
        memo = CostMemo(model)
        memo.rebase(base)
        assert memo.cost(base) == model.cost(base)
        assert memo.cost(candidate) == model.cost(candidate)
        # Costing leaves the base as it was; rebasing moves it exactly.
        _assert_base_is(memo, base)
        memo.rebase(candidate)
        _assert_base_is(memo, candidate)
        assert memo.cost(candidate) == model.cost(candidate)
        return memo

    def test_rewrite_one_of_two_equal_occurrences(self, model):
        x = Mul(Var("a"), Var("b"))
        base = Add(x, x)
        # Commute the left occurrence only: X stays live through the right.
        candidate = Add(Mul(Var("b"), Var("a")), x)
        memo = self._check(model, base, candidate)
        assert memo.refs[x] == 1

    def test_rewrite_both_occurrences_to_one_new_node(self, model):
        x = Mul(Var("a"), Var("b"))
        y = Mul(Var("b"), Var("a"))
        # The new node is referenced twice but is one DAG node.
        self._check(model, Add(x, x), Add(y, Mul(Var("b"), Var("a"))))

    def test_rewrite_output_already_in_the_dag(self, model):
        shared = Mul(Var("a"), Var("b"))
        base = Add(shared, Sub(Var("c"), Mul(Var("b"), Var("a"))))
        # Commuting the inner product yields a node the DAG already has.
        candidate = Add(shared, Sub(Var("c"), Mul(Var("a"), Var("b"))))
        memo = self._check(model, base, candidate)
        assert count_ops(candidate).scalar_mul == 1
        assert memo.tally["*"] == 1

    def test_root_rewrite(self, model):
        base = parse("(* (+ a b) (+ a c))")
        candidate = parse("(+ (* (+ a b) a) (* (+ a b) c))")
        memo = self._check(model, base, candidate)
        assert base not in memo.refs

    def test_identity_rewrite(self, model):
        base = parse("(+ (* a b) (* a c))")
        memo = self._check(model, base, parse("(+ (* a b) (* a c))"))
        # An equal candidate only touches the root on each side.
        walked = memo.nodes_walked
        memo.cost(base)
        assert memo.nodes_walked - walked == 2

    def test_empty_base_costs_the_whole_dag(self, model):
        expr = parse("(+ (* a b) (* a b))")
        memo = CostMemo(model)
        assert memo.cost(expr) == model.cost(expr)
        assert memo.refs == {} and memo.base is None


class TestWorkBound:
    def test_candidate_visits_a_small_part_of_a_deep_tree(self):
        """A delta visits the new and the replaced spines, not the DAG."""
        model = CostModel()
        ruleset = default_ruleset()
        expr = benchmark_by_name("tree_100_50_8").expression()
        bound = dag_size(expr) // 4
        memo = CostMemo(model)
        worst = 0
        for step, (state, candidates) in enumerate(_greedy_candidates(expr, ruleset, model)):
            memo.rebase(state)
            for candidate in candidates:
                before = memo.nodes_walked
                memo.cost(candidate)
                worst = max(worst, memo.nodes_walked - before)
            if step == 3:
                break
        assert 0 < worst <= bound


class TestCostedOncePerCompile:
    @pytest.mark.parametrize("compiler", ["greedy", "beam", "coyote"])
    def test_unfolded_source_is_costed_once(self, compiler, monkeypatch):
        calls = []
        original = CostModel.cost

        def counting(self, expr):
            calls.append(expr)
            return original(self, expr)

        monkeypatch.setattr(CostModel, "cost", counting)
        report = build_compiler(compiler).compile_expression(parse("(+ (* a b) (* a c))"))
        # The source snapshot; the optimize stage and the final snapshot
        # reuse it and the search's own costs.
        assert len(calls) == 1
        assert report.final_cost <= report.initial_cost

    def test_rl_compile_costs_the_source_once(self, monkeypatch):
        from repro.experiments.harness import make_agent_compiler

        compiler = make_agent_compiler(ChehabAgent(max_steps=4))
        calls = []
        original = CostModel.cost
        monkeypatch.setattr(
            CostModel, "cost", lambda self, expr: calls.append(expr) or original(self, expr)
        )
        compiler.compile_expression(parse("(+ (* a b) (* a c))"))
        assert len(calls) == 1


class TestRlCostsTheChosenStepOnce:
    def test_step_with_outcome_matches_step_without(self):
        agent = ChehabAgent(max_steps=8)
        expr = parse("(+ (* a b) (* a c))")
        plain, handed = agent._make_env(lambda: expr), agent._make_env(lambda: expr)
        plain.reset(expr)
        handed.reset(expr)
        rule_index = next(i for i, paths in enumerate(handed.locations) if paths)
        rule = agent.ruleset[rule_index]
        candidate = rule.apply_at(expr, handed.locations[rule_index][0])
        outcome = (candidate, handed.costs.cost(candidate))
        evaluations = handed.costs.evaluations
        expected = plain.step((rule_index, 0))
        got = handed.step((rule_index, 0), outcome=outcome)
        assert handed.costs.evaluations == evaluations
        assert got[1:3] == expected[1:3]
        assert handed.current == plain.current and handed.current_cost == plain.current_cost
        assert handed.costs.refs == plain.costs.refs

    def test_agent_saves_one_evaluation_per_step(self, monkeypatch):
        agent = ChehabAgent(max_steps=6)
        expr = benchmark_by_name("dot_product_8").expression()
        handed = agent.optimize(expr)
        step = FheRewriteEnv.step
        # The environment re-applying and re-costing each chosen action.
        monkeypatch.setattr(
            FheRewriteEnv, "step", lambda self, action, outcome=None: step(self, action)
        )
        recosted = agent.optimize(expr)
        assert recosted.steps == handed.steps
        assert recosted.final_cost == handed.final_cost
        saved = recosted.counters["cost_evals"] - handed.counters["cost_evals"]
        assert saved == len(handed.steps) > 0
