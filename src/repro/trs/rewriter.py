"""Rewrite engines built on top of the rule set.

Besides the RL policy (which lives in :mod:`repro.rl`), the reproduction
provides three classical drivers of the same action space:

* :class:`GreedyRewriter` -- the original CHEHAB behaviour: repeatedly apply
  the single (rule, location) whose application reduces the analytical cost
  the most, stopping when no rule improves the cost;
* :class:`BeamSearchRewriter` -- a small beam search over rewrite sequences,
  used as an upper-quality/slower reference point;
* :class:`RandomRewriter` -- applies random applicable rules; used by tests
  and as a sanity baseline.

All drivers return both the optimized expression and the sequence of
:class:`RewriteStep` records, so compilation reports can show exactly which
rules were applied where.

Each ``optimize`` call keeps one :class:`~repro.trs.registry.MatchMemo` and
one :class:`~repro.core.cost.CostMemo`: a step matches every rule in one
walk of the current expression and costs each candidate by its delta from
the current expression's DAG, which the memo holds as its base.  Greedy,
random and :func:`apply_sequence` move the base once per accepted step,
beam search once per beam entry.  The work done is reported in
:attr:`RewriteResult.counters`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cost import CostMemo, CostModel
from repro.ir.nodes import Expr
from repro.trs.registry import MatchMemo, RuleSet, default_ruleset

__all__ = [
    "RewriteStep",
    "RewriteResult",
    "apply_sequence",
    "GreedyRewriter",
    "BeamSearchRewriter",
    "RandomRewriter",
    "search_counters",
]


@dataclass(frozen=True)
class RewriteStep:
    """One applied rewrite: which rule, at which match index, and the costs."""

    rule_name: str
    rule_index: int
    location_index: int
    cost_before: float
    cost_after: float


@dataclass
class RewriteResult:
    """Outcome of running a rewrite driver on an expression."""

    initial: Expr
    optimized: Expr
    steps: List[RewriteStep]
    initial_cost: float
    final_cost: float
    #: Work counters of the search (see :func:`search_counters`).
    counters: Dict[str, int] = field(default_factory=dict)
    #: The model that priced ``initial_cost`` and ``final_cost``.
    cost_model: Optional[CostModel] = None

    @property
    def improvement(self) -> float:
        """Fractional cost reduction (0 when the cost did not improve)."""
        if self.initial_cost <= 0:
            return 0.0
        return max(0.0, (self.initial_cost - self.final_cost) / self.initial_cost)


def search_counters(matches: MatchMemo, costs: CostMemo) -> Dict[str, int]:
    """The work one rewrite search did, as integer counters.

    ``nodes_walked`` sums the nodes visited by match walks and cost deltas,
    ``memo_misses`` the nodes that had to be matched or have their depths
    computed, and ``cost_evals`` the expressions costed.
    """
    return {
        "nodes_walked": matches.nodes_walked + costs.nodes_walked,
        "memo_misses": matches.misses + costs.misses,
        "cost_evals": costs.evaluations,
    }


def apply_sequence(
    expr: Expr,
    actions: Sequence[Tuple[int, int]],
    ruleset: Optional[RuleSet] = None,
    cost_model: Optional[CostModel] = None,
) -> RewriteResult:
    """Apply an explicit sequence of ``(rule_index, location_index)`` actions."""
    ruleset = ruleset if ruleset is not None else default_ruleset()
    cost_model = cost_model if cost_model is not None else CostModel()
    matches, costs = MatchMemo(), CostMemo(cost_model)
    steps: List[RewriteStep] = []
    costs.rebase(expr)
    initial_cost = costs.cost(expr)
    current = expr
    current_cost = initial_cost
    for rule_index, location_index in actions:
        if rule_index == ruleset.end_index:
            break
        rule = ruleset[rule_index]
        locations = ruleset.match_paths(current, matches)[rule_index]
        if not locations:
            continue
        location_index = min(location_index, len(locations) - 1)
        cost_before = current_cost
        current = rule.apply_at(current, locations[location_index])
        costs.rebase(current)
        current_cost = costs.cost(current)
        steps.append(
            RewriteStep(
                rule_name=rule.name,
                rule_index=rule_index,
                location_index=location_index,
                cost_before=cost_before,
                cost_after=current_cost,
            )
        )
    return RewriteResult(
        initial=expr,
        optimized=current,
        steps=steps,
        initial_cost=initial_cost,
        final_cost=current_cost,
        counters=search_counters(matches, costs),
        cost_model=costs.model,
    )


class GreedyRewriter:
    """Best-improvement greedy rewriting (the non-RL CHEHAB baseline)."""

    def __init__(
        self,
        ruleset: Optional[RuleSet] = None,
        cost_model: Optional[CostModel] = None,
        max_steps: int = 75,
        max_locations_per_rule: int = 8,
    ) -> None:
        self.ruleset = ruleset if ruleset is not None else default_ruleset()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.max_steps = max_steps
        self.max_locations_per_rule = max_locations_per_rule

    def optimize(self, expr: Expr) -> RewriteResult:
        """Greedily apply the best cost-reducing rule until none improves."""
        matches, costs = MatchMemo(), CostMemo(self.cost_model)
        steps: List[RewriteStep] = []
        costs.rebase(expr)
        initial_cost = costs.cost(expr)
        current = expr
        current_cost = initial_cost
        for _ in range(self.max_steps):
            best: Optional[Tuple[float, int, int, Expr]] = None
            all_locations = self.ruleset.match_paths(current, matches)
            for rule_index, rule in enumerate(self.ruleset):
                for location_index, path in enumerate(
                    all_locations[rule_index][: self.max_locations_per_rule]
                ):
                    candidate = rule.apply_at(current, path)
                    candidate_cost = costs.cost(candidate)
                    if candidate_cost < current_cost - 1e-9 and (
                        best is None or candidate_cost < best[0]
                    ):
                        best = (candidate_cost, rule_index, location_index, candidate)
            if best is None:
                break
            candidate_cost, rule_index, location_index, candidate = best
            steps.append(
                RewriteStep(
                    rule_name=self.ruleset[rule_index].name,
                    rule_index=rule_index,
                    location_index=location_index,
                    cost_before=current_cost,
                    cost_after=candidate_cost,
                )
            )
            current = candidate
            current_cost = candidate_cost
            costs.rebase(current)
        return RewriteResult(
            initial=expr,
            optimized=current,
            steps=steps,
            initial_cost=initial_cost,
            final_cost=current_cost,
            counters=search_counters(matches, costs),
            cost_model=costs.model,
        )


class BeamSearchRewriter:
    """Beam search over rewrite sequences (quality reference, slower)."""

    def __init__(
        self,
        ruleset: Optional[RuleSet] = None,
        cost_model: Optional[CostModel] = None,
        beam_width: int = 4,
        max_steps: int = 20,
        max_locations_per_rule: int = 4,
    ) -> None:
        self.ruleset = ruleset if ruleset is not None else default_ruleset()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.beam_width = beam_width
        self.max_steps = max_steps
        self.max_locations_per_rule = max_locations_per_rule

    def optimize(self, expr: Expr) -> RewriteResult:
        matches, costs = MatchMemo(), CostMemo(self.cost_model)
        costs.rebase(expr)
        initial_cost = costs.cost(expr)
        beam: List[Tuple[float, Expr, List[RewriteStep]]] = [(initial_cost, expr, [])]
        best_cost, best_expr, best_steps = initial_cost, expr, []
        seen = {expr}
        for _ in range(self.max_steps):
            candidates: List[Tuple[float, Expr, List[RewriteStep]]] = []
            for cost, current, steps in beam:
                costs.rebase(current)
                all_locations = self.ruleset.match_paths(current, matches)
                for rule_index, rule in enumerate(self.ruleset):
                    for location_index, path in enumerate(
                        all_locations[rule_index][: self.max_locations_per_rule]
                    ):
                        candidate = rule.apply_at(current, path)
                        if candidate in seen:
                            continue
                        seen.add(candidate)
                        candidate_cost = costs.cost(candidate)
                        step = RewriteStep(
                            rule_name=rule.name,
                            rule_index=rule_index,
                            location_index=location_index,
                            cost_before=cost,
                            cost_after=candidate_cost,
                        )
                        candidates.append((candidate_cost, candidate, steps + [step]))
            if not candidates:
                break
            candidates.sort(key=lambda item: item[0])
            beam = candidates[: self.beam_width]
            if beam[0][0] < best_cost:
                best_cost, best_expr, best_steps = beam[0]
        return RewriteResult(
            initial=expr,
            optimized=best_expr,
            steps=best_steps,
            initial_cost=initial_cost,
            final_cost=best_cost,
            counters=search_counters(matches, costs),
            cost_model=costs.model,
        )


class RandomRewriter:
    """Applies uniformly random applicable rules; a sanity baseline."""

    def __init__(
        self,
        ruleset: Optional[RuleSet] = None,
        cost_model: Optional[CostModel] = None,
        max_steps: int = 20,
        seed: Optional[int] = None,
    ) -> None:
        self.ruleset = ruleset if ruleset is not None else default_ruleset()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.max_steps = max_steps
        self._rng = random.Random(seed)

    def optimize(self, expr: Expr) -> RewriteResult:
        matches, costs = MatchMemo(), CostMemo(self.cost_model)
        steps: List[RewriteStep] = []
        costs.rebase(expr)
        initial_cost = costs.cost(expr)
        current = expr
        current_cost = initial_cost
        for _ in range(self.max_steps):
            all_locations = self.ruleset.match_paths(current, matches)
            applicable = [index for index, paths in enumerate(all_locations) if paths]
            if not applicable:
                break
            rule_index = self._rng.choice(applicable)
            rule = self.ruleset[rule_index]
            locations = all_locations[rule_index]
            location_index = self._rng.randrange(len(locations))
            cost_before = current_cost
            current = rule.apply_at(current, locations[location_index])
            costs.rebase(current)
            current_cost = costs.cost(current)
            steps.append(
                RewriteStep(
                    rule_name=rule.name,
                    rule_index=rule_index,
                    location_index=location_index,
                    cost_before=cost_before,
                    cost_after=current_cost,
                )
            )
        return RewriteResult(
            initial=expr,
            optimized=current,
            steps=steps,
            initial_cost=initial_cost,
            final_cost=current_cost,
            counters=search_counters(matches, costs),
            cost_model=costs.model,
        )
