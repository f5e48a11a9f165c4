"""The FHE-rewriting environment (the MDP of paper Sec. 5).

States are IR expressions; the observation exposed to the policy contains
the ICI token ids of the current expression, the action mask over rewrite
rules (plus ``END``) and, for the hierarchical policy, the number of match
locations of every rule.  Actions are ``(rule_index, location_index)``
pairs; selecting ``END`` (or reaching the step limit) terminates the episode
and triggers the terminal reward.

Each episode keeps one :class:`~repro.trs.registry.MatchMemo` and one
:class:`~repro.core.cost.CostMemo` based at the current expression, so an
observation matches every rule in one walk, a step is costed by its delta
from the current DAG, and only the nodes a step created are matched anew.
A caller that already applied and costed an action (the guided agent)
hands the outcome to :meth:`FheRewriteEnv.step`, which then neither
re-applies nor re-costs it.

The environment follows the Gym ``reset``/``step`` convention but is
dependency-free.  Multiple independent copies can be stepped in a simple
round-robin fashion by :class:`repro.rl.ppo.PPOTrainer`, mirroring the
paper's 8 parallel environments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost import CostMemo
from repro.ir.nodes import Expr
from repro.ir.tokenize import ICITokenizer
from repro.rl.reward import RewardConfig
from repro.trs.registry import MatchMemo, RuleSet, default_ruleset

__all__ = ["EnvConfig", "Observation", "FheRewriteEnv"]


@dataclass
class EnvConfig:
    """Static configuration of the rewriting environment."""

    max_steps: int = 75
    max_locations: int = 16
    max_tokens: int = 256
    reward: RewardConfig = field(default_factory=RewardConfig)


@dataclass
class Observation:
    """What the policy sees at each step."""

    tokens: np.ndarray            # (max_tokens,) int token ids
    padding_mask: np.ndarray      # (max_tokens,) 1 for real tokens
    rule_mask: np.ndarray         # (action_count,) bool, True = applicable (END always True)
    location_counts: np.ndarray   # (rule_count,) number of match locations per rule


class FheRewriteEnv:
    """A single environment instance optimizing one expression per episode."""

    def __init__(
        self,
        expression_source: Callable[[], Expr],
        ruleset: Optional[RuleSet] = None,
        tokenizer: Optional[ICITokenizer] = None,
        config: Optional[EnvConfig] = None,
    ) -> None:
        self.expression_source = expression_source
        self.ruleset = ruleset if ruleset is not None else default_ruleset()
        self.config = config if config is not None else EnvConfig()
        self.tokenizer = (
            tokenizer
            if tokenizer is not None
            else ICITokenizer(max_length=self.config.max_tokens)
        )
        self.current: Optional[Expr] = None
        self.initial_cost: float = 0.0
        self.current_cost: float = 0.0
        self.initial_latency_ms: float = 0.0
        self.steps_taken: int = 0
        self.episode_reward: float = 0.0
        #: Every rule's match paths in :attr:`current` (set by each observation).
        self.locations: List[List[Tuple[int, ...]]] = []
        self.matches = MatchMemo()
        self.costs = CostMemo(self.config.reward.cost_model)

    # -- helpers -----------------------------------------------------------------
    @property
    def action_count(self) -> int:
        return self.ruleset.action_count

    @property
    def rule_count(self) -> int:
        return len(self.ruleset)

    @property
    def end_index(self) -> int:
        return self.ruleset.end_index

    def _observation(self) -> Observation:
        assert self.current is not None
        tokens = np.asarray(self.tokenizer.encode(self.current), dtype=np.int64)
        padding = np.asarray(self.tokenizer.attention_mask(tokens), dtype=np.int64)
        location_counts = np.zeros(self.rule_count, dtype=np.int64)
        rule_mask = np.zeros(self.action_count, dtype=bool)
        self.locations = self.ruleset.match_paths(self.current, self.matches)
        for index, locations in enumerate(self.locations):
            if locations:
                location_counts[index] = min(len(locations), self.config.max_locations)
                rule_mask[index] = True
        rule_mask[self.end_index] = True
        return Observation(
            tokens=tokens,
            padding_mask=padding,
            rule_mask=rule_mask,
            location_counts=location_counts,
        )

    # -- gym-style interface ----------------------------------------------------------
    def reset(self, expr: Optional[Expr] = None) -> Observation:
        """Start a new episode on ``expr`` (or one drawn from the source)."""
        self.current = expr if expr is not None else self.expression_source()
        self.matches = MatchMemo()
        self.costs = CostMemo(self.config.reward.cost_model)
        self.costs.rebase(self.current)
        self.initial_cost = self.costs.cost(self.current)
        self.current_cost = self.initial_cost
        if self.config.reward.use_latency_terminal:
            self.initial_latency_ms = self.config.reward.simulated_latency_ms(self.current)
        self.steps_taken = 0
        self.episode_reward = 0.0
        return self._observation()

    def step(
        self, action: Tuple[int, int], outcome: Optional[Tuple[Expr, float]] = None
    ) -> Tuple[Observation, float, bool, Dict]:
        """Apply ``(rule_index, location_index)`` and return (obs, reward, done, info).

        ``outcome`` is the rewritten expression and its cost when the caller
        has already applied and costed ``action`` on the current expression.
        """
        if self.current is None:
            raise RuntimeError("step() called before reset()")
        rule_index, location_index = int(action[0]), int(action[1])
        reward_config = self.config.reward
        self.steps_taken += 1
        done = False
        info: Dict = {"rule": None, "invalid": False}

        if rule_index == self.end_index:
            done = True
            reward = 0.0
            info["rule"] = "END"
        else:
            rule = self.ruleset[rule_index]
            locations = self.locations[rule_index]
            if not locations:
                reward = -reward_config.invalid_action_penalty
                info["invalid"] = True
            else:
                cost_before = self.current_cost
                if outcome is None:
                    location_index = min(location_index, len(locations) - 1)
                    self.current = rule.apply_at(self.current, locations[location_index])
                    self.costs.rebase(self.current)
                    self.current_cost = self.costs.cost(self.current)
                else:
                    self.current, self.current_cost = outcome
                    self.costs.rebase(self.current)
                reward = reward_config.step_reward(cost_before, self.current_cost)
                info["rule"] = rule.name

        if self.steps_taken >= self.config.max_steps:
            done = True
        if done:
            if reward_config.use_latency_terminal:
                # Ground the terminal in simulated execution latency, the
                # lowered circuit's replayed accounting, instead of the
                # analytical expression cost.
                final_latency = reward_config.simulated_latency_ms(self.current)
                reward += reward_config.terminal_reward(
                    self.initial_latency_ms, final_latency
                )
                info["initial_latency_ms"] = self.initial_latency_ms
                info["final_latency_ms"] = final_latency
            else:
                reward += reward_config.terminal_reward(self.initial_cost, self.current_cost)
            info["initial_cost"] = self.initial_cost
            info["final_cost"] = self.current_cost
            info["improvement"] = (
                (self.initial_cost - self.current_cost) / self.initial_cost
                if self.initial_cost > 0
                else 0.0
            )

        self.episode_reward += reward
        observation = self._observation()
        return observation, float(reward), done, info


def dataset_source(expressions: Sequence[Expr], seed: Optional[int] = None) -> Callable[[], Expr]:
    """An expression source that samples uniformly from a dataset."""
    if not expressions:
        raise ValueError("dataset_source requires at least one expression")
    rng = np.random.default_rng(seed)

    def _sample() -> Expr:
        return expressions[int(rng.integers(0, len(expressions)))]

    return _sample
