"""The deployable CHEHAB RL agent.

:class:`ChehabAgent` bundles the tokenizer, rule set and a trained (or
freshly initialised) policy and exposes the ``optimize(expr)`` interface the
compiler pipeline expects, so a trained agent can be dropped into
:class:`repro.compiler.pipeline.CompilerOptions` as the ``optimizer``.

At inference time the agent rolls the policy out deterministically (argmax
over the masked action distributions), applying at most ``max_steps``
rewrites or stopping at the ``END`` action — this is the "few seconds,
deterministic compilation" behaviour highlighted in the paper's FAQ.  A
``guided`` fallback can reject rewrites that increase the analytical cost,
which stabilises agents trained with very small step budgets.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cost import CostModel
from repro.ir.nodes import Expr
from repro.ir.tokenize import ICITokenizer
from repro.nn.serialize import load_module, save_module
from repro.rl.env import EnvConfig, FheRewriteEnv
from repro.rl.policy import HierarchicalActorCritic, PolicyConfig
from repro.rl.ppo import PPOConfig, PPOTrainer, TrainingHistory
from repro.rl.reward import RewardConfig
from repro.trs.registry import RuleSet, default_ruleset
from repro.trs.rewriter import RewriteResult, RewriteStep, search_counters

__all__ = ["ChehabAgent"]


class ChehabAgent:
    """A trained policy packaged as a compiler optimizer."""

    def __init__(
        self,
        policy: Optional[HierarchicalActorCritic] = None,
        policy_config: Optional[PolicyConfig] = None,
        ruleset: Optional[RuleSet] = None,
        reward_config: Optional[RewardConfig] = None,
        max_steps: int = 75,
        guided: bool = True,
    ) -> None:
        self.ruleset = ruleset if ruleset is not None else default_ruleset()
        self.reward_config = reward_config if reward_config is not None else RewardConfig()
        self.max_steps = max_steps
        self.guided = guided
        self.tokenizer = ICITokenizer(
            max_length=(policy_config.max_tokens if policy_config is not None else 256)
        )
        if policy is not None:
            self.policy = policy
            self.policy_config = policy.config
        else:
            self.policy_config = (
                policy_config
                if policy_config is not None
                else PolicyConfig(vocab_size=self.tokenizer.vocab_size)
            )
            self.policy = HierarchicalActorCritic(
                self.ruleset.action_count, self.policy_config
            )
        self.training_history: Optional[TrainingHistory] = None

    # -- training -------------------------------------------------------------------
    def _make_env(self, expression_source) -> FheRewriteEnv:
        env_config = EnvConfig(
            max_steps=self.max_steps,
            max_locations=self.policy_config.max_locations,
            max_tokens=self.policy_config.max_tokens,
            reward=self.reward_config,
        )
        return FheRewriteEnv(
            expression_source,
            ruleset=self.ruleset,
            tokenizer=self.tokenizer,
            config=env_config,
        )

    def train(
        self,
        expressions: Sequence[Expr],
        total_timesteps: int = 2_000_000,
        num_envs: int = 8,
        ppo_config: Optional[PPOConfig] = None,
        seed: Optional[int] = 0,
    ) -> TrainingHistory:
        """Train the policy with PPO on a dataset of expressions."""
        from repro.rl.env import dataset_source

        envs = [
            self._make_env(dataset_source(expressions, seed=None if seed is None else seed + i))
            for i in range(num_envs)
        ]
        trainer = PPOTrainer(self.policy, envs, ppo_config or PPOConfig(seed=seed))
        self.training_history = trainer.train(total_timesteps)
        return self.training_history

    # -- inference -------------------------------------------------------------------
    def optimize(self, expr: Expr, top_k: int = 4) -> RewriteResult:
        """Optimize ``expr`` by rolling out the policy deterministically.

        In *guided* mode (the default) the agent considers its ``top_k``
        highest-probability rules at each step, applies the best
        cost-reducing one (the analytical cost is the same signal the policy
        was trained on), and stops when none of them improves the circuit.
        With ``guided=False`` the rollout is the pure argmax policy, stopping
        at ``END`` — the behaviour used when reporting pure-policy quality.
        """
        # The environment's memos serve this call too: its match paths and
        # cost base are those of the agent's current expression, and each
        # chosen candidate is handed to ``env.step`` as applied and costed.
        env = self._make_env(lambda: expr)
        observation = env.reset(expr)
        initial_cost = env.current_cost
        current = expr
        current_cost = initial_cost
        steps: List[RewriteStep] = []
        for _ in range(self.max_steps):
            rule_log_probs, location_log_probs_fn, _value = self.policy.distributions(
                observation
            )
            if self.guided:
                chosen = self._best_guided_action(
                    env, current, current_cost, rule_log_probs, location_log_probs_fn, top_k
                )
                if chosen is None:
                    break
                rule_index, location_index, candidate, candidate_cost = chosen
            else:
                rule_index = int(np.argmax(rule_log_probs))
                if rule_index == self.ruleset.end_index:
                    break
                rule = self.ruleset[rule_index]
                locations = env.locations[rule_index]
                if not locations:
                    break
                location_index = min(
                    int(np.argmax(location_log_probs_fn(rule_index))), len(locations) - 1
                )
                candidate = rule.apply_at(current, locations[location_index])
                candidate_cost = env.costs.cost(candidate)
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
            observation, _reward, done, _info = env.step(
                (rule_index, location_index), outcome=(candidate, candidate_cost)
            )
            if done:
                break
        return RewriteResult(
            initial=expr,
            optimized=current,
            steps=steps,
            initial_cost=initial_cost,
            final_cost=current_cost,
            counters=search_counters(env.matches, env.costs),
            cost_model=env.costs.model,
        )

    def _best_guided_action(
        self,
        env: FheRewriteEnv,
        current: Expr,
        current_cost: float,
        rule_log_probs: np.ndarray,
        location_log_probs_fn,
        top_k: int,
    ) -> Optional[Tuple[int, int, Expr, float]]:
        """Best cost-reducing candidate among the policy's top-k rules."""
        candidate_rules = np.argsort(rule_log_probs)[::-1][: max(1, top_k)]
        best: Optional[Tuple[int, int, Expr, float]] = None
        for rule_index in candidate_rules:
            rule_index = int(rule_index)
            if rule_index == self.ruleset.end_index:
                continue
            rule = self.ruleset[rule_index]
            locations = env.locations[rule_index]
            if not locations:
                continue
            location_index = min(
                int(np.argmax(location_log_probs_fn(rule_index))), len(locations) - 1
            )
            candidate = rule.apply_at(current, locations[location_index])
            candidate_cost = env.costs.cost(candidate)
            if candidate_cost < current_cost - 1e-9 and (
                best is None or candidate_cost < best[3]
            ):
                best = (rule_index, location_index, candidate, candidate_cost)
        return best

    # -- persistence --------------------------------------------------------------------
    def save(self, directory: Union[str, os.PathLike]) -> None:
        """Save the policy weights and agent metadata to ``directory``."""
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        save_module(self.policy, os.path.join(directory, "policy.npz"))
        metadata = {
            "max_steps": self.max_steps,
            "guided": self.guided,
            "policy_config": {
                "vocab_size": self.policy_config.vocab_size,
                "model_dim": self.policy_config.model_dim,
                "num_layers": self.policy_config.num_layers,
                "num_heads": self.policy_config.num_heads,
                "max_tokens": self.policy_config.max_tokens,
                "max_locations": self.policy_config.max_locations,
                "rule_hidden": list(self.policy_config.rule_hidden),
                "location_hidden": list(self.policy_config.location_hidden),
                "critic_hidden": list(self.policy_config.critic_hidden),
                "rule_embedding_dim": self.policy_config.rule_embedding_dim,
            },
        }
        with open(os.path.join(directory, "agent.json"), "w", encoding="utf-8") as handle:
            json.dump(metadata, handle, indent=2)

    @classmethod
    def load(cls, directory: Union[str, os.PathLike]) -> "ChehabAgent":
        """Load an agent saved by :meth:`save`."""
        directory = os.fspath(directory)
        with open(os.path.join(directory, "agent.json"), "r", encoding="utf-8") as handle:
            metadata = json.load(handle)
        config_data = metadata["policy_config"]
        config = PolicyConfig(
            vocab_size=config_data["vocab_size"],
            model_dim=config_data["model_dim"],
            num_layers=config_data["num_layers"],
            num_heads=config_data["num_heads"],
            max_tokens=config_data["max_tokens"],
            max_locations=config_data["max_locations"],
            rule_hidden=tuple(config_data["rule_hidden"]),
            location_hidden=tuple(config_data["location_hidden"]),
            critic_hidden=tuple(config_data["critic_hidden"]),
            rule_embedding_dim=config_data["rule_embedding_dim"],
        )
        agent = cls(
            policy_config=config,
            max_steps=metadata["max_steps"],
            guided=metadata["guided"],
        )
        load_module(agent.policy, os.path.join(directory, "policy.npz"))
        return agent
