"""Flat actor-critic baseline for the action-space ablation (Fig. 13).

Instead of choosing a rule and then a location, the flat policy enumerates
every ``(rule, location)`` pair as a separate action (``rule_count ×
max_locations`` actions, plus ``END``).  The much larger, sparser action
space is what makes the flat agent learn more slowly than the hierarchical
one — exactly the effect the ablation measures.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.layers import MLP, Module
from repro.nn.tensor import Tensor, no_grad
from repro.nn.transformer import TransformerEncoder
from repro.rl.env import Observation
from repro.rl.policy import PolicyConfig, _masked_log_softmax, sample_from_logits

__all__ = ["FlatActorCritic"]


class FlatActorCritic(Module):
    """Single-head actor over the flattened rule×location action space."""

    def __init__(self, action_count: int, config: Optional[PolicyConfig] = None) -> None:
        super().__init__()
        self.config = config if config is not None else PolicyConfig()
        self.rule_count = action_count - 1
        self.flat_action_count = self.rule_count * self.config.max_locations + 1
        cfg = self.config
        self.encoder = TransformerEncoder(
            vocab_size=cfg.vocab_size,
            model_dim=cfg.model_dim,
            num_layers=cfg.num_layers,
            num_heads=cfg.num_heads,
            max_length=cfg.max_tokens,
            seed=cfg.seed,
        )
        self.actor_head = MLP(
            cfg.model_dim, list(cfg.rule_hidden), self.flat_action_count, seed=cfg.seed
        )
        self.critic = MLP(
            cfg.model_dim,
            list(cfg.critic_hidden),
            1,
            seed=None if cfg.seed is None else cfg.seed + 2,
        )
        self._rng = np.random.default_rng(cfg.seed)

    # -- action indexing ---------------------------------------------------------
    @property
    def end_flat_index(self) -> int:
        return self.flat_action_count - 1

    def flatten_action(self, rule_index: int, location_index: int) -> int:
        if rule_index >= self.rule_count:
            return self.end_flat_index
        return rule_index * self.config.max_locations + location_index

    def unflatten_action(self, flat_index: int) -> Tuple[int, int]:
        if flat_index == self.end_flat_index:
            return self.rule_count, 0
        return divmod(flat_index, self.config.max_locations)

    def _flat_mask(self, observation: Observation) -> np.ndarray:
        mask = np.zeros(self.flat_action_count, dtype=bool)
        for rule_index in range(self.rule_count):
            count = int(observation.location_counts[rule_index])
            if count <= 0:
                continue
            start = rule_index * self.config.max_locations
            mask[start : start + min(count, self.config.max_locations)] = True
        mask[self.end_flat_index] = True
        return mask

    # -- acting ---------------------------------------------------------------------
    @no_grad()
    def act(
        self, observation: Observation, deterministic: bool = False
    ) -> Tuple[Tuple[int, int], float, float]:
        state = self.encoder.encode(
            np.atleast_2d(observation.tokens), np.atleast_2d(observation.padding_mask)
        )
        logits = self.actor_head(state)
        mask = self._flat_mask(observation)
        log_probs = _masked_log_softmax(logits, mask[None, :])
        flat_index = sample_from_logits(log_probs.numpy()[0], self._rng, deterministic)
        value = float(self.critic(state).numpy()[0, 0])
        return self.unflatten_action(flat_index), float(log_probs.numpy()[0, flat_index]), value

    @no_grad()
    def value(self, observation: Observation) -> float:
        state = self.encoder.encode(
            np.atleast_2d(observation.tokens), np.atleast_2d(observation.padding_mask)
        )
        return float(self.critic(state).numpy()[0, 0])

    # -- PPO update path -------------------------------------------------------------------
    def evaluate_actions(
        self,
        tokens: np.ndarray,
        padding_mask: np.ndarray,
        rule_mask: np.ndarray,
        location_counts: np.ndarray,
        rule_actions: np.ndarray,
        location_actions: np.ndarray,
    ) -> Dict[str, Tensor]:
        batch = tokens.shape[0]
        state = self.encoder.encode(tokens, padding_mask)
        logits = self.actor_head(state)

        flat_mask = np.zeros((batch, self.flat_action_count), dtype=bool)
        for row in range(batch):
            for rule_index in range(self.rule_count):
                count = int(location_counts[row, rule_index])
                if count <= 0:
                    continue
                start = rule_index * self.config.max_locations
                flat_mask[row, start : start + min(count, self.config.max_locations)] = True
            flat_mask[row, self.end_flat_index] = True

        log_probs = _masked_log_softmax(logits, flat_mask)
        flat_actions = np.array(
            [
                self.flatten_action(int(rule), int(loc))
                for rule, loc in zip(rule_actions, location_actions)
            ]
        )
        selected = log_probs[np.arange(batch), flat_actions]
        probs = log_probs.exp()
        entropy = -(probs * log_probs).sum(axis=-1)
        values = self.critic(state).reshape(batch)
        return {"log_prob": selected, "entropy": entropy, "value": values}
