"""The hierarchical actor-critic policy (paper Sec. 5.4).

The actor decomposes the action into a rewrite rule and an application
location.  Three networks share the Transformer state embedding:

* the **rule-selection network** (MLP 128-64) produces a distribution over
  the 84 rules plus ``END``, with inapplicable rules masked out;
* the **location-selection network** (MLP 64-64) receives the state
  embedding concatenated with an embedding of the chosen rule and produces a
  distribution over match locations (1st match, 2nd match, ...);
* the **critic** (MLP 256-128-64) estimates the state value.

``act`` samples (or argmaxes) an action; ``evaluate_actions`` recomputes log
probabilities, entropy and values for PPO updates.  Only the latter is ever
back-propagated, so the acting paths run under
:func:`~repro.nn.tensor.no_grad` and build no autograd graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Embedding, MLP, Module
from repro.nn.tensor import Tensor, no_grad
from repro.nn.transformer import TransformerEncoder
from repro.rl.env import Observation

__all__ = ["PolicyConfig", "HierarchicalActorCritic", "sample_from_logits"]

_NEG_INF = -1e9


@dataclass
class PolicyConfig:
    """Network sizes; the defaults are the paper's configuration."""

    vocab_size: int = 128
    model_dim: int = 256
    num_layers: int = 4
    num_heads: int = 8
    max_tokens: int = 256
    max_locations: int = 16
    rule_hidden: Tuple[int, ...] = (128, 64)
    location_hidden: Tuple[int, ...] = (64, 64)
    critic_hidden: Tuple[int, ...] = (256, 128, 64)
    rule_embedding_dim: int = 32
    seed: Optional[int] = None

    @classmethod
    def small(cls, vocab_size: int, max_tokens: int = 64, seed: Optional[int] = None) -> "PolicyConfig":
        """A scaled-down configuration for tests and quick experiments."""
        return cls(
            vocab_size=vocab_size,
            model_dim=32,
            num_layers=1,
            num_heads=2,
            max_tokens=max_tokens,
            max_locations=8,
            rule_hidden=(32,),
            location_hidden=(32,),
            critic_hidden=(32,),
            rule_embedding_dim=8,
            seed=seed,
        )


def _masked_log_softmax(logits: Tensor, mask: np.ndarray) -> Tensor:
    additive = np.where(np.asarray(mask, dtype=bool), 0.0, _NEG_INF)
    return (logits + Tensor(additive)).log_softmax(axis=-1)


def sample_from_logits(
    log_probs: np.ndarray, rng: np.random.Generator, deterministic: bool
) -> int:
    """Sample an index from log probabilities (or take the argmax)."""
    if deterministic:
        return int(np.argmax(log_probs))
    probabilities = np.exp(log_probs - log_probs.max())
    probabilities /= probabilities.sum()
    return int(rng.choice(len(probabilities), p=probabilities))


class HierarchicalActorCritic(Module):
    """Transformer encoder + rule head + location head + critic."""

    def __init__(self, action_count: int, config: Optional[PolicyConfig] = None) -> None:
        super().__init__()
        self.config = config if config is not None else PolicyConfig()
        self.action_count = action_count
        self.rule_count = action_count - 1  # END has no location
        cfg = self.config
        self.encoder = TransformerEncoder(
            vocab_size=cfg.vocab_size,
            model_dim=cfg.model_dim,
            num_layers=cfg.num_layers,
            num_heads=cfg.num_heads,
            max_length=cfg.max_tokens,
            seed=cfg.seed,
        )
        self.rule_head = MLP(cfg.model_dim, list(cfg.rule_hidden), action_count, seed=cfg.seed)
        self.rule_embedding = Embedding(action_count, cfg.rule_embedding_dim, seed=cfg.seed)
        self.location_head = MLP(
            cfg.model_dim + cfg.rule_embedding_dim,
            list(cfg.location_hidden),
            cfg.max_locations,
            seed=None if cfg.seed is None else cfg.seed + 1,
        )
        self.critic = MLP(cfg.model_dim, list(cfg.critic_hidden), 1, seed=None if cfg.seed is None else cfg.seed + 2)
        self._rng = np.random.default_rng(cfg.seed)

    # -- shared encoding -------------------------------------------------------------
    def _encode(self, tokens: np.ndarray, padding_mask: np.ndarray) -> Tensor:
        tokens = np.atleast_2d(tokens)
        padding_mask = np.atleast_2d(padding_mask)
        return self.encoder.encode(tokens, padding_mask)

    def _location_mask(self, location_counts: np.ndarray, rule_indices: np.ndarray) -> np.ndarray:
        """Boolean mask of valid locations for each chosen rule."""
        batch = rule_indices.shape[0]
        mask = np.zeros((batch, self.config.max_locations), dtype=bool)
        for row, rule_index in enumerate(rule_indices):
            if rule_index >= self.rule_count:
                mask[row, 0] = True  # END: a single dummy location
                continue
            count = int(location_counts[row, rule_index])
            mask[row, : max(1, min(count, self.config.max_locations))] = True
        return mask

    # -- acting ---------------------------------------------------------------------------
    @no_grad()
    def distributions(self, observation: Observation):
        """Masked rule distribution plus a per-rule location distribution.

        Returns ``(rule_log_probs, location_log_probs_fn, value)`` where
        ``rule_log_probs`` is a numpy vector over the action space and
        ``location_log_probs_fn(rule_index)`` returns the numpy vector over
        locations for that rule.  Used both by :meth:`act` and by the
        deployment-time policy-guided rollout of the agent.
        """
        state = self._encode(observation.tokens, observation.padding_mask)
        rule_logits = self.rule_head(state)
        rule_log_probs = _masked_log_softmax(
            rule_logits, observation.rule_mask[None, :]
        ).numpy()[0]
        location_counts = observation.location_counts[None, :]

        @no_grad()
        def location_log_probs(rule_index: int) -> np.ndarray:
            location_mask = self._location_mask(location_counts, np.array([rule_index]))
            rule_embedded = self.rule_embedding(np.array([rule_index]))
            location_input = Tensor.concatenate([state, rule_embedded], axis=-1)
            location_logits = self.location_head(location_input)
            return _masked_log_softmax(location_logits, location_mask).numpy()[0]

        value = float(self.critic(state).numpy()[0, 0])
        return rule_log_probs, location_log_probs, value

    @no_grad()
    def act(
        self, observation: Observation, deterministic: bool = False
    ) -> Tuple[Tuple[int, int], float, float]:
        """Choose an action.

        Returns ``((rule_index, location_index), log_prob, value)``.
        """
        rule_log_probs, location_log_probs_fn, value = self.distributions(observation)
        rule_index = sample_from_logits(rule_log_probs, self._rng, deterministic)
        location_log_probs = location_log_probs_fn(rule_index)
        location_index = sample_from_logits(location_log_probs, self._rng, deterministic)
        log_prob = float(
            rule_log_probs[rule_index] + location_log_probs[location_index]
        )
        return (rule_index, location_index), log_prob, value

    @no_grad()
    def value(self, observation: Observation) -> float:
        """State-value estimate for bootstrapping."""
        state = self._encode(observation.tokens, observation.padding_mask)
        return float(self.critic(state).numpy()[0, 0])

    # -- PPO update path ----------------------------------------------------------------------
    def evaluate_actions(
        self,
        tokens: np.ndarray,
        padding_mask: np.ndarray,
        rule_mask: np.ndarray,
        location_counts: np.ndarray,
        rule_actions: np.ndarray,
        location_actions: np.ndarray,
    ) -> Dict[str, Tensor]:
        """Log-probabilities, entropy and values for a batch of transitions."""
        state = self._encode(tokens, padding_mask)
        batch = state.shape[0]

        rule_logits = self.rule_head(state)
        rule_log_probs = _masked_log_softmax(rule_logits, rule_mask)
        rule_selected = rule_log_probs[np.arange(batch), rule_actions]

        location_mask = self._location_mask(location_counts, rule_actions)
        rule_embedded = self.rule_embedding(rule_actions)
        location_input = Tensor.concatenate([state, rule_embedded], axis=-1)
        location_logits = self.location_head(location_input)
        location_log_probs = _masked_log_softmax(location_logits, location_mask)
        location_selected = location_log_probs[np.arange(batch), location_actions]

        log_prob = rule_selected + location_selected

        rule_probs = rule_log_probs.exp()
        location_probs = location_log_probs.exp()
        entropy = -(rule_probs * rule_log_probs).sum(axis=-1) - (
            location_probs * location_log_probs
        ).sum(axis=-1)

        values = self.critic(state).reshape(batch)
        return {"log_prob": log_prob, "entropy": entropy, "value": values}
