"""Reward structure of the optimization MDP (paper Sec. 5.3).

The reward has two parts:

* a **step reward** after every action: the relative cost improvement
  ``(C_t - C_{t+1}) / C_t``;
* a **terminal reward** at the end of the episode: the total relative
  reduction ``(C_initial - C_final) / C_initial × 100``.

The underlying cost is the FHE-aware analytical cost of
:class:`repro.core.cost.CostModel`; its ``(w_ops, w_depth, w_mult)`` weights
are what the reward-weight ablation (Table 1) varies.

The terminal reward can optionally be grounded in *simulated execution
latency* instead of the analytical cost: :meth:`RewardConfig.simulated_latency_ms`
lowers the expression and replays its accounting
(:func:`repro.backends.base.replay_accounting`, the walk the vector VM
runs once per tape; no crypto, microseconds per evaluation),
which is exactly the latency the paper's Fig. 5 measures.
Enable with ``use_latency_terminal=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cost import CostModel, CostWeights

__all__ = ["RewardConfig"]


@dataclass
class RewardConfig:
    """Configuration of the reward signal."""

    cost_model: CostModel = field(default_factory=CostModel)
    #: Include the terminal reward (the step-only ablation disables this).
    use_terminal_reward: bool = True
    #: Scale of the terminal reward; the paper multiplies the relative
    #: improvement by 100.
    terminal_scale: float = 100.0
    #: Small penalty per step, discouraging pointless rewrites.
    step_penalty: float = 0.01
    #: Penalty for selecting an inapplicable rule.
    invalid_action_penalty: float = 0.1
    #: Ground the terminal reward in simulated execution latency (lower +
    #: accounting replay) instead of the analytical expression cost.
    use_latency_terminal: bool = False

    @classmethod
    def with_weights(cls, ops: float, depth: float, mult: float, **kwargs) -> "RewardConfig":
        """Convenience constructor used by the reward-weight ablation."""
        model = CostModel(weights=CostWeights(ops=ops, depth=depth, mult_depth=mult))
        return cls(cost_model=model, **kwargs)

    # -- reward computation -----------------------------------------------------
    def step_reward(self, cost_before: float, cost_after: float) -> float:
        """Immediate reward of one rewrite."""
        if cost_before <= 0:
            return -self.step_penalty
        return (cost_before - cost_after) / cost_before - self.step_penalty

    def terminal_reward(self, initial_cost: float, final_cost: float) -> float:
        """End-of-episode reward (zero when terminal rewards are disabled)."""
        if not self.use_terminal_reward or initial_cost <= 0:
            return 0.0
        return ((initial_cost - final_cost) / initial_cost) * self.terminal_scale

    # -- execution-grounded rewards (through the backend registry) ---------------
    def simulated_latency_ms(self, expr) -> float:
        """Simulated execution latency of ``expr`` once lowered to a circuit.

        Lowers the expression and replays its instructions through the
        accounting models under the default parameters — the same latency
        model every execution backend meters with, at a tiny fraction of a
        reference execution's wall-clock, which is what makes per-episode
        latency rewards affordable during RL rollouts.
        """
        from repro.backends.base import replay_accounting
        from repro.compiler.lowering import lower
        from repro.fhe.params import BFVParameters

        accounting, _ = replay_accounting(lower(expr), BFVParameters.default())
        return accounting.latency_ms
