"""Ablation studies of the paper's Sec. 7.6 whose unit is not a suite run.

Figs. 10, 11 (with Table 7) and 13 live here because what they measure is
not a compiled kernel list: a tokenizer's throughput and sequence lengths,
an autoencoder's training history and a PPO reward curve.  Each runner
returns a small, self-describing result object whose fields map directly
onto the figure's series.  Training runs are scaled down (hundreds of PPO
steps instead of two million) but keep the structural contrasts the
ablations isolate: tokenizer, encoder architecture and action-space
factorisation.

The contrasts that compare compiled kernels — the learned policy against
greedy rewriting (Fig. 12), the terminal reward (Fig. 9), the training data
(Fig. 8) and the cost weights (Table 1) — are suite components of
:mod:`repro.studies` and run as seeded, resumable studies through
:func:`repro.api.run_study` (``kind="suite"``), as do the serving stack's
system ablations (``kind="server"``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.datagen import RandomExpressionGenerator, SyntheticKernelGenerator, build_dataset
from repro.experiments.harness import make_default_agent
from repro.ir.bpe import BPETokenizer
from repro.ir.tokenize import ICITokenizer
from repro.rl.autoencoder import (
    AutoencoderConfig,
    GRUAutoencoder,
    TransformerAutoencoder,
    reconstruction_accuracy,
    train_autoencoder,
)
from repro.rl.env import EnvConfig, FheRewriteEnv, dataset_source
from repro.rl.flat_policy import FlatActorCritic
from repro.rl.policy import HierarchicalActorCritic, PolicyConfig
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.trs.registry import default_ruleset

__all__ = [
    "run_tokenizer_ablation",
    "run_encoder_ablation",
    "run_action_space_ablation",
]


def _training_dataset(size: int, seed: int = 0):
    return list(build_dataset(SyntheticKernelGenerator(seed=seed, max_size=6), size))


# ---------------------------------------------------------------------------
# Fig. 10 — ICI vs BPE tokenization
# ---------------------------------------------------------------------------
@dataclass
class TokenizerAblationResult:
    ici_tokens_per_program: float
    bpe_tokens_per_program: float
    ici_tokenization_time_s: float
    bpe_tokenization_time_s: float
    ici_reward_curve: List[float]
    bpe_training_time_factor: float


def run_tokenizer_ablation(
    corpus_size: int = 96,
    train_timesteps: int = 256,
    seed: int = 0,
) -> TokenizerAblationResult:
    """Compare ICI against BPE tokenization (Fig. 10).

    The measured quantities are the ones that drive the paper's finding that
    ICI trains faster: the tokenization throughput and the sequence lengths
    (BPE produces longer subword sequences, and every training step pays for
    them), plus the reward curve of a short ICI-based training run.
    """
    dataset = _training_dataset(corpus_size, seed=seed)
    ici = ICITokenizer(max_length=96)
    bpe = BPETokenizer(vocab_size=256, max_length=96)
    bpe.train(dataset)

    start = time.perf_counter()
    ici_lengths = [len(ici.tokenize(expr)) for expr in dataset]
    ici_time = time.perf_counter() - start
    start = time.perf_counter()
    bpe_lengths = [len(bpe.tokenize(expr)) for expr in dataset]
    bpe_time = time.perf_counter() - start

    agent = make_default_agent(train_timesteps=train_timesteps, seed=seed)
    reward_curve = (
        list(agent.training_history.mean_episode_reward)
        if agent.training_history is not None
        else []
    )
    # Per-step training cost scales with sequence length (attention is
    # quadratic); report the implied slow-down factor of BPE.
    ratio = (float(np.mean(bpe_lengths)) / max(1.0, float(np.mean(ici_lengths)))) if dataset else 1.0
    return TokenizerAblationResult(
        ici_tokens_per_program=float(np.mean(ici_lengths)) if dataset else 0.0,
        bpe_tokens_per_program=float(np.mean(bpe_lengths)) if dataset else 0.0,
        ici_tokenization_time_s=ici_time,
        bpe_tokenization_time_s=bpe_time,
        ici_reward_curve=reward_curve,
        bpe_training_time_factor=ratio,
    )


# ---------------------------------------------------------------------------
# Fig. 11 + Table 7 — Transformer vs GRU autoencoder
# ---------------------------------------------------------------------------
@dataclass
class EncoderAblationResult:
    transformer_history: Dict[str, List[float]]
    gru_history: Dict[str, List[float]]
    transformer_accuracy: Dict[str, float]
    gru_accuracy: Dict[str, float]


def run_encoder_ablation(
    corpus_size: int = 48,
    epochs: int = 8,
    seed: int = 0,
) -> EncoderAblationResult:
    """Train both autoencoders on random IR and compare reconstruction (Table 7)."""
    generator = RandomExpressionGenerator(max_depth=3, max_vector_size=3, seed=seed)
    dataset = list(build_dataset(generator, corpus_size))
    config = AutoencoderConfig(max_tokens=48, model_dim=32, latent_dim=32, num_layers=1, num_heads=2, seed=seed)
    tokenizer = ICITokenizer(max_length=config.max_tokens)
    config.vocab_size = tokenizer.vocab_size

    transformer = TransformerAutoencoder(config)
    gru = GRUAutoencoder(config)
    transformer_history = train_autoencoder(
        transformer, dataset, tokenizer=tokenizer, epochs=epochs, seed=seed
    )
    gru_history = train_autoencoder(gru, dataset, tokenizer=tokenizer, epochs=epochs, seed=seed)

    token_ids = np.stack([np.asarray(tokenizer.encode(expr)) for expr in dataset])
    padding = np.stack([np.asarray(tokenizer.attention_mask(row)) for row in token_ids])
    return EncoderAblationResult(
        transformer_history=transformer_history,
        gru_history=gru_history,
        transformer_accuracy=reconstruction_accuracy(transformer, token_ids, padding),
        gru_accuracy=reconstruction_accuracy(gru, token_ids, padding),
    )


# ---------------------------------------------------------------------------
# Fig. 13 — flat vs hierarchical action space
# ---------------------------------------------------------------------------
@dataclass
class ActionSpaceAblationResult:
    hierarchical_rewards: List[float]
    flat_rewards: List[float]
    hierarchical_final_reward: float
    flat_final_reward: float


def run_action_space_ablation(
    train_timesteps: int = 256,
    dataset_size: int = 32,
    seed: int = 0,
) -> ActionSpaceAblationResult:
    """Train a hierarchical and a flat agent and compare learning curves (Fig. 13)."""
    dataset = _training_dataset(dataset_size, seed=seed)
    tokenizer = ICITokenizer(max_length=96)
    ruleset = default_ruleset()
    config = PolicyConfig.small(vocab_size=tokenizer.vocab_size, max_tokens=96, seed=seed)
    env_config = EnvConfig(max_steps=20, max_locations=config.max_locations, max_tokens=96)

    def make_envs(count: int) -> List[FheRewriteEnv]:
        return [
            FheRewriteEnv(
                dataset_source(dataset, seed=seed + index),
                ruleset=ruleset,
                tokenizer=tokenizer,
                config=env_config,
            )
            for index in range(count)
        ]

    hierarchical = HierarchicalActorCritic(ruleset.action_count, config)
    flat = FlatActorCritic(ruleset.action_count, config)
    ppo = PPOConfig.small(seed=seed)

    hierarchical_history = PPOTrainer(hierarchical, make_envs(2), ppo).train(train_timesteps)
    flat_history = PPOTrainer(flat, make_envs(2), ppo).train(train_timesteps)

    return ActionSpaceAblationResult(
        hierarchical_rewards=list(hierarchical_history.mean_episode_reward),
        flat_rewards=list(flat_history.mean_episode_reward),
        hierarchical_final_reward=(
            float(np.mean(hierarchical_history.mean_episode_reward[-2:]))
            if hierarchical_history.mean_episode_reward
            else 0.0
        ),
        flat_final_reward=(
            float(np.mean(flat_history.mean_episode_reward[-2:]))
            if flat_history.mean_episode_reward
            else 0.0
        ),
    )
