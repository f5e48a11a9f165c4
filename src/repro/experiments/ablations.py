"""Ablation studies of the paper's Sec. 7.6 (Table 1, Figs. 8-13, Table 7).

Each runner returns a small, self-describing result object whose fields map
directly onto the corresponding table rows or figure series.  Training runs
are scaled down (hundreds of PPO steps instead of two million) but keep the
exact structural contrasts the ablations isolate: reward terms, reward
weights, training-data distribution, tokenizer, encoder architecture and
action-space factorisation.

System-level ablations (compiler, backend, coalescing, compile cache,
tracing, admission control — the serving stack rather than the RL stack)
live in :mod:`repro.studies` and run through :func:`repro.api.run_study`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.registry import CompilerSpec
from repro.core.cost import CostModel, CostWeights
from repro.datagen import RandomExpressionGenerator, SyntheticKernelGenerator, build_dataset
from repro.experiments.harness import (
    BenchmarkResult,
    BenchmarkRunner,
    make_agent_compiler,
    make_default_agent,
)
from repro.ir.bpe import BPETokenizer
from repro.ir.tokenize import ICITokenizer
from repro.kernels.registry import Benchmark, small_benchmark_suite
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
from repro.service import CompilationCache
from repro.trs.registry import default_ruleset

__all__ = [
    "run_reward_weight_ablation",
    "run_dataset_ablation",
    "run_reward_term_ablation",
    "run_tokenizer_ablation",
    "run_encoder_ablation",
    "run_greedy_comparison",
    "run_action_space_ablation",
]


def _default_benchmarks(benchmarks: Optional[Sequence[Benchmark]], limit: int) -> List[Benchmark]:
    suite = list(benchmarks) if benchmarks is not None else small_benchmark_suite()
    return suite[:limit]


def _training_dataset(size: int, seed: int = 0, random_data: bool = False):
    generator = (
        RandomExpressionGenerator(max_depth=4, max_vector_size=4, seed=seed)
        if random_data
        else SyntheticKernelGenerator(seed=seed, max_size=6)
    )
    return list(build_dataset(generator, size))


# ---------------------------------------------------------------------------
# Table 1 — reward weight sensitivity
# ---------------------------------------------------------------------------
@dataclass
class RewardWeightAblationResult:
    """One row per weight configuration, relative to the (1, 1, 1) default."""

    weight_configs: List[Tuple[float, float, float]]
    execution_time_factor: Dict[Tuple[float, float, float], float] = field(default_factory=dict)
    noise_factor: Dict[Tuple[float, float, float], float] = field(default_factory=dict)
    results: List[BenchmarkResult] = field(default_factory=list)


def run_reward_weight_ablation(
    benchmarks: Optional[Sequence[Benchmark]] = None,
    weight_configs: Sequence[Tuple[float, float, float]] = ((1, 1, 1), (1, 50, 50), (1, 100, 100)),
    input_seed: int = 0,
    workers: int = 1,
    cache: Optional[CompilationCache] = None,
) -> RewardWeightAblationResult:
    """Vary ``(w_ops, w_depth, w_mult)`` and compare runtime and noise (Table 1).

    To isolate the effect of the cost-function weights from RL training
    variance, the ablation drives the deterministic greedy rewriter with each
    weighted cost model (the same cost model the agent's reward would use).
    """
    benchmarks = _default_benchmarks(benchmarks, limit=6)
    compilers = {}
    for weights in weight_configs:
        model = CostModel(weights=CostWeights(ops=weights[0], depth=weights[1], mult_depth=weights[2]))
        compilers[str(tuple(weights))] = CompilerSpec.create("greedy", cost_model=model)
    runner = BenchmarkRunner(compilers, input_seed=input_seed, workers=workers, cache=cache)
    results = runner.run(benchmarks)

    outcome = RewardWeightAblationResult(weight_configs=list(weight_configs), results=results)
    baseline_label = str(tuple(weight_configs[0]))
    for weights in weight_configs:
        label = str(tuple(weights))
        outcome.execution_time_factor[tuple(weights)] = runner.summarize_ratio(
            results, "execution_latency_ms", label, baseline_label
        )
        outcome.noise_factor[tuple(weights)] = runner.summarize_ratio(
            results, "consumed_noise_budget", label, baseline_label
        )
    return outcome


# ---------------------------------------------------------------------------
# Fig. 8 — LLM-generated vs random training data
# ---------------------------------------------------------------------------
@dataclass
class DatasetAblationResult:
    results: List[BenchmarkResult]
    execution_time_series: Dict[str, Dict[str, float]]
    #: Geometric-mean factor random / motif (>1 means motif data wins).
    speedup_of_realistic_data: float


def run_dataset_ablation(
    benchmarks: Optional[Sequence[Benchmark]] = None,
    train_timesteps: int = 384,
    input_seed: int = 0,
    workers: int = 1,
    cache: Optional[CompilationCache] = None,
) -> DatasetAblationResult:
    """Train one agent on motif ("LLM-like") data and one on random data (Fig. 8)."""
    from repro.experiments.reporting import series_by_compiler

    benchmarks = _default_benchmarks(benchmarks, limit=6)
    realistic_agent = make_default_agent(
        train_timesteps=train_timesteps, use_random_data=False, seed=0
    )
    random_agent = make_default_agent(
        train_timesteps=train_timesteps, use_random_data=True, seed=0
    )
    runner = BenchmarkRunner(
        {
            "LLM-style data": make_agent_compiler(realistic_agent),
            "Random data": make_agent_compiler(random_agent),
        },
        input_seed=input_seed,
        workers=workers,
        cache=cache,
    )
    results = runner.run(benchmarks)
    return DatasetAblationResult(
        results=results,
        execution_time_series=series_by_compiler(results, "execution_latency_ms"),
        speedup_of_realistic_data=runner.summarize_ratio(
            results, "execution_latency_ms", "Random data", "LLM-style data"
        ),
    )


# ---------------------------------------------------------------------------
# Fig. 9 — step-only vs step + terminal reward
# ---------------------------------------------------------------------------
@dataclass
class RewardTermAblationResult:
    results: List[BenchmarkResult]
    execution_time_series: Dict[str, Dict[str, float]]
    #: Geometric-mean factor step-only / step+terminal (>1 means terminal wins).
    improvement_from_terminal: float


def run_reward_term_ablation(
    benchmarks: Optional[Sequence[Benchmark]] = None,
    train_timesteps: int = 384,
    input_seed: int = 0,
    workers: int = 1,
    cache: Optional[CompilationCache] = None,
) -> RewardTermAblationResult:
    """Compare agents trained with and without the terminal reward (Fig. 9)."""
    from repro.experiments.reporting import series_by_compiler

    benchmarks = _default_benchmarks(benchmarks, limit=6)
    combined_agent = make_default_agent(
        train_timesteps=train_timesteps, use_terminal_reward=True, seed=0
    )
    step_only_agent = make_default_agent(
        train_timesteps=train_timesteps, use_terminal_reward=False, seed=0
    )
    runner = BenchmarkRunner(
        {
            "step+terminal": make_agent_compiler(combined_agent),
            "step-only": make_agent_compiler(step_only_agent),
        },
        input_seed=input_seed,
        workers=workers,
        cache=cache,
    )
    results = runner.run(benchmarks)
    return RewardTermAblationResult(
        results=results,
        execution_time_series=series_by_compiler(results, "execution_latency_ms"),
        improvement_from_terminal=runner.summarize_ratio(
            results, "execution_latency_ms", "step-only", "step+terminal"
        ),
    )


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
# Fig. 12 — CHEHAB (greedy) vs CHEHAB RL
# ---------------------------------------------------------------------------
@dataclass
class GreedyComparisonResult:
    results: List[BenchmarkResult]
    execution_time_series: Dict[str, Dict[str, float]]
    #: Geometric-mean factor greedy / RL (>1 means the RL agent wins).
    rl_speedup_over_greedy: float


def run_greedy_comparison(
    benchmarks: Optional[Sequence[Benchmark]] = None,
    train_timesteps: int = 512,
    input_seed: int = 0,
    workers: int = 1,
    cache: Optional[CompilationCache] = None,
) -> GreedyComparisonResult:
    """Compare the original CHEHAB (greedy TRS) against CHEHAB RL (Fig. 12)."""
    from repro.experiments.reporting import series_by_compiler

    benchmarks = _default_benchmarks(benchmarks, limit=8)
    agent = make_default_agent(train_timesteps=train_timesteps)
    runner = BenchmarkRunner(
        {
            "CHEHAB RL": make_agent_compiler(agent),
            "CHEHAB": "greedy",
        },
        input_seed=input_seed,
        workers=workers,
        cache=cache,
    )
    results = runner.run(benchmarks)
    return GreedyComparisonResult(
        results=results,
        execution_time_series=series_by_compiler(results, "execution_latency_ms"),
        rl_speedup_over_greedy=runner.summarize_ratio(
            results, "execution_latency_ms", "CHEHAB", "CHEHAB RL"
        ),
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
