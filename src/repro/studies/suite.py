"""The suite run: one compiler configuration over a kernel list.

A suite study's unit compiles and executes its kernels through
:class:`~repro.experiments.harness.BenchmarkRunner` under one
:class:`~repro.studies.spec.SuiteConfig` and folds the per-kernel
:class:`~repro.experiments.harness.BenchmarkResult` rows into flat metrics.
Latency and noise are the simulator's model values and ``final_cost`` the
analytical cost under the compiler's own cost model, so a suite run is
deterministic given its configuration and seed.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.compiler.registry import CompilerSpec
from repro.core.cost import CostModel, CostWeights
from repro.experiments.harness import BenchmarkRunner, geometric_mean, make_agent_compiler, make_default_agent
from repro.kernels.registry import benchmark_by_name
from repro.studies.spec import DEFAULT_COST_WEIGHTS, SuiteConfig

__all__ = ["run_suite"]


def _build_compiler(config: SuiteConfig, seed: int) -> object:
    """The compiler ``config`` names; ``chehab-rl`` trains its agent with ``seed``."""
    if config.compiler == "chehab-rl":
        agent = make_default_agent(
            train_timesteps=config.train_timesteps,
            dataset_size=config.dataset_size,
            seed=seed,
            use_random_data=config.use_random_data,
            use_terminal_reward=config.use_terminal_reward,
        )
        return make_agent_compiler(agent)
    if config.cost_weights == DEFAULT_COST_WEIGHTS:
        return CompilerSpec.create(config.compiler)
    weights = CostWeights(*config.cost_weights)
    return CompilerSpec.create(config.compiler, cost_model=CostModel(weights=weights))


def run_suite(kernels: Sequence[str], config: SuiteConfig, seed: int) -> Dict[str, float]:
    """Compile, execute and verify ``kernels`` under ``config``.

    Returns the geometric means of execution latency, consumed noise and
    final cost, the fraction of correct outputs, and one
    ``execution_latency_ms/<kernel>`` entry per kernel.
    """
    # Input seed 0 for every condition: the two sides of a contrast see the same inputs.
    runner = BenchmarkRunner({config.compiler: _build_compiler(config, seed)}, input_seed=0)
    results = runner.run([benchmark_by_name(name) for name in kernels])
    metrics: Dict[str, float] = {
        f"{field}_geomean": geometric_mean([getattr(row, field) for row in results])
        for field in ("execution_latency_ms", "consumed_noise_budget", "final_cost")
    }
    metrics["correct_fraction"] = sum(row.correct for row in results) / len(results)
    for row in results:
        metrics[f"execution_latency_ms/{row.benchmark}"] = row.execution_latency_ms
    return metrics
