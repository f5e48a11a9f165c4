"""Shared experiment machinery.

:class:`BenchmarkRunner` compiles and executes benchmark kernels under any
number of named compiler configurations and returns one
:class:`BenchmarkResult` per (kernel, compiler) pair.  Every execution is
verified against the plaintext reference; mismatches are flagged rather than
silently reported, so a regression in any compiler path is caught by the
benchmark harness as well as by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.backends.registry import resolve_backend
from repro.compiler.executor import ExecutionReport, declared_outputs
from repro.compiler.pipeline import CompilationReport, Compiler, CompilerOptions
from repro.kernels.registry import Benchmark
from repro.rl.agent import ChehabAgent
from repro.rl.policy import PolicyConfig
from repro.rl.ppo import PPOConfig
from repro.rl.reward import RewardConfig
from repro.service import (
    BatchReport,
    CompilationCache,
    CompilationJob,
    CompilationService,
)

__all__ = [
    "BenchmarkResult",
    "BenchmarkRunner",
    "geometric_mean",
    "make_default_agent",
    "make_agent_compiler",
]


@dataclass
class BenchmarkResult:
    """All metrics collected for one (benchmark, compiler) pair."""

    benchmark: str
    compiler: str
    backend: str
    compile_time_s: float
    execution_latency_ms: float
    consumed_noise_budget: float
    remaining_noise_budget: float
    noise_budget_exhausted: bool
    #: Analytical cost of the optimized expression under the compiler's
    #: own cost model (paper Sec. 5.3.1).
    final_cost: float
    correct: bool
    depth: int
    mult_depth: int
    ct_ct_multiplications: int
    ct_pt_multiplications: int
    rotations: int
    additions: int
    subtractions: int
    total_operations: int

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (0 values are clamped to a tiny epsilon)."""
    if not values:
        return 0.0
    total = 0.0
    for value in values:
        total += math.log(max(float(value), 1e-12))
    return math.exp(total / len(values))


class BenchmarkRunner:
    """Compile + execute + verify benchmark kernels under several compilers.

    All compilation is routed through :class:`CompilationService`: each
    configured compiler is wrapped in a service sharing one
    :class:`CompilationCache`, so repeated runs (and kernels shared between
    experiments) skip recompilation, and ``workers > 1`` fans each
    compiler's batch of kernels out across a cost-balanced process pool.
    Execution runs every result row directly on the configured backend.
    """

    def __init__(
        self,
        compilers: Mapping[str, object],
        input_seed: int = 0,
        *,
        backend: Union[str, object, None] = None,
        workers: int = 1,
        cache: Optional[CompilationCache] = None,
    ) -> None:
        """``compilers`` maps a label to a compiler.

        Each value may be a live object with ``compile_expression``, a
        registry name (``"coyote"``) or a
        :class:`~repro.compiler.registry.CompilerSpec`; names and specs are
        resolved through the compiler registry and get cache keys that are
        stable across processes.  ``backend`` names the execution backend
        every result row runs on (resolved through the backend registry;
        None follows the ``REPRO_BACKEND``/``reference`` default).
        """
        if not compilers:
            raise ValueError("BenchmarkRunner needs at least one compiler")
        self.input_seed = input_seed
        self.backend, _ = resolve_backend(backend)
        self.backend_name = getattr(self.backend, "name", type(self.backend).__name__)
        self.cache = cache if cache is not None else CompilationCache()
        self.services: Dict[str, CompilationService] = {
            label: CompilationService(compiler, workers=workers, cache=self.cache)
            for label, compiler in compilers.items()
        }
        #: Per-label batch accounting of the most recent :meth:`run` call.
        self.last_batch_reports: Dict[str, BatchReport] = {}

    def _make_result(
        self,
        benchmark: Benchmark,
        label: str,
        report: CompilationReport,
        reference: Sequence[int],
        inputs: Mapping[str, int],
    ) -> BenchmarkResult:
        execution: ExecutionReport = self.backend.execute(report.circuit, inputs)
        output = declared_outputs(report.circuit, execution.outputs)
        stats = report.stats
        return BenchmarkResult(
            benchmark=benchmark.name,
            compiler=label,
            backend=self.backend_name,
            compile_time_s=report.compile_time_s,
            execution_latency_ms=execution.latency_ms,
            consumed_noise_budget=execution.consumed_noise_budget,
            remaining_noise_budget=execution.remaining_noise_budget,
            noise_budget_exhausted=execution.noise_budget_exhausted,
            final_cost=report.final_cost,
            correct=list(output) == list(reference),
            depth=stats.depth,
            mult_depth=stats.mult_depth,
            ct_ct_multiplications=stats.ct_ct_multiplications,
            ct_pt_multiplications=stats.ct_pt_multiplications,
            rotations=stats.rotations,
            additions=stats.additions,
            subtractions=stats.subtractions,
            total_operations=stats.total_operations,
        )

    def run_workloads(self, workloads: Iterable[object]) -> List[BenchmarkResult]:
        """Run every configured compiler on registered workloads.

        ``workloads`` holds registry names (``"dot-product"``) or built
        :class:`~repro.workloads.registry.Workload` objects; each is adapted
        to a :class:`Benchmark` (same seeded input sampling, same plaintext
        reference) and run through the exact :meth:`run` path.
        """
        from repro.workloads.registry import get_workload

        suite = [get_workload(workload).as_benchmark() for workload in workloads]
        return self.run(suite)

    def run(self, benchmarks: Iterable[Benchmark]) -> List[BenchmarkResult]:
        """Run every compiler on every benchmark.

        The compile phase is batched per compiler through the service (one
        cost-balanced fan-out per label); execution and verification stay
        serial because the FHE simulator dominates neither phase.  Sample
        inputs and the plaintext reference are computed once per benchmark
        and shared across every compiler's result.
        """
        suite = list(benchmarks)
        jobs = [CompilationJob(expr=b.expression(), name=b.name) for b in suite]
        self.last_batch_reports = {}
        results: List[BenchmarkResult] = []
        per_label_reports: Dict[str, List[CompilationReport]] = {}
        for label, service in self.services.items():
            batch = service.compile_batch(jobs)
            self.last_batch_reports[label] = batch
            per_label_reports[label] = batch.reports
        for index, benchmark in enumerate(suite):
            inputs = benchmark.sample_inputs(seed=self.input_seed)
            reference = benchmark.reference(inputs)
            for label in self.services:
                report = per_label_reports[label][index]
                results.append(
                    self._make_result(benchmark, label, report, reference, inputs)
                )
        return results

    # -- summaries -------------------------------------------------------------------
    @staticmethod
    def summarize_ratio(
        results: Sequence[BenchmarkResult],
        metric: str,
        numerator: str,
        denominator: str,
    ) -> float:
        """Geometric-mean ratio ``numerator/denominator`` of ``metric``.

        This is how the paper reports "Coyote / CHEHAB RL" factors (e.g. the
        5.3× execution-time speedup): per-benchmark ratios, then the
        geometric mean.
        """
        by_benchmark: Dict[str, Dict[str, float]] = {}
        for result in results:
            by_benchmark.setdefault(result.benchmark, {})[result.compiler] = float(
                getattr(result, metric)
            )
        ratios: List[float] = []
        for values in by_benchmark.values():
            if numerator in values and denominator in values and values[denominator] > 0:
                ratios.append(max(values[numerator], 1e-12) / values[denominator])
        return geometric_mean(ratios)


def make_agent_compiler(
    agent: ChehabAgent,
    layout_before_encryption: bool = True,
) -> Compiler:
    """Wrap a trained agent in a Compiler (the CHEHAB RL configuration)."""
    return Compiler(
        CompilerOptions(
            optimizer=agent,
            layout_before_encryption=layout_before_encryption,
            cost_model=agent.reward_config.cost_model,
        )
    )


@lru_cache(maxsize=8)
def _cached_agent(
    train_timesteps: int,
    dataset_size: int,
    seed: int,
    use_random_data: bool,
    use_terminal_reward: bool,
) -> ChehabAgent:
    from repro.datagen import RandomExpressionGenerator, SyntheticKernelGenerator, build_dataset
    from repro.ir.tokenize import ICITokenizer
    from repro.kernels.registry import benchmark_suite

    tokenizer = ICITokenizer(max_length=96)
    if use_random_data:
        generator = RandomExpressionGenerator(max_depth=4, max_vector_size=4, seed=seed)
    else:
        generator = SyntheticKernelGenerator(seed=seed, max_size=6)
    benchmarks = [b.expression() for b in benchmark_suite(include_deep_trees=False)]
    dataset = build_dataset(generator, dataset_size, benchmarks=benchmarks)
    reward = RewardConfig(use_terminal_reward=use_terminal_reward)
    agent = ChehabAgent(
        policy_config=PolicyConfig.small(vocab_size=tokenizer.vocab_size, max_tokens=96, seed=seed),
        reward_config=reward,
        max_steps=25,
    )
    agent.tokenizer = tokenizer
    if train_timesteps > 0 and len(dataset) > 0:
        agent.train(
            list(dataset),
            total_timesteps=train_timesteps,
            num_envs=2,
            ppo_config=PPOConfig.small(seed=seed),
            seed=seed,
        )
    return agent


def make_default_agent(
    train_timesteps: int = 512,
    dataset_size: int = 64,
    seed: int = 0,
    use_random_data: bool = False,
    use_terminal_reward: bool = True,
) -> ChehabAgent:
    """A (small, briefly trained) CHEHAB RL agent for the experiment harness.

    The configuration is the scaled-down counterpart of the paper's 2M-step
    training run; raise ``train_timesteps`` and ``dataset_size`` to approach
    the full-scale setup.  Agents are cached per configuration so repeated
    harness invocations in one process reuse the same trained policy.
    """
    return _cached_agent(
        int(train_timesteps), int(dataset_size), int(seed), bool(use_random_data), bool(use_terminal_reward)
    )
