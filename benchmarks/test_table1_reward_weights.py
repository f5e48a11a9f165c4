"""Table 1: reward-weight sensitivity.

The paper compares the default cost weights (1, 1, 1) against
depth-emphasising variants (1, 50, 50), (1, 100, 100) and (1, 150, 150):
the variants consume slightly less noise (0.91-0.94×) but run 1.4-1.5×
slower.  The benchmark runs the three ``weights-*`` suite components on
their greedy (1, 1, 1) baseline — the deterministic rewriter isolates the
weights from RL training variance — and regenerates the same two factors
per weight configuration, asserting the trade-off's direction.
"""

from __future__ import annotations

from repro.studies import StudySpec

_WEIGHTS = ((1, 50, 50), (1, 100, 100), (1, 150, 150))
_BENCH_NAMES = ("dot_product_8", "l2_distance_8", "polynomial_regression_4", "max_4", "tree_100_100_5")


def _component(weights):
    return "weights-" + "-".join(str(weight) for weight in weights)


def test_table1_reward_weight_sensitivity(benchmark, run_suite_study):
    """Regenerate Table 1 (execution-time and noise factors vs (1,1,1))."""
    spec = StudySpec(
        name="table1",
        kind="suite",
        components=tuple(_component(weights) for weights in _WEIGHTS),
        workloads=_BENCH_NAMES,
        replicates=1,
    )
    means = benchmark.pedantic(lambda: run_suite_study(spec), rounds=1, iterations=1)
    baseline = means["baseline"]

    def factor(condition, metric):
        return means[condition][metric] / baseline[metric]

    print("\nTable 1 — reward weight sensitivity (relative to (1,1,1))")
    rows = [((1, 1, 1), "baseline")] + [(w, _component(w)) for w in _WEIGHTS]
    for weights, condition in rows:
        exec_factor = factor(condition, "execution_latency_ms_geomean")
        noise_factor = factor(condition, "consumed_noise_budget_geomean")
        print(f"  {str(weights):15s} exec {exec_factor:5.3f}x   noise {noise_factor:5.3f}x")
    # Shape: depth-heavy weights never run faster than the default and never
    # consume more noise than the default (the paper's trade-off direction).
    for weights in _WEIGHTS:
        assert factor(_component(weights), "execution_latency_ms_geomean") >= 0.95
        assert factor(_component(weights), "consumed_noise_budget_geomean") <= 1.05
