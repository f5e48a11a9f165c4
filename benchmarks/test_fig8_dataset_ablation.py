"""Figure 8: training-data ablation (LLM-style motifs vs random expressions).

The paper finds that the agent trained on LLM-generated data produces much
faster circuits than one trained on uniformly random expressions.  The
benchmark runs the ``realistic-data`` suite study at one replicate (both
agents trained briefly with seed 0) and regenerates the per-kernel execution
series; the asserted shape is that the motif-trained agent is at least as
good in the geometric mean.
"""

from __future__ import annotations

from repro.studies import StudySpec, SuiteConfig

_BENCH_NAMES = ("dot_product_8", "l2_distance_8", "hamming_distance_8", "linear_regression_8")


def test_fig8_llm_vs_random_training_data(benchmark, run_suite_study):
    spec = StudySpec(
        name="fig8",
        kind="suite",
        components=("realistic-data",),
        workloads=_BENCH_NAMES,
        replicates=1,
        base_config=SuiteConfig(train_timesteps=256),
    )
    means = benchmark.pedantic(lambda: run_suite_study(spec), rounds=1, iterations=1)
    realistic, random_data = means["baseline"], means["realistic-data"]
    print("\nFig. 8 — execution time (ms): agent trained on LLM-style vs random data")
    for name in sorted(_BENCH_NAMES):
        key = f"execution_latency_ms/{name}"
        print(f"  {name:24s} LLM-style {realistic[key]:9.1f}   random {random_data[key]:9.1f}")
    factor = (
        random_data["execution_latency_ms_geomean"]
        / realistic["execution_latency_ms_geomean"]
    )
    print(f"  geometric-mean factor (random / LLM-style): {factor:.2f}x")
    # Shape: realistic training data is never worse in the geometric mean.
    assert factor >= 0.99
