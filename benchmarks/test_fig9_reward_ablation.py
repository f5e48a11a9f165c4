"""Figure 9: step-only vs step+terminal reward.

The paper reports that adding the terminal reward yields 1.291× better
execution time (geometric mean) than the step-only reward.  The benchmark
runs the ``terminal-reward`` suite study at one replicate (both agents
trained briefly with seed 0) and regenerates the per-kernel series; the
asserted shape is that the combined reward is not worse.
"""

from __future__ import annotations

from repro.studies import StudySpec, SuiteConfig

_BENCH_NAMES = ("dot_product_8", "l2_distance_8", "linear_regression_8", "gx_3x3")


def test_fig9_step_vs_terminal_reward(benchmark, run_suite_study):
    spec = StudySpec(
        name="fig9",
        kind="suite",
        components=("terminal-reward",),
        workloads=_BENCH_NAMES,
        replicates=1,
        base_config=SuiteConfig(train_timesteps=256),
    )
    means = benchmark.pedantic(lambda: run_suite_study(spec), rounds=1, iterations=1)
    combined, step_only = means["baseline"], means["terminal-reward"]
    print("\nFig. 9 — execution time (ms): step-only vs step+terminal reward")
    for name in sorted(_BENCH_NAMES):
        key = f"execution_latency_ms/{name}"
        print(f"  {name:24s} step+terminal {combined[key]:9.1f}   step-only {step_only[key]:9.1f}")
    factor = (
        step_only["execution_latency_ms_geomean"] / combined["execution_latency_ms_geomean"]
    )
    print(f"  geometric-mean factor (step-only / step+terminal): {factor:.3f}x")
    assert factor >= 0.99
