"""Shared fixtures for the benchmark harness.

The expensive artifacts (the briefly-trained RL agent and the main
CHEHAB-RL-vs-Coyote comparison run) are computed once per session and shared
by the per-figure benchmark modules.  The RL ablations (Figs. 8, 9, 12 and
Table 1) run as suite studies through :func:`run_suite_study`.  Every figure/table module prints the
series it regenerates, so running ``pytest benchmarks/ --benchmark-only -s``
reproduces the paper's evaluation artifacts in one go (at reproduction
scale; see EXPERIMENTS.md for the settings and measured numbers).
"""

from __future__ import annotations

import pytest

from repro.api import CompilationCache
from repro.experiments import make_default_agent, run_main_comparison
from repro.kernels import benchmark_by_name
from repro.studies import StudyRunner, study_report

#: Benchmarks used by the main comparison figures (a representative slice of
#: every suite; the full list of Table 6 is available via benchmark_suite()).
MAIN_BENCHMARK_NAMES = (
    "box_blur_3x3",
    "dot_product_8",
    "dot_product_16",
    "hamming_distance_8",
    "l2_distance_8",
    "linear_regression_8",
    "polynomial_regression_8",
    "gx_3x3",
    "gy_3x3",
    "roberts_cross_3x3",
    "matrix_multiply_3x3",
    "max_4",
    "sort_3",
    "tree_50_50_5",
    "tree_100_100_5",
)

#: Training budget of the session agent (the paper uses 2,000,000 steps).
TRAIN_TIMESTEPS = 256


@pytest.fixture(scope="session")
def main_benchmarks():
    return [benchmark_by_name(name) for name in MAIN_BENCHMARK_NAMES]


@pytest.fixture(scope="session")
def trained_agent():
    return make_default_agent(train_timesteps=TRAIN_TIMESTEPS)


@pytest.fixture(scope="session")
def compilation_cache():
    """One compilation cache shared by every figure/table module, so kernels
    compiled for one figure are reused by every other figure in the session."""
    return CompilationCache(capacity=1024)


@pytest.fixture(scope="session")
def main_comparison(main_benchmarks, compilation_cache):
    return run_main_comparison(
        benchmarks=main_benchmarks,
        train_timesteps=TRAIN_TIMESTEPS,
        cache=compilation_cache,
    )


@pytest.fixture
def run_suite_study(tmp_path):
    """Run a study spec to completion under ``tmp_path`` and return each
    condition's metric means (at one replicate, the run's own values)."""

    def run(spec):
        runner = StudyRunner(spec, str(tmp_path / spec.name))
        runner.run()
        report = study_report(
            spec.as_dict(), runner.load_records(), seed=spec.seed, resamples=200
        )
        return {
            summary["condition"]: {
                metric: stats["mean"] for metric, stats in summary["metrics"].items()
            }
            for summary in report["conditions"]
        }

    return run
