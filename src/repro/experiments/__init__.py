"""Experiment harnesses regenerating the paper's tables and figures.

Each module corresponds to one experiment of the evaluation section (see the
experiment index in DESIGN.md).  All harnesses share
:class:`repro.experiments.harness.BenchmarkRunner`, which compiles every
kernel with every configured compiler, executes the circuits on the FHE
simulator, verifies the outputs against the plaintext reference and collects
the metrics the paper reports (execution latency, compilation time, consumed
noise budget, operation counts, depth and multiplicative depth).

The RL ablations that compare compiled kernels (Figs. 8, 9, 12 and Table 1)
run as seeded, resumable suite studies of :mod:`repro.studies`, which
drives this harness; this package does not import it.

The scaled-down defaults (small kernel subset, short RL training) run in
seconds-to-minutes; every knob can be raised towards the paper's full-scale
setup.  EXPERIMENTS.md records the settings used and the measured results.
"""

from repro.experiments.harness import (
    BenchmarkResult,
    BenchmarkRunner,
    geometric_mean,
    make_agent_compiler,
    make_default_agent,
)
from repro.experiments.main_comparison import run_main_comparison
from repro.experiments.table6 import run_table6
from repro.experiments.motivating_example import run_motivating_example
from repro.experiments.ablations import (
    run_action_space_ablation,
    run_encoder_ablation,
    run_tokenizer_ablation,
)
from repro.experiments.reporting import format_table, results_to_rows, write_csv

__all__ = [
    "BenchmarkRunner",
    "BenchmarkResult",
    "geometric_mean",
    "make_default_agent",
    "make_agent_compiler",
    "run_main_comparison",
    "run_table6",
    "run_motivating_example",
    "run_tokenizer_ablation",
    "run_encoder_ablation",
    "run_action_space_ablation",
    "format_table",
    "results_to_rows",
    "write_csv",
]
