"""The workload suite: registered end-to-end scenarios + mixed traffic.

Everything the compile/execute/server stack ran before this package was a
hand-typed s-expression; the paper's kernels lived off to the side in
:mod:`repro.kernels` as harness-only objects.  This package closes that
gap with the system's third registry (after compilers and backends):

* :mod:`repro.workloads.registry` — ``@register_workload`` and the
  :class:`Workload` model: source circuit, seeded input sampler (the
  facade's ``sample_named_inputs`` contract), expected-output oracle and
  default compiler/backend per scenario;
* :mod:`repro.workloads.suites` — the Coyote suite, the Porcupine kernels
  and polynomial tree ensembles as parameterized workloads;
* :mod:`repro.workloads.neural` — a quantized NN linear layer lowered
  through the IR, oracle-checked against the numpy autograd forward pass;
* :mod:`repro.workloads.traffic` — the mixed-traffic load generator: an
  open-loop arrival schedule over a weighted workload mix (priorities and
  per-workload compiler/backend choices included), driven through the
  :class:`~repro.server.server.JobServer` and through direct
  ``api.execute_batch``, reporting throughput, wait/latency histograms and
  coalescing rates — plus deliberately-over-capacity schedules
  (:func:`generate_overload_schedule`) for the overload bench,
  with goodput/shed/SLO accounting in :class:`TrafficReport`.

``repro.api`` exposes ``run_workload``/``list_workloads``, the CLI adds
``workloads`` and ``bench-workloads``, and ``scripts/bench_workloads.py``
writes the committed ``BENCH_workloads.json``.
"""

from repro.workloads.registry import (
    Workload,
    WorkloadInfo,
    available_workloads,
    build_workload,
    get_workload,
    register_workload,
    workload_info,
)
from repro.workloads.traffic import (
    Arrival,
    MixEntry,
    TrafficReport,
    benchmark_problems,
    benchmark_workloads,
    default_mix,
    generate_overload_schedule,
    generate_schedule,
    overload_mix,
    run_direct_traffic,
    run_server_traffic,
    summarize_benchmark,
)

__all__ = [
    "Workload",
    "WorkloadInfo",
    "register_workload",
    "available_workloads",
    "workload_info",
    "build_workload",
    "get_workload",
    "MixEntry",
    "Arrival",
    "TrafficReport",
    "default_mix",
    "overload_mix",
    "generate_schedule",
    "generate_overload_schedule",
    "run_server_traffic",
    "run_direct_traffic",
    "benchmark_workloads",
    "summarize_benchmark",
    "benchmark_problems",
]
