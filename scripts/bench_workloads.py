#!/usr/bin/env python
"""Workload-suite benchmark (emits BENCH_workloads.json).

Runs every default workload — the Coyote and Porcupine kernels, the tree
ensemble and the IR-lowered NN linear layer — as a batch on both the
``reference`` and ``vector-vm`` backends, down two paths that must agree
bit for bit:

* **direct**  — one ``api.execute_batch`` call per (workload, backend);
* **server**  — the same per-item seeds submitted as jobs to a
  :class:`~repro.server.server.JobServer` and drained through the
  coalescing scheduler.

A mixed-traffic pass then pushes the weighted :func:`default_mix` schedule
(priorities, per-workload compilers/backends) through the server and the
direct path, recording throughput, telemetry wait/run histograms and
coalescing rates.  ``--check`` exits non-zero unless every row is
bit-identical across paths, every verified output is correct, and the
required workload/backend coverage (>= 5 workloads x 2 backends) holds.
"""

from __future__ import annotations

import argparse
import sys

from _bench_common import write_bench_json

from repro.workloads.traffic import (
    benchmark_problems,
    benchmark_workloads,
    summarize_benchmark,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch", type=int, default=16, help="input sets per row")
    parser.add_argument(
        "--traffic-jobs", type=int, default=60, help="jobs in the mixed-traffic pass"
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open-loop arrival rate in jobs/s (default: burst submission)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_workloads.json", help="output JSON path")
    parser.add_argument(
        "--check", action="store_true", help="fail on any mismatch or coverage gap"
    )
    args = parser.parse_args()

    payload = benchmark_workloads(
        batch=args.batch,
        traffic_jobs=args.traffic_jobs,
        rate=args.rate,
        seed=args.seed,
    )
    payload = write_bench_json(args.out, payload)

    for line in summarize_benchmark(payload):
        print(line)
    print(f"-> {args.out}")

    if args.check:
        problems = benchmark_problems(payload)
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
