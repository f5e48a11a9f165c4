#!/usr/bin/env python
"""Throughput benchmark of the orchestration server (emits BENCH_server.json).

Measures the headline win of the batch-coalescing scheduler: N queued users
asking for the same circuits are served in single vector-VM batches (one
tape pass per circuit) instead of N separate executions.  Three ways of
running the *same* workload — ``--users`` input sets for each kernel — are
timed end to end:

* ``server_coalesced``      — submit everything to a :class:`JobServer`
  (vector-vm backend) and drain: the coalescer groups per circuit;
* ``api_execute_reference`` — the one-at-a-time reference path: each job is
  a separate ``repro.api.execute`` call on the default reference backend;
* ``api_execute_vector_vm`` — one-at-a-time on the vector VM (isolates the
  coalescing win from the backend win).

Compilation is warmed up outside the timed windows for every path, and each
path verifies outputs against the plaintext reference (the server does so
internally).  ``--check`` exits non-zero when the coalesced server fails to
beat the one-at-a-time reference path by ``--min-speedup`` (the acceptance
bar is 3x).

A final *untimed* pass repeats the server workload with tracing enabled and
rolls the spans up into ``stage_breakdown`` — per-stage self time over the
traced window (see ``repro trace report``).  The tracing overhead stays out
of every timed row; ``--check`` also requires the named stages to attribute
at least ``--min-coverage`` (default 95%) of the traced server-path wall.
"""

from __future__ import annotations

import argparse
import sys
import time

from _bench_common import write_bench_json

from repro import api
from repro.ir.printer import to_sexpr
from repro.kernels.registry import benchmark_by_name
from repro.server import Job, JobServer

KERNELS = ("dot_product_8", "matrix_multiply_3x3", "box_blur_3x3", "sort_3")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=32, help="jobs per kernel")
    parser.add_argument(
        "--compiler",
        default="initial",
        help="compiler producing the circuits (matches bench_backends.py)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing")
    parser.add_argument("--out", default="BENCH_server.json", help="output JSON path")
    parser.add_argument(
        "--check", action="store_true", help="fail unless the speedup bar is met"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="required coalesced-server speedup over one-at-a-time api.execute",
    )
    parser.add_argument(
        "--min-coverage",
        type=float,
        default=0.95,
        help="required fraction of traced server wall attributed to named stages",
    )
    args = parser.parse_args()

    benchmarks = [benchmark_by_name(name) for name in KERNELS]
    sources = {b.name: to_sexpr(b.expression()) for b in benchmarks}
    #: Pre-compiled reports shared by both one-at-a-time paths, so their
    #: timed loops measure execution + verification only.
    reports = {
        b.name: api.compile(sources[b.name], args.compiler, name=b.name)
        for b in benchmarks
    }
    total_jobs = len(benchmarks) * args.users

    def timed_jobs() -> list:
        """The measured jobs, built before a window opens: constructing them
        is client work that no server span covers."""
        return [
            Job(source=sources[benchmark.name], seed=user)
            for benchmark in benchmarks
            for user in range(args.users)
        ]

    def server_pass() -> float:
        server = JobServer(backend="vector-vm", compiler=args.compiler)
        # Warm the compilation cache (the one-at-a-time paths get precompiled
        # reports, so compilation stays outside every timed window).
        for benchmark in benchmarks:
            server.submit(Job(source=sources[benchmark.name], seed=10_000))
        server.drain()
        jobs = timed_jobs()
        start = time.perf_counter()
        job_ids = [server.submit(job) for job in jobs]
        server.drain()
        wall = time.perf_counter() - start
        for job_id in job_ids:
            payload = server.result(job_id)
            if not payload.get("correct", False):
                raise SystemExit(f"FAIL: server job {job_id} incorrect: {payload}")
        counters = server.telemetry.snapshot()["counters"]
        if counters.get("batches_coalesced", 0) <= 0:
            raise SystemExit("FAIL: server pass coalesced nothing")
        server_pass.telemetry = counters
        return wall

    def one_at_a_time(backend: str) -> float:
        start = time.perf_counter()
        for benchmark in benchmarks:
            for user in range(args.users):
                outcome = api.execute(
                    reports[benchmark.name], seed=user, backend=backend
                )
                if not outcome.correct:
                    raise SystemExit(
                        f"FAIL: {benchmark.name} incorrect one-at-a-time on {backend}"
                    )
        return time.perf_counter() - start

    def traced_breakdown() -> dict:
        """One untimed traced server pass -> the per-stage rollup."""
        from repro.obs.export import stage_rollup

        server = JobServer(backend="vector-vm", compiler=args.compiler, tracing=True)
        try:
            for benchmark in benchmarks:
                server.submit(Job(source=sources[benchmark.name], seed=10_000))
            server.drain()
            # Drop the warmup spans so the rollup window is exactly the
            # submit-everything-and-drain section the timed pass measures.
            server.tracer.clear()
            jobs = timed_jobs()
            start = time.perf_counter()
            for job in jobs:
                server.submit(job)
            server.drain()
            wall = time.perf_counter() - start
            rollup = stage_rollup(server.tracer.spans(), window_s=wall)
        finally:
            server.close()
        rollup["wall_s"] = wall
        return rollup

    walls = {"server_coalesced": min(server_pass() for _ in range(args.repeats))}
    walls["api_execute_reference"] = min(
        one_at_a_time("reference") for _ in range(args.repeats)
    )
    walls["api_execute_vector_vm"] = min(
        one_at_a_time("vector-vm") for _ in range(args.repeats)
    )

    breakdown = traced_breakdown()

    speedup_reference = walls["api_execute_reference"] / walls["server_coalesced"]
    speedup_uncoalesced = walls["api_execute_vector_vm"] / walls["server_coalesced"]
    payload = {
        "kernels": list(KERNELS),
        "users_per_kernel": args.users,
        "jobs": total_jobs,
        "repeats": args.repeats,
        "backend": "vector-vm",
        "wall_s": walls,
        "throughput_jobs_per_s": {
            name: total_jobs / wall for name, wall in walls.items()
        },
        "speedup_vs_reference_one_at_a_time": speedup_reference,
        "speedup_vs_vector_vm_one_at_a_time": speedup_uncoalesced,
        "server_telemetry": server_pass.telemetry,
        "stage_breakdown": breakdown,
    }
    write_bench_json(args.out, payload)

    for name, wall in walls.items():
        print(f"{name:26s} {wall:8.3f} s   {total_jobs / wall:8.1f} jobs/s")
    print(
        f"coalesced server speedup: {speedup_reference:.1f}x vs one-at-a-time "
        f"reference, {speedup_uncoalesced:.1f}x vs one-at-a-time vector-vm "
        f"({total_jobs} jobs) -> {args.out}"
    )
    print(
        "stage breakdown (traced pass, {wall:.3f} s): ".format(
            wall=breakdown["wall_s"]
        )
        + ", ".join(
            f"{row['stage']} {row['self_s'] * 1000.0:.1f}ms"
            for row in breakdown["stages"]
        )
    )
    print(f"stage coverage: {breakdown['coverage']:.1%} of traced server wall")

    failed = False
    if args.check and speedup_reference < args.min_speedup:
        print(
            f"FAIL: coalesced server speedup {speedup_reference:.2f}x is below "
            f"the required {args.min_speedup}x",
            file=sys.stderr,
        )
        failed = True
    if args.check and breakdown["coverage"] < args.min_coverage:
        print(
            f"FAIL: stage breakdown attributes {breakdown['coverage']:.1%} of the "
            f"traced server wall, below the required {args.min_coverage:.0%}",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
