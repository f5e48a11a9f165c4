#!/usr/bin/env python
"""CI smoke of the workload suite and its server path.

Generates a small mixed-traffic schedule from the default workload mix
(Coyote + Porcupine kernels, a tree ensemble, the IR-lowered NN layer, with
priorities and per-workload compilers), runs it through a
:class:`~repro.server.server.JobServer` over a **persistent state
directory**, and checks the invariants CI cares about:

* every server job completes and verifies against the plaintext reference;
* server outputs are **bit-identical** to the direct ``api.execute`` path
  drawn from the same per-arrival seeds (the facade/server seed contract);
* no output disagrees with the workload's expected-output oracle;
* the telemetry snapshot reports coalesced batches (the mix contains
  repeated circuits, so the coalescer must have something to merge);
* the state directory replays to completed jobs on restart.

Exits non-zero (with a one-line reason) on any violation.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )

from repro import api
from repro.server import JobServer
from repro.workloads import default_mix, generate_schedule, run_server_traffic


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=24, help="arrivals in the schedule")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    schedule = generate_schedule(default_mix(), args.jobs, seed=args.seed)

    with tempfile.TemporaryDirectory(prefix="repro-workload-smoke-") as state_dir:
        report = run_server_traffic(schedule, state_dir=state_dir)

        if not report.completed == report.correct == args.jobs:
            print(
                f"FAIL: {report.correct}/{report.completed} completed jobs correct, "
                f"expected {args.jobs}/{args.jobs}",
                file=sys.stderr,
            )
            return 1
        if report.oracle_mismatches:
            print(
                f"FAIL: oracle mismatches at arrivals {report.oracle_mismatches}",
                file=sys.stderr,
            )
            return 1

        # The direct path, one api.execute per arrival from the same seeds,
        # must reproduce the server outputs bit for bit.
        for arrival, server_outputs in zip(schedule, report.outputs):
            outcome = api.execute(
                arrival.workload.source,
                arrival.inputs(),
                arrival.compiler,
                backend=arrival.backend,
                name=arrival.workload.name,
            )
            if outcome.outputs != server_outputs:
                print(
                    f"FAIL: arrival {arrival.index} ({arrival.workload.name}) differs: "
                    f"server {server_outputs} vs direct {outcome.outputs}",
                    file=sys.stderr,
                )
                return 1

        coalescing = report.coalescing
        if coalescing["batches_coalesced"] <= 0:
            print("FAIL: telemetry reports no coalesced batches", file=sys.stderr)
            return 1
        if report.histogram("job_wait_s").get("count") != args.jobs:
            print("FAIL: wait histogram did not observe every job", file=sys.stderr)
            return 1

        # Restart over the same state directory: the store replays every
        # job as completed.
        reborn = JobServer(state_dir)
        statuses = [row["status"] for row in reborn.jobs()]
        reborn.close()
        if len(statuses) != args.jobs or set(statuses) != {"completed"}:
            print(f"FAIL: replay after restart saw {statuses}", file=sys.stderr)
            return 1

    print(
        f"jobs={args.jobs} workloads={len(report.per_workload)} "
        f"coalesced_batches={int(coalescing['batches_coalesced'])} "
        f"job_coalescing_rate={coalescing['job_coalescing_rate']:.0%} "
        f"throughput={report.throughput_jobs_per_s:.1f}/s"
    )
    print("workload smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
