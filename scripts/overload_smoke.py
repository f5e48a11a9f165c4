#!/usr/bin/env python
"""CI smoke of the overload hardening: shed, complete, account for everything.

Bursts a deliberately over-capacity batch of small workloads into a
:class:`~repro.server.server.JobServer` with a bounded queue and an SLO
policy, then checks the invariants CI cares about:

* the bounded queue shed jobs (> 0) and still completed jobs (> 0);
* nothing was lost or double-counted:
  ``jobs_completed + jobs_shed + jobs_failed == jobs_submitted`` in the
  telemetry, and the traffic report agrees with those counters;
* shed jobs carry a terminal ``shed`` status with a reason, visible
  through ``JobServer.jobs()``;
* goodput is positive and the SLO report covers every priority class;
* the server closes cleanly.

Exits non-zero (with a one-line reason) on any violation.
"""

from __future__ import annotations

import argparse
import os
import sys

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )

from repro.server import JobServer, SLOPolicy
from repro.workloads import generate_schedule, overload_mix, run_server_traffic


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=40, help="burst size")
    parser.add_argument("--queue-capacity", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    mix = overload_mix()
    priorities = sorted({entry.priority for entry in mix})
    policy = SLOPolicy.from_budgets({p: 5.0 for p in priorities})
    schedule = generate_schedule(mix, args.jobs, seed=args.seed)  # burst at t=0

    server = JobServer(queue_capacity=args.queue_capacity, slo=policy)
    try:
        report = run_server_traffic(schedule, server=server, check_oracle=True)
        counters = server.telemetry.snapshot()["counters"]
        slo_rows = server.slo_report()
        shed_rows = [row for row in server.jobs() if row["status"] == "shed"]
    finally:
        server.close()

    submitted = counters.get("jobs_submitted", 0)
    completed = counters.get("jobs_completed", 0)
    shed = counters.get("jobs_shed", 0)
    failed = counters.get("jobs_failed", 0)
    if submitted != args.jobs:
        print(f"FAIL: submitted {submitted}, expected {args.jobs}", file=sys.stderr)
        return 1
    if completed + shed + failed != submitted:
        print(
            f"FAIL: {completed} completed + {shed} shed + {failed} failed "
            f"!= {submitted} submitted",
            file=sys.stderr,
        )
        return 1
    if shed <= 0 or completed <= 0:
        print(
            f"FAIL: expected both shedding and completions, got "
            f"shed={shed} completed={completed}",
            file=sys.stderr,
        )
        return 1
    if (report.completed, report.shed, report.failed) != (completed, shed, failed):
        print(
            f"FAIL: traffic report ({report.completed}/{report.shed}/"
            f"{report.failed}) disagrees with telemetry "
            f"({completed}/{shed}/{failed})",
            file=sys.stderr,
        )
        return 1
    if report.goodput_jobs_per_s <= 0.0:
        print("FAIL: goodput is not positive", file=sys.stderr)
        return 1
    if report.oracle_mismatches:
        print(
            f"FAIL: oracle mismatches at arrivals {report.oracle_mismatches}",
            file=sys.stderr,
        )
        return 1
    if len(shed_rows) != shed or any(not row.get("error") for row in shed_rows):
        print("FAIL: shed jobs missing terminal status or reason", file=sys.stderr)
        return 1
    if sorted(int(p) for p in slo_rows) != priorities:
        print(
            f"FAIL: SLO report covers {sorted(slo_rows)}, expected {priorities}",
            file=sys.stderr,
        )
        return 1

    print(
        f"jobs={args.jobs} completed={completed} shed={shed} failed={failed} "
        f"goodput={report.goodput_jobs_per_s:.1f}/s "
        f"slo_ok={report.slo_ok}"
    )
    print("overload smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
