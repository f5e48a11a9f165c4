#!/usr/bin/env python
"""Goodput-under-overload benchmark (emits BENCH_overload.json).

Measures what the overload hardening buys: an open-loop arrival stream is
pushed at 0.5x, 1x and 2x the server's *measured* drain capacity, once
against a **hardened** server (bounded queue, priority aging, cost-aware
admission control, per-priority SLOs) and once against an **unbounded**
one (no capacity, no admission — the pre-hardening configuration).  Each
row records offered load, completions, sheds, SLO-meeting completions and
the goodput they imply, plus the per-priority wait percentiles from
``JobServer.slo_report()``.

The collapse this guards against: at 2x capacity an unbounded queue grows
for the whole run, so late jobs wait unboundedly and goodput (SLO-meeting
completions per second) craters even though raw throughput looks fine.
The hardened server sheds the excess instead and keeps serving within
budget.  ``--check`` enforces the acceptance bar:

* the hardened 2x row sheds (> 0) and loses no jobs
  (completed + shed + failed == submitted);
* hardened goodput at 2x stays within ``--goodput-margin`` (default 15%)
  of the peak hardened goodput across all offered loads;
* the hardened 2x p99 wait of the top-priority class meets its SLO budget;
* the hardened 2x run beats the unbounded 2x run on goodput.
"""

from __future__ import annotations

import argparse
import sys
import time

from _bench_common import write_bench_json

from repro.server import Job, JobServer, SLOPolicy
from repro.workloads import generate_overload_schedule, overload_mix, run_server_traffic

FACTORS = (0.5, 1.0, 2.0)


def measure_capacity(jobs: int, seed: int) -> float:
    """Sustained open-loop service rate of the overload mix, jobs/second.

    Two stages: a burst drain warms the compile memo and gives an upper
    bound (everything coalesces into one giant batch per circuit — no open
    loop reaches that), then an open-loop run offered at that bound, with
    an unbounded server, measures what the serving stack actually sustains
    when arrivals trickle in and the load generator shares the process.
    The overload factors are multiples of *this* rate, so "2x capacity"
    means twice what the server demonstrably serves, not twice an
    idealized ceiling.
    """
    from repro.workloads import generate_schedule

    schedule = generate_schedule(overload_mix(), jobs, seed=seed)  # burst at t=0
    server = JobServer()
    try:
        # Warm the compile memo so the measured rate is the steady state the
        # overload rows will actually run at.
        for arrival in schedule:
            server.submit(
                Job(
                    source=arrival.workload.source,
                    compiler=arrival.compiler,
                    backend=arrival.backend,
                    seed=arrival.seed,
                    input_range=arrival.workload.input_range,
                )
            )
        server.drain()
        start = time.perf_counter()
        for arrival in schedule:
            server.submit(
                Job(
                    source=arrival.workload.source,
                    compiler=arrival.compiler,
                    backend=arrival.backend,
                    seed=arrival.seed,
                    input_range=arrival.workload.input_range,
                )
            )
        server.drain()
        burst_rate = jobs / (time.perf_counter() - start)
    finally:
        server.close()

    server = JobServer()
    try:
        open_loop = generate_overload_schedule(
            overload_mix(),
            max(jobs, 200),
            capacity_jobs_per_s=burst_rate,
            overload_factor=1.0,
            seed=seed,
        )
        report = run_server_traffic(
            open_loop, server=server, check_oracle=False, result_timeout=600.0
        )
    finally:
        server.close()
    return report.completed / report.wall_s


def run_row(
    *,
    hardened: bool,
    factor: float,
    capacity: float,
    jobs: int,
    seed: int,
    policy: SLOPolicy,
    wait_budget_s: float,
) -> dict:
    # Scale the arrival count with the factor so every row offers load over
    # the *same* time window (jobs/capacity seconds); otherwise the 2x row
    # would simply end twice as fast and its goodput would not be
    # comparable to the 1x row's.
    schedule = generate_overload_schedule(
        overload_mix(),
        max(1, int(round(jobs * factor))),
        capacity_jobs_per_s=capacity,
        overload_factor=factor,
        seed=seed,
    )
    if hardened:
        # A full queue drains in queue_capacity/capacity seconds and a job
        # can additionally sit out the tick in flight, so budget/4 of
        # backlog keeps worst-case waits around half the budget.
        queue_capacity = max(8, int(capacity * wait_budget_s / 4.0))
        server = JobServer(
            queue_capacity=queue_capacity,
            aging_interval_s=wait_budget_s / 2.0,
            slo=policy,
            admission="shed",
        )
    else:
        queue_capacity = None
        server = JobServer(slo=policy)
    try:
        report = run_server_traffic(
            schedule, server=server, check_oracle=False, result_timeout=600.0
        )
        slo_rows = server.slo_report()
    finally:
        server.close()
    payload = report.as_dict()
    payload.pop("wait_histogram_s", None)
    payload.pop("run_histogram_s", None)
    payload.pop("per_workload", None)
    payload.pop("oracle_mismatches", None)
    return {
        "mode": "hardened" if hardened else "unbounded",
        "overload_factor": factor,
        "offered_jobs_per_s": capacity * factor,
        "queue_capacity": queue_capacity,
        "report": payload,
        "slo": slo_rows,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1000,
        help="arrivals in the 1x row (other rows scale with their factor)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--wait-budget",
        type=float,
        default=0.15,
        help="per-priority p99 wait SLO budget, seconds",
    )
    parser.add_argument("--out", default="BENCH_overload.json", help="output JSON path")
    parser.add_argument(
        "--check", action="store_true", help="fail unless the acceptance bar is met"
    )
    parser.add_argument(
        "--goodput-margin",
        type=float,
        default=0.15,
        help="allowed fractional goodput drop at 2x vs the hardened peak",
    )
    args = parser.parse_args()

    mix = overload_mix()
    priorities = sorted({entry.priority for entry in mix})
    top_priority = priorities[-1]
    policy = SLOPolicy.from_budgets({p: args.wait_budget for p in priorities})

    capacity = measure_capacity(min(args.jobs, 400), args.seed)
    print(f"measured capacity: {capacity:.1f} jobs/s")

    rows = []
    for hardened in (True, False):
        for factor in FACTORS:
            row = run_row(
                hardened=hardened,
                factor=factor,
                capacity=capacity,
                jobs=args.jobs,
                seed=args.seed,
                policy=policy,
                wait_budget_s=args.wait_budget,
            )
            rows.append(row)
            rep = row["report"]
            print(
                f"{row['mode']:<9} {factor:>4.1f}x  offered {row['offered_jobs_per_s']:7.1f}/s  "
                f"goodput {rep['goodput_jobs_per_s']:7.1f}/s  "
                f"completed {rep['completed']:>4}  shed {rep['shed']:>4}  "
                f"slo_ok {rep.get('slo_ok', rep['completed']):>4}"
            )

    def pick(mode: str, factor: float) -> dict:
        return next(
            r
            for r in rows
            if r["mode"] == mode and r["overload_factor"] == factor
        )

    hardened_goodputs = {
        r["overload_factor"]: r["report"]["goodput_jobs_per_s"]
        for r in rows
        if r["mode"] == "hardened"
    }
    peak_goodput = max(hardened_goodputs.values())
    hardened_2x = pick("hardened", 2.0)
    unbounded_2x = pick("unbounded", 2.0)
    top_p99_wait = hardened_2x["slo"][str(top_priority)]["wait_p99_s"]

    payload = {
        "seed": args.seed,
        "jobs_per_row": args.jobs,
        "capacity_jobs_per_s": capacity,
        "wait_budget_s": args.wait_budget,
        "top_priority": top_priority,
        "mix": [
            {
                "workload": entry.workload,
                "weight": entry.weight,
                "priority": entry.priority,
            }
            for entry in mix
        ],
        "rows": rows,
        "summary": {
            "hardened_goodput_by_factor": hardened_goodputs,
            "hardened_peak_goodput_jobs_per_s": peak_goodput,
            "hardened_2x_goodput_jobs_per_s": hardened_2x["report"][
                "goodput_jobs_per_s"
            ],
            "unbounded_2x_goodput_jobs_per_s": unbounded_2x["report"][
                "goodput_jobs_per_s"
            ],
            "hardened_2x_top_priority_p99_wait_s": top_p99_wait,
        },
    }
    write_bench_json(args.out, payload)
    print(
        f"2x overload: hardened {hardened_2x['report']['goodput_jobs_per_s']:.1f}/s "
        f"vs unbounded {unbounded_2x['report']['goodput_jobs_per_s']:.1f}/s goodput, "
        f"top-priority p99 wait {top_p99_wait * 1000:.1f} ms "
        f"(budget {args.wait_budget * 1000:.0f} ms) -> {args.out}"
    )

    if not args.check:
        return 0
    failures = []
    rep_2x = hardened_2x["report"]
    if rep_2x["shed"] <= 0:
        failures.append("hardened 2x row shed nothing")
    if rep_2x["completed"] + rep_2x["shed"] + rep_2x["failed"] != rep_2x["jobs"]:
        failures.append(
            f"hardened 2x lost jobs: {rep_2x['completed']}+{rep_2x['shed']}"
            f"+{rep_2x['failed']} != {rep_2x['jobs']}"
        )
    floor = (1.0 - args.goodput_margin) * peak_goodput
    if rep_2x["goodput_jobs_per_s"] < floor:
        failures.append(
            f"hardened 2x goodput {rep_2x['goodput_jobs_per_s']:.1f}/s below "
            f"{floor:.1f}/s ({1 - args.goodput_margin:.0%} of peak {peak_goodput:.1f}/s)"
        )
    if top_p99_wait > args.wait_budget:
        failures.append(
            f"hardened 2x top-priority p99 wait {top_p99_wait:.3f}s exceeds "
            f"budget {args.wait_budget:.3f}s"
        )
    if rep_2x["goodput_jobs_per_s"] <= unbounded_2x["report"]["goodput_jobs_per_s"]:
        failures.append(
            "hardened 2x goodput does not beat the unbounded configuration"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
