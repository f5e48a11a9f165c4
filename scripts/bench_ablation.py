#!/usr/bin/env python
"""System-ablation study benchmark (emits BENCH_ablation.json).

Runs the default study matrix through :func:`repro.api.run_study`: one
baseline condition with every system component on, plus one condition per
component with exactly that component off — the optimizing compiler, the
batched vector backend, the fingerprint coalescer and the compilation-cache
tier (LRU + circuit memo) — times
``--replicates`` independently seeded replicates each, every replicate a
fresh :class:`~repro.server.server.JobServer` driving ``--jobs`` workload
jobs end to end.  The committed artifact records per-condition metric
summaries and the per-component importance ranking (relative loss of the
primary metric when the component is removed) with bootstrap confidence
intervals.

The study directory defaults to a throwaway temp dir; pass ``--study-dir``
to keep the per-run state around, kill the script mid-study, and finish it
with ``python -m repro study resume --study-dir <dir>``.

``--check`` enforces the acceptance bar: the study completed, the baseline
row exists, every component row carries at least ``--min-replicates``
replicates, and every ranking entry has a confidence interval.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from _bench_common import write_bench_json

from repro import api


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--study-dir",
        default=None,
        help="persistent study directory (default: a throwaway temp dir)",
    )
    parser.add_argument(
        "--components",
        default=None,
        help="comma-separated components (default: the default matrix)",
    )
    parser.add_argument(
        "--workloads",
        default="dot-product,max-tree",
        help="comma-separated workload registry names",
    )
    parser.add_argument("--replicates", type=int, default=3, help="runs per condition")
    parser.add_argument("--jobs", type=int, default=10, help="jobs per replicate")
    parser.add_argument("--seed", type=int, default=0, help="study root seed")
    parser.add_argument(
        "--resamples", type=int, default=2000, help="bootstrap resamples for the CIs"
    )
    parser.add_argument("--out", default="BENCH_ablation.json", help="output JSON path")
    parser.add_argument(
        "--check", action="store_true", help="fail unless the acceptance bar is met"
    )
    parser.add_argument(
        "--min-replicates",
        type=int,
        default=3,
        help="required replicates per condition under --check",
    )
    args = parser.parse_args()

    components = (
        [part.strip() for part in args.components.split(",") if part.strip()]
        if args.components
        else None
    )
    workloads = [part.strip() for part in args.workloads.split(",") if part.strip()]

    def progress(run, record):
        metrics = record.get("metrics", {})
        print(
            f"  ran {run.run_id:<28} throughput="
            f"{metrics.get('throughput_jobs_per_s', 0.0):8.2f} jobs/s"
        )

    def execute(study_dir: str):
        return api.run_study(
            study_dir,
            components=components,
            workloads=workloads,
            replicates=args.replicates,
            jobs_per_replicate=args.jobs,
            seed=args.seed,
            resamples=args.resamples,
            progress=progress,
        )

    if args.study_dir is not None:
        report = execute(args.study_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="bench_ablation_") as study_dir:
            report = execute(study_dir)
        report["study_dir"] = None  # the temp dir is gone; don't point at it

    write_bench_json(args.out, report)

    primary = report["primary_metric"]
    for summary in report["conditions"]:
        stats = summary["metrics"].get(primary, {})
        print(
            f"{summary['condition']:<20} {primary} = {stats.get('mean', 0.0):9.3f}"
            f" ± {stats.get('std', 0.0):7.3f}  (n={stats.get('n', 0)})"
        )
    for row in report["ranking"]:
        print(
            f"#{row['rank']} {row['component']:<20} importance {row['importance']:+.3f}"
            f"  CI [{row['ci_low']:+.3f}, {row['ci_high']:+.3f}]"
        )
    print(f"-> {args.out}")

    if not args.check:
        return 0
    failures = []
    if not report["progress"]["complete"]:
        failures.append("study did not complete")
    baseline = next(
        (c for c in report["conditions"] if c["condition"] == "baseline"), None
    )
    if baseline is None:
        failures.append("no baseline row")
    else:
        n = baseline["metrics"].get(primary, {}).get("n", 0)
        if n < args.min_replicates:
            failures.append(f"baseline has {n} replicate(s) < {args.min_replicates}")
    if not report["ranking"]:
        failures.append("empty importance ranking")
    for row in report["ranking"]:
        if row["ablated_replicates"] < args.min_replicates:
            failures.append(
                f"{row['component']} has {row['ablated_replicates']} replicate(s) "
                f"< {args.min_replicates}"
            )
        if "ci_low" not in row or "ci_high" not in row:
            failures.append(f"{row['component']} ranking row lacks a CI")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
