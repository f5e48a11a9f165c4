#!/usr/bin/env python
"""CI smoke of the study engine's resume contract.

Runs a tiny two-component, two-replicate ablation study through
persistent-state-dir job servers, interrupts it after half the matrix
(``max_runs`` stands in for a mid-study kill — the study log is in exactly
the state a SIGKILL between replicates leaves it in), then resumes from the
directory alone and checks the invariants CI cares about:

* the resumed study *skips* every recorded replicate — nothing finished is
  re-executed, and the surviving records are byte-identical to what the
  first (interrupted) invocation persisted;
* the resumed study finishes the remainder: every (condition, replicate)
  cell of the matrix ends up recorded exactly once;
* replicate seeds are pairwise distinct across the whole matrix (the
  ``SeedSequence.spawn`` independence contract);
* the final report carries a baseline row, one row per component, and a
  bootstrap confidence interval on every ranking entry.

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
from repro.studies import StudyRunner, StudySpec, generate_runs

COMPONENTS = ("coalescing", "compile-cache")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=4, help="jobs per replicate")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = StudySpec(
        name="study-smoke",
        components=COMPONENTS,
        workloads=("dot-product",),
        replicates=args.replicates,
        jobs_per_replicate=args.jobs,
        seed=args.seed,
    )
    matrix = generate_runs(spec)
    seeds = [run.seed for run in matrix]
    if len(set(seeds)) != len(seeds):
        print("FAIL: replicate seeds are not pairwise distinct", file=sys.stderr)
        return 1

    interrupt_after = len(matrix) // 2
    with tempfile.TemporaryDirectory(prefix="repro-study-smoke-") as study_dir:
        first = StudyRunner(spec, study_dir).run(max_runs=interrupt_after)
        if len(first.executed) != interrupt_after or not first.remaining:
            print(
                f"FAIL: interrupted run executed {len(first.executed)} of "
                f"{interrupt_after} and left {len(first.remaining)} pending",
                file=sys.stderr,
            )
            return 1
        log_path = os.path.join(study_dir, "study.jsonl")
        with open(log_path, "r", encoding="utf-8") as handle:
            persisted = handle.read()

        # Resume from the directory alone, the way `study resume` does.
        report = api.run_study(study_dir, resume=True, resamples=200)

        progress = report["progress"]
        if not progress["complete"]:
            print(f"FAIL: resume left {progress['remaining']} pending", file=sys.stderr)
            return 1
        if sorted(progress["skipped"]) != sorted(first.executed):
            print(
                f"FAIL: resume skipped {progress['skipped']} but the first pass "
                f"recorded {first.executed} — finished replicates were re-run",
                file=sys.stderr,
            )
            return 1
        with open(log_path, "r", encoding="utf-8") as handle:
            resumed = handle.read()
        if not resumed.startswith(persisted):
            print(
                "FAIL: resume rewrote records persisted before the interrupt",
                file=sys.stderr,
            )
            return 1

        records = StudyRunner(spec, study_dir).load_records()
        run_ids = [r["run_id"] for r in records if r.get("type") == "run"]
        expected = [run.run_id for run in matrix]
        if sorted(run_ids) != sorted(expected) or len(run_ids) != len(set(run_ids)):
            print(
                f"FAIL: recorded matrix {sorted(run_ids)} != expected "
                f"{sorted(expected)}",
                file=sys.stderr,
            )
            return 1

    conditions = {c["condition"] for c in report["conditions"]}
    if "baseline" not in conditions or not conditions.issuperset(COMPONENTS):
        print(f"FAIL: report conditions incomplete: {sorted(conditions)}", file=sys.stderr)
        return 1
    if len(report["ranking"]) != len(COMPONENTS):
        print(f"FAIL: expected {len(COMPONENTS)} ranking rows", file=sys.stderr)
        return 1
    for row in report["ranking"]:
        if row["ablated_replicates"] != args.replicates:
            print(
                f"FAIL: {row['component']} recorded {row['ablated_replicates']} "
                f"replicate(s), wanted {args.replicates}",
                file=sys.stderr,
            )
            return 1
        if not (row["ci_low"] <= row["importance"] <= row["ci_high"]):
            print(
                f"FAIL: {row['component']} importance {row['importance']} outside "
                f"its CI [{row['ci_low']}, {row['ci_high']}]",
                file=sys.stderr,
            )
            return 1

    top = report["ranking"][0]
    print(
        f"study smoke OK: {len(matrix)} runs ({interrupt_after} before the "
        f"interrupt, {len(progress['executed'])} after), "
        f"top component {top['component']} at importance {top['importance']:+.3f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
