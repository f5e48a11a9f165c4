#!/usr/bin/env python
"""CI smoke of the study engine's resume contract, for both study kinds.

Runs two tiny studies — a two-component server study through
persistent-state-dir job servers, and a two-component suite study (two
kernels, 64-step agents) — interrupts each after half the matrix
(``max_runs`` stands in for a mid-study kill — the study log is in exactly
the state a SIGKILL between replicates leaves it in), then resumes from the
directory alone and checks the invariants CI cares about:

* the resumed study *skips* every recorded replicate — nothing finished is
  re-executed, and the surviving records are byte-identical to what the
  first (interrupted) invocation persisted;
* the resumed study finishes the remainder: every (condition, replicate)
  cell of the matrix ends up recorded exactly once;
* server replicate seeds are pairwise distinct across the whole matrix (the
  ``SeedSequence.spawn`` independence contract); suite replicate *r* has
  seed *r* in every condition (paired runs);
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
from repro.studies import StudyRunner, StudySpec, SuiteConfig, generate_runs


class SmokeFailure(Exception):
    pass


def interrupt_and_resume(spec: StudySpec) -> dict:
    """Run half of ``spec``'s matrix, resume the rest, check the contract."""
    matrix = generate_runs(spec)
    interrupt_after = len(matrix) // 2
    with tempfile.TemporaryDirectory(prefix="repro-study-smoke-") as study_dir:
        first = StudyRunner(spec, study_dir).run(max_runs=interrupt_after)
        if len(first.executed) != interrupt_after or not first.remaining:
            raise SmokeFailure(
                f"interrupted run executed {len(first.executed)} of "
                f"{interrupt_after} and left {len(first.remaining)} pending"
            )
        log_path = os.path.join(study_dir, "study.jsonl")
        with open(log_path, "r", encoding="utf-8") as handle:
            persisted = handle.read()

        # Resume from the directory alone, the way `study resume` does.
        report = api.run_study(study_dir, resume=True, resamples=200)

        progress = report["progress"]
        if not progress["complete"]:
            raise SmokeFailure(f"resume left {progress['remaining']} pending")
        if sorted(progress["skipped"]) != sorted(first.executed):
            raise SmokeFailure(
                f"resume skipped {progress['skipped']} but the first pass "
                f"recorded {first.executed} — finished replicates were re-run"
            )
        with open(log_path, "r", encoding="utf-8") as handle:
            resumed = handle.read()
        if not resumed.startswith(persisted):
            raise SmokeFailure("resume rewrote records persisted before the interrupt")

        records = StudyRunner(spec, study_dir).load_records()
        run_ids = [r["run_id"] for r in records if r.get("type") == "run"]
        expected = [run.run_id for run in matrix]
        if sorted(run_ids) != sorted(expected) or len(run_ids) != len(set(run_ids)):
            raise SmokeFailure(
                f"recorded matrix {sorted(run_ids)} != expected {sorted(expected)}"
            )

    conditions = {c["condition"] for c in report["conditions"]}
    if "baseline" not in conditions or not conditions.issuperset(spec.components):
        raise SmokeFailure(f"report conditions incomplete: {sorted(conditions)}")
    if len(report["ranking"]) != len(spec.components):
        raise SmokeFailure(f"expected {len(spec.components)} ranking rows")
    for row in report["ranking"]:
        if row["ablated_replicates"] != spec.replicates:
            raise SmokeFailure(
                f"{row['component']} recorded {row['ablated_replicates']} "
                f"replicate(s), wanted {spec.replicates}"
            )
        if not (row["ci_low"] <= row["importance"] <= row["ci_high"]):
            raise SmokeFailure(
                f"{row['component']} importance {row['importance']} outside "
                f"its CI [{row['ci_low']}, {row['ci_high']}]"
            )
    top = report["ranking"][0]
    print(
        f"{spec.kind} study smoke OK: {len(matrix)} runs ({interrupt_after} "
        f"before the interrupt, {len(progress['executed'])} after), "
        f"top component {top['component']} at importance {top['importance']:+.3f}"
    )
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=4, help="jobs per server replicate")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    server = StudySpec(
        name="study-smoke",
        components=("coalescing", "compile-cache"),
        workloads=("dot-product",),
        replicates=args.replicates,
        jobs_per_replicate=args.jobs,
        seed=args.seed,
    )
    suite = StudySpec(
        name="suite-smoke",
        kind="suite",
        components=("rl-policy", "terminal-reward"),
        workloads=("dot_product_4", "max_4"),
        replicates=args.replicates,
        seed=args.seed,
        base_config=SuiteConfig(train_timesteps=64, dataset_size=8),
    )
    seeds = [run.seed for run in generate_runs(server)]
    if len(set(seeds)) != len(seeds):
        print("FAIL: server replicate seeds are not pairwise distinct", file=sys.stderr)
        return 1
    if any(run.seed != run.replicate for run in generate_runs(suite)):
        print("FAIL: suite replicate r does not train with seed r", file=sys.stderr)
        return 1
    try:
        for spec in (server, suite):
            interrupt_and_resume(spec)
    except SmokeFailure as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
