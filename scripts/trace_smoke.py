#!/usr/bin/env python
"""CI smoke of the end-to-end tracing pipeline.

Runs a mixed-traffic burst (several users per kernel, plus compile jobs and a
retried failure) through a traced :class:`~repro.server.server.JobServer`
over a temporary state directory, then checks the observability invariants
CI cares about:

* every lifecycle stage shows up in the span stream (submit, persist,
  queue_wait, coalesce, backend_compile, execute, commit_result);
* every submitted job has one connected trace — a single root span with
  every other span of the trace parented on it — including the retried job;
* the Chrome trace export is loadable (valid JSON, ``traceEvents`` complete
  events with µs timestamps) and ``repro trace report`` prints a non-empty
  stage table;
* the metrics snapshot carries the ``meta`` block (sequence, wall +
  monotonic timestamps) and per-stage histograms for ``repro top``.

Exits non-zero (with a one-line reason) on any violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )

from repro.ir.printer import to_sexpr
from repro.kernels.registry import benchmark_by_name
from repro.obs.export import export_chrome_trace, render_stage_report, stage_rollup
from repro.obs.trace import load_spans
from repro.server import Job, JobServer

KERNELS = ("dot_product_4", "l2_distance_4")

#: Stages the server path must attribute time to on a mixed burst.
REQUIRED_STAGES = (
    "submit",
    "persist",
    "coalesce",
    "backend_compile",
    "execute",
    "commit_result",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=5, help="execute jobs per kernel")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="repro-trace-smoke-") as state_dir:
        server = JobServer(state_dir, backend="vector-vm", tracing=True)
        sources = {name: to_sexpr(benchmark_by_name(name).expression()) for name in KERNELS}

        jobs = []
        for name, source in sources.items():
            for user in range(args.users):
                job = Job(source=source, seed=user, name=f"{name}/u{user}")
                jobs.append(job)
                server.submit(job)
            compile_job = Job(source=source, kind="compile", name=name)
            jobs.append(compile_job)
            server.submit(compile_job)
        # A retried failure: the trace must stay connected across attempts.
        retried = Job(source="(+ broken", max_retries=2, name="retried")
        jobs.append(retried)
        server.submit(retried)

        server.drain()
        server.close()

        trace_path = server.store.trace_path
        if not os.path.exists(trace_path):
            print(f"FAIL: no trace written at {trace_path}", file=sys.stderr)
            return 1
        spans = load_spans(trace_path)
        if not spans:
            print(f"FAIL: trace at {trace_path} holds no spans", file=sys.stderr)
            return 1

        names = {span.name for span in spans}
        missing = [stage for stage in REQUIRED_STAGES if stage not in names]
        if missing:
            print(f"FAIL: lifecycle stages missing from trace: {missing}", file=sys.stderr)
            return 1
        if "queue_wait" not in names:
            print("FAIL: no queue_wait spans on the job traces", file=sys.stderr)
            return 1

        # One connected trace per submission: a single root (the job
        # envelope, pinned to the persisted trace_root) and every other
        # span of that trace parented on it.
        by_trace = {}
        for span in spans:
            by_trace.setdefault(span.trace_id, []).append(span)
        for job in jobs:
            tree = by_trace.get(job.trace_id)
            if not tree:
                print(f"FAIL: job {job.id} left no spans", file=sys.stderr)
                return 1
            roots = [span for span in tree if span.parent_id is None]
            if len(roots) != 1 or roots[0].span_id != job.trace_root:
                print(
                    f"FAIL: job {job.id} trace is not a single tree rooted at "
                    f"trace_root ({len(roots)} roots)",
                    file=sys.stderr,
                )
                return 1
            ids = {span.span_id for span in tree}
            dangling = [
                span.name
                for span in tree
                if span.parent_id is not None and span.parent_id not in ids
            ]
            if dangling:
                print(f"FAIL: job {job.id} has dangling spans: {dangling}", file=sys.stderr)
                return 1
        retried_runs = [
            span for span in by_trace[retried.trace_id] if span.name == "run"
        ]
        if len(retried_runs) != 3:  # two retries + the final failing attempt
            print(
                f"FAIL: retried job recorded {len(retried_runs)} run spans, expected 3",
                file=sys.stderr,
            )
            return 1

        # Perfetto-loadable export: complete events with µs timestamps.
        export_path = os.path.join(state_dir, "trace.json")
        events = export_chrome_trace(spans, export_path)
        with open(export_path, "r", encoding="utf-8") as handle:
            exported = json.load(handle)
        complete = [e for e in exported.get("traceEvents", []) if e.get("ph") == "X"]
        if events != len(spans) or len(complete) != len(spans):
            print(
                f"FAIL: export has {len(complete)} complete events for "
                f"{len(spans)} spans",
                file=sys.stderr,
            )
            return 1
        if any("ts" not in e or "dur" not in e or "name" not in e for e in complete):
            print("FAIL: exported events missing ts/dur/name", file=sys.stderr)
            return 1

        # The report must be non-empty and attribute every required stage.
        rollup = stage_rollup(spans)
        report = render_stage_report(rollup)
        reported = {row["stage"] for row in rollup["stages"]}
        if not rollup["stages"] or not report.strip():
            print("FAIL: empty stage report", file=sys.stderr)
            return 1
        missing = [stage for stage in REQUIRED_STAGES if stage not in reported]
        if missing:
            print(f"FAIL: stage report missing {missing}", file=sys.stderr)
            return 1

        # Snapshot meta + per-stage histograms feed `repro top`.
        with open(server.store.metrics_path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        meta = snapshot.get("meta", {})
        if meta.get("sequence", 0) < 1 or "wall_time" not in meta or "monotonic_time" not in meta:
            print(f"FAIL: snapshot meta incomplete: {meta}", file=sys.stderr)
            return 1
        histograms = snapshot.get("histograms", {})
        if not any(name.startswith("stage_") for name in histograms):
            print("FAIL: no stage_* histograms in the metrics snapshot", file=sys.stderr)
            return 1

        print(report)
        print(
            f"spans={len(spans)} traces={len(by_trace)} events={events} "
            f"coverage={rollup['coverage']:.1%}"
        )
        print("trace smoke OK")
        return 0


if __name__ == "__main__":
    sys.exit(main())
