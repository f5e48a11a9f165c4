"""Span exporters: Chrome trace-event JSON and the per-stage rollup table.

Two consumers, two formats:

* :func:`chrome_trace` renders spans as Chrome trace-event objects
  (``"ph": "X"`` complete events, microsecond timestamps), wrapped in
  ``{"traceEvents": [...]}`` — loadable by ``chrome://tracing`` and
  Perfetto.  Lanes (``pid``/``tid``): the real process id, with one thread
  lane per span category+thread so server stages, per-job mirrors and tick
  envelopes stack readably.
* :func:`stage_rollup` answers "which stage eats the 2x": per stage name it
  reports count, total duration, **self time** (duration minus the duration
  of child spans, so nested stages never double-count), exact p50/p99 over
  the raw durations, and each stage's share of all attributed self time.
  ``window_s`` is the wall span covered by the input and ``coverage`` the
  fraction of that window attributed to named stages — the bench asserts
  coverage ≥ 0.95 on a server pass.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.obs.trace import Span

__all__ = [
    "chrome_trace",
    "export_chrome_trace",
    "render_stage_report",
    "stage_rollup",
]

#: The lifecycle stage names in pipeline order (used to sort report rows and
#: by the smoke test to assert every stage showed up).
STAGE_ORDER = (
    "submit",
    "persist",
    "queue_wait",
    "admission",
    "poll_store",
    "queue_drain",
    "coalesce",
    "backend_compile",
    "execute",
    "commit_result",
    "verify",
)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Exact (linear-interpolated) percentile over raw values."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = q * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    fraction = rank - lo
    return sorted_values[lo] + fraction * (sorted_values[hi] - sorted_values[lo])


def chrome_trace(spans: Iterable[Span]) -> Dict[str, object]:
    """Spans as a Perfetto-loadable Chrome trace-event payload."""
    events: List[Dict[str, object]] = []
    tids: Dict[object, int] = {}
    for span in spans:
        lane_key = (span.pid, span.cat, span.thread)
        tid = tids.setdefault(lane_key, len(tids) + 1)
        args: Dict[str, object] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
        }
        if span.parent_id:
            args["parent_id"] = span.parent_id
        if span.status != "ok":
            args["status"] = span.status
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": span.start_wall * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": span.pid,
                "tid": tid,
                "args": args,
            }
        )
    events.sort(key=lambda event: event["ts"])
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": f"{cat} (thread {thread & 0xFFFF:x})"},
        }
        for (pid, cat, thread), tid in tids.items()
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def export_chrome_trace(spans: Iterable[Span], path: str) -> int:
    """Write :func:`chrome_trace` to ``path``; returns the event count."""
    payload = chrome_trace(spans)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return sum(1 for event in payload["traceEvents"] if event.get("ph") == "X")


def stage_rollup(
    spans: Iterable[Span],
    *,
    cats: Sequence[str] = ("stage",),
    window_s: Optional[float] = None,
) -> Dict[str, object]:
    """Aggregate stage spans into the per-stage latency table.

    ``self_s`` per stage subtracts the duration of *included* child spans
    from each parent, so a ``submit`` span containing ``admission`` and
    ``persist`` children contributes only its own bookkeeping to ``self_s``
    and total attributed time is never double-counted.  ``window_s``
    defaults to the wall interval covered by the included spans; pass the
    externally measured wall time (as the bench does) to attribute against
    a known denominator.
    """
    included = [span for span in spans if span.cat in cats]
    by_id = {span.span_id: span for span in included}
    child_time: Dict[str, float] = {}
    for span in included:
        if span.parent_id and span.parent_id in by_id:
            child_time[span.parent_id] = (
                child_time.get(span.parent_id, 0.0) + span.duration_s
            )

    stages: Dict[str, Dict[str, object]] = {}
    durations: Dict[str, List[float]] = {}
    attributed = 0.0
    for span in included:
        self_s = max(0.0, span.duration_s - child_time.get(span.span_id, 0.0))
        attributed += self_s
        row = stages.setdefault(
            span.name,
            {"stage": span.name, "count": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0},
        )
        row["count"] = int(row["count"]) + 1
        row["total_s"] = float(row["total_s"]) + span.duration_s
        row["self_s"] = float(row["self_s"]) + self_s
        if span.status != "ok":
            row["errors"] = int(row["errors"]) + 1
        durations.setdefault(span.name, []).append(span.duration_s)

    for name, row in stages.items():
        values = sorted(durations[name])
        row["mean_s"] = float(row["total_s"]) / int(row["count"])
        row["p50_s"] = _percentile(values, 0.5)
        row["p99_s"] = _percentile(values, 0.99)
        row["max_s"] = values[-1]
        row["share"] = (
            float(row["self_s"]) / attributed if attributed > 0 else 0.0
        )

    if window_s is None:
        if included:
            start = min(span.start_wall for span in included)
            end = max(span.end_wall for span in included)
            window_s = max(0.0, end - start)
        else:
            window_s = 0.0

    order = {name: index for index, name in enumerate(STAGE_ORDER)}
    rows = sorted(
        stages.values(),
        key=lambda row: (order.get(str(row["stage"]), len(order)), str(row["stage"])),
    )
    return {
        "stages": rows,
        "attributed_s": attributed,
        "window_s": float(window_s),
        "coverage": (attributed / window_s) if window_s and window_s > 0 else 0.0,
        "span_count": len(included),
    }


def render_stage_report(rollup: Mapping[str, object]) -> str:
    """The rollup as an aligned text table (the ``repro trace report`` body)."""
    rows: List[Mapping[str, object]] = list(rollup.get("stages", []))  # type: ignore[arg-type]
    header = ("stage", "count", "total_s", "self_s", "share", "p50_ms", "p99_ms", "max_ms")
    table: List[Sequence[str]] = [header]
    for row in rows:
        table.append(
            (
                str(row["stage"]),
                str(int(row["count"])),
                f"{float(row['total_s']):.4f}",
                f"{float(row['self_s']):.4f}",
                f"{float(row['share']) * 100:5.1f}%",
                f"{float(row['p50_s']) * 1e3:.3f}",
                f"{float(row['p99_s']) * 1e3:.3f}",
                f"{float(row['max_s']) * 1e3:.3f}",
            )
        )
    widths = [max(len(line[col]) for line in table) for col in range(len(header))]
    lines = []
    for index, line in enumerate(table):
        lines.append(
            "  ".join(
                cell.ljust(widths[col]) if col == 0 else cell.rjust(widths[col])
                for col, cell in enumerate(line)
            )
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    window = float(rollup.get("window_s", 0.0))
    attributed = float(rollup.get("attributed_s", 0.0))
    coverage = float(rollup.get("coverage", 0.0))
    lines.append("")
    lines.append(
        f"attributed {attributed:.4f}s of {window:.4f}s window "
        f"({coverage * 100:.1f}% coverage, {int(rollup.get('span_count', 0))} spans)"
    )
    return "\n".join(lines)
