"""Snapshot math + frame renderers for ``repro top`` and ``repro metrics``.

``metrics.json`` snapshots carry absolute counters; turning them into a
live view needs two things this module provides:

* :func:`snapshot_delta` — the difference of two snapshots, keyed off the
  ``meta`` block :meth:`~repro.server.telemetry.MetricsRegistry.write_snapshot`
  stamps (monotonically increasing ``sequence``, wall + monotonic
  timestamps), so consumers compute *rates* instead of eyeballing absolute
  counts.  Same-process snapshot pairs use the monotonic clocks for the
  elapsed time; cross-process pairs fall back to wall time.
* :func:`render_top` — one ``repro top`` frame: queue depth, in-flight
  batch size, pooled tape arena bytes, throughput rates, coalescing rate,
  SLO compliance and stage p50/p99 pulled from the persisted histograms via
  the same bucket interpolation the live server uses.

Only :mod:`repro.server.telemetry` (a dependency-free leaf module) is
imported — the console never touches the server object itself, so it can
watch a ``metrics.json`` written by any process.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "read_snapshot",
    "render_delta",
    "render_top",
    "snapshot_delta",
]


def read_snapshot(path: str) -> Optional[Dict[str, object]]:
    """Load one ``metrics.json``; None when missing or mid-replace garbage."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def _meta(snapshot: Mapping[str, object]) -> Dict[str, float]:
    meta = snapshot.get("meta")
    if not isinstance(meta, Mapping):
        meta = {}
    return {
        "sequence": float(meta.get("sequence", 0)),
        "wall_time": float(meta.get("wall_time", 0.0)),
        "monotonic_time": float(meta.get("monotonic_time", 0.0)),
    }


def _counters(snapshot: Mapping[str, object]) -> Dict[str, float]:
    raw = snapshot.get("counters")
    if not isinstance(raw, Mapping):
        return {}
    return {str(key): float(value) for key, value in raw.items()}


def snapshot_delta(
    old: Mapping[str, object], new: Mapping[str, object]
) -> Dict[str, object]:
    """Counter differences + elapsed time + per-second rates, old → new.

    Negative counter deltas (a restarted server re-created its registry
    from zero) are reported as the new absolute value with ``"reset": True``
    so a watcher never renders nonsense negative rates.
    """
    old_meta, new_meta = _meta(old), _meta(new)
    reset = new_meta["sequence"] < old_meta["sequence"]
    elapsed = 0.0
    if not reset:
        if old_meta["monotonic_time"] and new_meta["monotonic_time"]:
            elapsed = new_meta["monotonic_time"] - old_meta["monotonic_time"]
        elif old_meta["wall_time"] and new_meta["wall_time"]:
            elapsed = new_meta["wall_time"] - old_meta["wall_time"]
        elapsed = max(0.0, elapsed)
    old_counters, new_counters = _counters(old), _counters(new)
    deltas: Dict[str, float] = {}
    for name, value in new_counters.items():
        before = old_counters.get(name, 0.0)
        if reset or value < before:
            reset = True
            deltas[name] = value
        else:
            deltas[name] = value - before
    rates = {
        name: (delta / elapsed) for name, delta in deltas.items() if elapsed > 0
    }
    return {
        "sequence": (old_meta["sequence"], new_meta["sequence"]),
        "elapsed_s": elapsed,
        "reset": reset,
        "counters": deltas,
        "rates": rates,
        "gauges": dict(new.get("gauges") or {}),  # type: ignore[arg-type]
    }


def render_delta(delta: Mapping[str, object]) -> str:
    """The ``repro metrics --delta`` body: changed counters with rates."""
    sequence = delta.get("sequence", (0, 0))
    elapsed = float(delta.get("elapsed_s", 0.0))
    lines = [
        f"snapshots seq {int(sequence[0])} -> {int(sequence[1])}"  # type: ignore[index]
        + (f" over {elapsed:.3f}s" if elapsed > 0 else "")
        + (" (counter reset detected)" if delta.get("reset") else "")
    ]
    counters: Mapping[str, float] = delta.get("counters", {})  # type: ignore[assignment]
    rates: Mapping[str, float] = delta.get("rates", {})  # type: ignore[assignment]
    changed = {name: value for name, value in counters.items() if value}
    if not changed:
        lines.append("no counter changes")
        return "\n".join(lines)
    width = max(len(name) for name in changed)
    for name in sorted(changed):
        line = f"{name.ljust(width)}  +{changed[name]:g}"
        if name in rates:
            line += f"  ({rates[name]:.2f}/s)"
        lines.append(line)
    return "\n".join(lines)


def _histogram(snapshot: Mapping[str, object], name: str) -> Mapping[str, object]:
    histograms = snapshot.get("histograms")
    if isinstance(histograms, Mapping):
        payload = histograms.get(name)
        if isinstance(payload, Mapping):
            return payload
    return {}


def _rate(rates: Mapping[str, float], name: str) -> str:
    if name in rates:
        return f" ({rates[name]:+.1f}/s)"
    return ""


def render_top(
    snapshot: Mapping[str, object],
    prev: Optional[Mapping[str, object]] = None,
    *,
    now: Optional[float] = None,
    source: str = "",
) -> str:
    """One ``repro top`` frame over the newest snapshot (rates need ``prev``)."""
    # Imported here, not at module scope: repro.server.jobs imports repro.obs
    # for trace ids, so a module-level hop back into repro.server would be a
    # circular import.  telemetry is a leaf module; the function-local import
    # is resolved once and cached by sys.modules.
    from repro.server.telemetry import percentile_from_snapshot

    meta = _meta(snapshot)
    counters = _counters(snapshot)
    gauges: Mapping[str, object] = snapshot.get("gauges") or {}  # type: ignore[assignment]
    rates: Mapping[str, float] = {}
    if prev is not None:
        rates = snapshot_delta(prev, snapshot).get("rates", {})  # type: ignore[assignment]

    header = f"repro top — seq {int(meta['sequence'])}"
    if source:
        header += f" — {source}"
    if now is not None and meta["wall_time"]:
        header += f" — snapshot age {max(0.0, now - meta['wall_time']):.1f}s"
    lines = [header]

    lines.append(
        "queue_depth {depth:g}  running {running:g}  "
        "tape_arena_bytes {arena:g}".format(
            depth=float(gauges.get("queue_depth", 0) or 0),
            running=float(gauges.get("jobs_running", 0) or 0),
            arena=float(gauges.get("tape_arena_bytes", 0) or 0),
        )
    )
    submitted = counters.get("jobs_submitted", 0.0)
    completed = counters.get("jobs_completed", 0.0)
    lines.append(
        f"jobs: submitted {submitted:g}{_rate(rates, 'jobs_submitted')}  "
        f"completed {completed:g}{_rate(rates, 'jobs_completed')}  "
        f"failed {counters.get('jobs_failed', 0.0):g}  "
        f"shed {counters.get('jobs_shed', 0.0):g}  "
        f"retried {counters.get('jobs_retried', 0.0):g}"
    )
    execute_jobs = counters.get("execute_jobs", 0.0)
    coalesced_jobs = counters.get("coalesced_jobs", 0.0)
    coalesce_rate = (coalesced_jobs / execute_jobs * 100.0) if execute_jobs else 0.0
    lines.append(
        f"coalescing: {coalesced_jobs:g}/{execute_jobs:g} execute jobs "
        f"({coalesce_rate:.1f}%) in {counters.get('batches_coalesced', 0.0):g} "
        f"coalesced of {counters.get('batches_total', 0.0):g} batches"
    )
    violations = counters.get("slo_violations", 0.0)
    terminal = completed + counters.get("jobs_failed", 0.0)
    compliance = (
        (1.0 - violations / terminal) * 100.0 if terminal and violations <= terminal else 100.0
    )
    lines.append(
        f"SLO: {violations:g} violations"
        + (f" ({compliance:.1f}% compliant)" if terminal else "")
        + f"  store_skipped {counters.get('store_skipped_records', 0.0):g}"
    )

    rows: List[Tuple[str, Mapping[str, object]]] = []
    for label, name in (
        ("queue_wait", "job_wait_s"),
        ("run", "job_run_s"),
        ("tick", "tick_s"),
    ):
        payload = _histogram(snapshot, name)
        if payload:
            rows.append((label, payload))
    histograms = snapshot.get("histograms")
    if isinstance(histograms, Mapping):
        for name in sorted(histograms):
            if str(name).startswith("stage_") and str(name).endswith("_s"):
                payload = histograms[name]
                if isinstance(payload, Mapping) and payload.get("count"):
                    rows.append((str(name)[6:-2], payload))
    if rows:
        width = max(len(label) for label, _ in rows)
        lines.append("")
        lines.append(
            f"{'stage'.ljust(width)}  {'count':>7}  {'p50_ms':>9}  {'p99_ms':>9}"
        )
        for label, payload in rows:
            lines.append(
                f"{label.ljust(width)}  {int(payload.get('count', 0)):>7}  "
                f"{percentile_from_snapshot(payload, 0.5) * 1e3:>9.3f}  "
                f"{percentile_from_snapshot(payload, 0.99) * 1e3:>9.3f}"
            )
    return "\n".join(lines)
