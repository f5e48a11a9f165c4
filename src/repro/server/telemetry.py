"""Server metrics: counters, gauges, latency histograms, JSON snapshots.

A long-running :class:`~repro.server.server.JobServer` needs observable
internals — how deep is the queue, how many batches were coalesced, what the
job-latency distribution looks like — without pulling in a metrics
dependency.  :class:`MetricsRegistry` is a small, thread-safe registry of
three instrument kinds in the Prometheus mould:

* :class:`Counter` — monotonically increasing event counts
  (``jobs_completed``, ``batches_coalesced``);
* :class:`Gauge` — last-written point-in-time values (``queue_depth``);
* :class:`Histogram` — observation distributions over fixed log-scale
  buckets plus count/sum/min/max (``job_run_s``, ``job_wait_s``), with
  :meth:`Histogram.percentile` interpolating p50/p99 estimates out of the
  buckets (error bounded by the width of the containing bucket).

:meth:`MetricsRegistry.snapshot` renders everything as one plain dict (JSON
serializable by construction), and :meth:`MetricsRegistry.write_snapshot`
atomically persists it — the ``repro metrics`` CLI reads that file, and the
server smoke asserts coalescing happened from the same snapshot.

Serving SLOs live here too: :class:`SLOPolicy` declares per-priority wait /
run latency budgets, and :class:`SLOTracker` folds every observation into
per-priority histograms (``job_wait_s_p{n}``, ``job_run_s_p{n}``) plus
``slo_violations`` counters, all inside an ordinary registry so snapshots
and the CLI need no new machinery.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SLOClass",
    "SLOPolicy",
    "SLOTracker",
    "percentile_from_snapshot",
]

#: Default histogram bucket upper bounds (seconds): log-scale from 100µs up.
DEFAULT_BUCKETS = (
    0.0001,
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
    100.0,
)

#: Finer latency bounds for the SLO-facing wait/run histograms: percentile
#: estimates interpolate inside one bucket, so the buckets around realistic
#: serving latencies (1ms..10s) are kept narrow enough for p99 checks.
LATENCY_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    100.0,
)


def _bucket_percentile(
    bounds: Sequence[float],
    buckets: Sequence[int],
    count: int,
    minimum: float,
    maximum: float,
    q: float,
) -> float:
    """Percentile ``q`` interpolated from cumulative-style bucket counts.

    The estimate is linear within the containing bucket and clamped to the
    observed ``[min, max]``, so its error is bounded by that bucket's width
    (the unit tests pin exactly this bound).  Edge cases are defined, never
    interpolated: an empty histogram is 0.0 for every ``q``; ``q=0`` /
    ``q=1`` are the observed minimum / maximum; and when the observed
    extremes are missing or non-finite (older persisted snapshots,
    hand-built payloads) the populated bucket bounds stand in for them, so
    estimates stay inside the recorded data instead of clamping to 0.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("percentile q must be in [0, 1]")
    if count <= 0:
        return 0.0
    if not math.isfinite(minimum) or not math.isfinite(maximum):
        populated = [index for index, value in enumerate(buckets) if value > 0]
        if populated:
            first, last = populated[0], populated[-1]
            lower = bounds[first - 1] if first > 0 else 0.0
            if last < len(bounds):
                upper = bounds[last]
            else:  # overflow bucket: the top bound is the best finite stand-in
                upper = bounds[-1] if bounds else lower
        else:
            lower = upper = 0.0
        if not math.isfinite(minimum):
            minimum = lower
        if not math.isfinite(maximum):
            maximum = max(upper, minimum)
    if q <= 0.0:
        return minimum
    if q >= 1.0:
        return maximum
    rank = q * count
    cumulative = 0.0
    for index, bucket_count in enumerate(buckets):
        if bucket_count <= 0:
            continue
        if cumulative + bucket_count >= rank:
            lo = bounds[index - 1] if index > 0 else minimum
            hi = bounds[index] if index < len(bounds) else maximum
            lo = max(lo, minimum)
            hi = min(hi, maximum)
            if hi <= lo:
                return lo
            fraction = (rank - cumulative) / bucket_count
            return lo + fraction * (hi - lo)
        cumulative += bucket_count
    return maximum


def percentile_from_snapshot(payload: Mapping[str, object], q: float) -> float:
    """Percentile ``q`` from one histogram dict of a telemetry snapshot.

    Accepts exactly what :meth:`Histogram.as_dict` (and therefore
    ``metrics.json`` / ``TrafficReport.telemetry``) produce, so consumers of
    persisted snapshots share the same interpolation as live histograms.
    """
    if not payload:
        return 0.0
    raw = payload.get("buckets", {})
    bounds = sorted(float(key[3:]) for key in raw if key.startswith("le_"))
    buckets = [int(raw.get(f"le_{bound:g}", 0)) for bound in bounds]
    buckets.append(int(raw.get("overflow", 0)))
    return _bucket_percentile(
        bounds,
        buckets,
        int(payload.get("count", 0)),
        # NaN (not 0.0) when absent: _bucket_percentile then substitutes the
        # populated bucket bounds instead of clamping everything to 0.
        float(payload.get("min", float("nan"))),
        float(payload.get("max", float("nan"))),
        q,
    )


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for decrements")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def as_dict(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def as_dict(self) -> float:
        return self._value


class Histogram:
    """An observation distribution over fixed cumulative-style buckets.

    ``buckets[i]`` counts observations ``<= bounds[i]``; one overflow bucket
    catches the rest.  Count, sum, min and max ride along so snapshots can
    report means and extremes without retaining raw samples.
    """

    __slots__ = ("name", "bounds", "_buckets", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bucket bounds must be sorted")
        self.name = name
        self.bounds = tuple(float(bound) for bound in bounds)
        self._buckets = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        # The first bound >= value; past the last bound, the overflow slot.
        slot = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._buckets[slot] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Percentile ``q`` (in ``[0, 1]``) interpolated from the buckets.

        Linear within the containing bucket, clamped to the observed
        ``[min, max]`` — so the estimate is never off by more than the width
        of that bucket, which is the bound the unit tests pin.
        """
        with self._lock:
            return _bucket_percentile(
                self.bounds,
                self._buckets,
                self._count,
                self._min if self._count else 0.0,
                self._max if self._count else 0.0,
                q,
            )

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            buckets: Dict[str, int] = {}
            for bound, count in zip(self.bounds, self._buckets):
                buckets[f"le_{bound:g}"] = count
            buckets["overflow"] = self._buckets[-1]
            return {
                "count": self._count,
                "sum": self._sum,
                "mean": self.mean,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
                "buckets": buckets,
            }


@dataclass(frozen=True)
class SLOClass:
    """The latency budgets of one priority level."""

    priority: int
    #: Queue-wait budget in seconds (None: this class has no wait SLO).
    max_wait_s: Optional[float] = None
    #: Service-time budget in seconds (None: no run SLO).
    max_run_s: Optional[float] = None
    #: The percentile the SLO is declared over (reporting/benchmark checks;
    #: the violation counters count every individual budget overshoot).
    percentile: float = 0.99

    def as_dict(self) -> Dict[str, object]:
        return {
            "priority": self.priority,
            "max_wait_s": self.max_wait_s,
            "max_run_s": self.max_run_s,
            "percentile": self.percentile,
        }


@dataclass(frozen=True)
class SLOPolicy:
    """A declarative set of per-priority latency SLOs.

    Priorities not named by any class carry no SLO: their latencies are
    still tracked per priority, but nothing counts as a violation and the
    admission controller treats them as best-effort (no deadline budget).
    """

    classes: Tuple[SLOClass, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        priorities = [slo.priority for slo in self.classes]
        if len(priorities) != len(set(priorities)):
            raise ValueError("SLOPolicy has duplicate priority classes")

    @classmethod
    def from_budgets(
        cls,
        wait: Mapping[int, float],
        run: Optional[Mapping[int, float]] = None,
        *,
        percentile: float = 0.99,
    ) -> "SLOPolicy":
        """Build a policy from ``{priority: budget_seconds}`` mappings."""
        run = run or {}
        priorities = sorted(set(wait) | set(run), reverse=True)
        return cls(
            tuple(
                SLOClass(
                    priority=priority,
                    max_wait_s=wait.get(priority),
                    max_run_s=run.get(priority),
                    percentile=percentile,
                )
                for priority in priorities
            )
        )

    def class_for(self, priority: int) -> Optional[SLOClass]:
        for slo in self.classes:
            if slo.priority == priority:
                return slo
        return None

    def wait_budget(self, priority: int) -> Optional[float]:
        slo = self.class_for(priority)
        return slo.max_wait_s if slo is not None else None

    def run_budget(self, priority: int) -> Optional[float]:
        slo = self.class_for(priority)
        return slo.max_run_s if slo is not None else None

    def as_dict(self) -> Dict[str, object]:
        return {"classes": [slo.as_dict() for slo in self.classes]}


class SLOTracker:
    """Per-priority latency tracking + violation counting over a registry.

    Every observation lands in a per-priority histogram
    (``job_wait_s_p{n}`` / ``job_run_s_p{n}``, :data:`LATENCY_BUCKETS`
    bounds so p99 interpolation stays tight) and, when the policy declares a
    budget for that priority and the observation overshoots it, bumps
    ``slo_violations`` plus the per-priority breakdown counter.  All
    instruments live in the caller's registry: snapshots, ``metrics.json``
    and the CLI see SLO state with no extra plumbing.
    """

    def __init__(self, policy: Optional[SLOPolicy], registry: MetricsRegistry) -> None:
        self.policy = policy or SLOPolicy()
        self.registry = registry

    def _observe(
        self, kind: str, priority: int, value: float, budget: Optional[float]
    ) -> bool:
        self.registry.histogram(
            f"job_{kind}_s_p{priority}", bounds=LATENCY_BUCKETS
        ).observe(value)
        if budget is None or value <= budget:
            return False
        self.registry.counter("slo_violations").inc()
        self.registry.counter(f"slo_violations_{kind}_p{priority}").inc()
        return True

    def observe_wait(self, priority: int, wait_s: float) -> bool:
        """Record one queue wait; True when it violated the wait budget."""
        return self._observe("wait", priority, wait_s, self.policy.wait_budget(priority))

    def observe_run(self, priority: int, run_s: float) -> bool:
        """Record one service time; True when it violated the run budget."""
        return self._observe("run", priority, run_s, self.policy.run_budget(priority))

    def report(self) -> Dict[str, object]:
        """Per-priority percentile estimates + violation counts."""
        rows: Dict[str, object] = {}
        for slo in self.policy.classes:
            wait = self.registry.histogram(
                f"job_wait_s_p{slo.priority}", bounds=LATENCY_BUCKETS
            )
            run = self.registry.histogram(
                f"job_run_s_p{slo.priority}", bounds=LATENCY_BUCKETS
            )
            rows[str(slo.priority)] = {
                "slo": slo.as_dict(),
                "wait_p50_s": wait.percentile(0.5),
                "wait_p99_s": wait.percentile(slo.percentile),
                "run_p50_s": run.percentile(0.5),
                "run_p99_s": run.percentile(slo.percentile),
                "violations_wait": self.registry.counter(
                    f"slo_violations_wait_p{slo.priority}"
                ).value,
                "violations_run": self.registry.counter(
                    f"slo_violations_run_p{slo.priority}"
                ).value,
            }
        return rows


class MetricsRegistry:
    """A named, get-or-create registry of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}  # guarded-by: _lock
        self._gauges: Dict[str, Gauge] = {}  # guarded-by: _lock
        self._histograms: Dict[str, Histogram] = {}  # guarded-by: _lock
        #: Count of snapshots written so far; stamped into every snapshot's
        #: ``meta`` block so consumers (``repro top``, ``repro metrics
        #: --watch/--delta``) can order snapshots and compute rates.
        self._sequence = 0  # guarded-by: _lock
        #: Callables run before every snapshot, for owners that update
        #: their instruments in batches.
        self._collectors: List[Callable[[], None]] = []

    def add_collector(self, collector: Callable[[], None]) -> None:
        """Run ``collector`` before every :meth:`snapshot`."""
        self._collectors.append(collector)

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    name, bounds if bounds is not None else DEFAULT_BUCKETS
                )
            return instrument

    def names(self) -> List[str]:
        with self._lock:
            return sorted(
                [*self._counters, *self._gauges, *self._histograms]
            )

    def snapshot(self) -> Dict[str, object]:
        """Everything in the registry as one JSON-serializable dict.

        The ``meta`` block carries a wall timestamp (epoch seconds), a
        monotonic timestamp (same-process elapsed-time math without wall
        clock jumps) and the monotonically increasing write-sequence
        number, so two successive ``metrics.json`` reads can be turned into
        per-second rates.
        """
        for collector in self._collectors:
            collector()
        with self._lock:
            return {
                "meta": {
                    "sequence": self._sequence,
                    "wall_time": time.time(),
                    "monotonic_time": time.monotonic(),
                    "pid": os.getpid(),
                },
                "counters": {
                    name: instrument.as_dict()
                    for name, instrument in sorted(self._counters.items())
                },
                "gauges": {
                    name: instrument.as_dict()
                    for name, instrument in sorted(self._gauges.items())
                },
                "histograms": {
                    name: instrument.as_dict()
                    for name, instrument in sorted(self._histograms.items())
                },
            }

    def write_snapshot(self, path: str) -> Dict[str, object]:
        """Atomically write :meth:`snapshot` as JSON to ``path``.

        Each write bumps the snapshot sequence number first, so every
        persisted snapshot carries a strictly increasing ``meta.sequence``
        within this registry's lifetime.
        """
        with self._lock:
            self._sequence += 1
        payload = self.snapshot()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=directory, suffix=".tmp", delete=False, encoding="utf-8"
        )
        try:
            with handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return payload
