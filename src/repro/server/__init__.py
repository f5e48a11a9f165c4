"""The job-orchestration server (persistent queue + batch coalescing).

This package owns job lifecycle and cross-user batching; the coalesced
batches it forms run serially through
:class:`~repro.service.execution.ExecutionService`:

* :mod:`repro.server.jobs` — the :class:`Job` model
  (``compile``/``execute`` kinds, priorities, retries, JSON round-trip);
* :mod:`repro.server.store` — a JSONL :class:`JobStore` under a state
  directory: durable queue, crash recovery, and the file-based submission
  channel ``repro submit`` uses;
* :mod:`repro.server.queue` — the priority :class:`JobQueue` with
  whole-queue batch draining;
* :mod:`repro.server.coalescer` — grouping of pending executions by circuit
  fingerprint so one backend batch serves N queued users;
* :mod:`repro.server.telemetry` — counters / gauges / histograms with JSON
  snapshot export, bucket-interpolated percentiles, and the per-priority
  SLO machinery (:class:`SLOPolicy` / :class:`SLOTracker`);
* :mod:`repro.server.faults` — deterministic fault injection
  (:class:`FaultInjector`) for the crash/corruption recovery tests;
* :mod:`repro.server.server` — :class:`JobServer`, the orchestrator wiring
  all of it to the compilation/execution services, with bounded-queue
  shedding, priority aging and cost-aware admission control under overload.

``repro.api`` exposes the client surface (``serve`` / ``submit`` /
``status`` / ``result``) and ``python -m repro`` the matching CLI
(``serve`` / ``submit`` / ``jobs`` / ``metrics``).
"""

from repro.server.coalescer import CoalescedGroup, coalesce
from repro.server.faults import Fault, FaultInjector, InjectedFault
from repro.server.jobs import Job, JobState, new_job_id
from repro.server.queue import JobQueue
from repro.server.server import JobServer
from repro.server.store import JobStore
from repro.server.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SLOClass,
    SLOPolicy,
    SLOTracker,
    percentile_from_snapshot,
)

__all__ = [
    "CoalescedGroup",
    "coalesce",
    "Fault",
    "FaultInjector",
    "InjectedFault",
    "Job",
    "JobState",
    "JobQueue",
    "JobServer",
    "JobStore",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SLOClass",
    "SLOPolicy",
    "SLOTracker",
    "percentile_from_snapshot",
    "new_job_id",
]
