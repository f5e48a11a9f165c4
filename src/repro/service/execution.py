"""The batched execution service: static LPT scheduling over workers.

:class:`ExecutionService` is the execution-side counterpart of
:class:`~repro.service.service.CompilationService`: it wraps any registered
:class:`~repro.backends.base.ExecutionBackend` and schedules batches of
``(circuit, input sets)`` jobs across workers.

Each job's weight is static: the circuit's analytical latency
(:meth:`~repro.compiler.circuit.CircuitProgram.estimated_latency_ms` under
the service's :class:`~repro.fhe.latency.LatencyModel`) times its number of
input sets.  Jobs are packed largest-first (LPT, the same
:func:`~repro.service.scheduler.partition_jobs` the compilation service
uses) so one deep circuit cannot serialize the whole batch.  Scheduling
reads no timers and hashes no circuits; the only fingerprint a job pays is
the backend's own compiled-tape memo lookup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.backends.registry import BackendSpec, resolve_backend
from repro.compiler.circuit import CircuitProgram
from repro.compiler.executor import ExecutionReport, Value
from repro.fhe.latency import LatencyModel
from repro.fhe.params import BFVParameters
from repro.obs.trace import NULL_TRACER, Tracer
from repro.service.scheduler import makespan, partition_jobs

__all__ = ["ExecutionJob", "ExecutionRecord", "ExecutionBatchReport", "ExecutionService"]


@dataclass
class ExecutionJob:
    """One unit of execution work: a circuit plus one or more input sets."""

    program: CircuitProgram
    inputs: Sequence[Mapping[str, Value]]
    name: Optional[str] = None

    def label(self) -> str:
        return self.name or self.program.name


@dataclass
class ExecutionRecord:
    """Per-job accounting emitted by :meth:`ExecutionService.run_jobs`."""

    name: str
    #: LPT weight of this job: the circuit's analytical latency (ms) times
    #: its number of input sets.
    estimate_ms: float
    wall_time_s: float = 0.0
    batch_size: int = 0
    worker: int = 0


@dataclass
class ExecutionBatchReport:
    """Aggregate result of one :meth:`ExecutionService.run_jobs` call."""

    backend: str
    records: List[ExecutionRecord] = field(default_factory=list)
    #: One report list per job, in input order.
    reports: List[List[ExecutionReport]] = field(default_factory=list)
    wall_time_s: float = 0.0
    workers: int = 1
    #: Estimated makespan of the schedule (sum of weights on the largest bin).
    planned_makespan_ms: float = 0.0

    @property
    def total_executions(self) -> int:
        return sum(record.batch_size for record in self.records)

    def as_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "jobs": len(self.records),
            "executions": self.total_executions,
            "workers": self.workers,
            "wall_time_s": self.wall_time_s,
            "planned_makespan_ms": self.planned_makespan_ms,
        }


class ExecutionService:
    """Batched, LPT-scheduled execution on a named backend.

    Parameters
    ----------
    backend:
        Registry name (``"vector-vm"``), :class:`BackendSpec` or live backend
        object; None follows the ``REPRO_BACKEND``/``reference`` default.
    params:
        BFV parameters every execution runs under (defaults to the paper's).
    workers:
        Thread workers for :meth:`run_jobs`.  Execution is numpy-dominated,
        so threads overlap usefully; ``1`` keeps runs serial.
    tracer:
        Span collector for the ``schedule`` (weights + LPT partition) and
        per-plan-entry ``execute`` stages of :meth:`run_jobs`.  Defaults to
        the disabled singleton: direct-path callers pay nothing.
    """

    def __init__(
        self,
        backend: Union[str, BackendSpec, object, None] = None,
        *,
        params: Optional[BFVParameters] = None,
        workers: int = 1,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.backend, _ = resolve_backend(backend)
        self.backend_name = getattr(self.backend, "name", type(self.backend).__name__)
        self.params = params if params is not None else BFVParameters.default()
        self.workers = workers
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._latency_model = LatencyModel(self.params)

    def run_jobs(
        self,
        jobs: Iterable[Union[ExecutionJob, Tuple[CircuitProgram, Sequence[Mapping[str, Value]]]]],
    ) -> ExecutionBatchReport:
        """Execute many circuits' batches under the static LPT schedule.

        Jobs may be :class:`ExecutionJob` or ``(program, inputs_list)``
        pairs.  Reports come back in input order regardless of schedule.
        """
        start = time.perf_counter()
        # Capture the caller's span context up front: plans may run on pool
        # threads whose thread-local span stacks are empty, so the per-plan
        # "execute" spans parent explicitly to whatever was open here (the
        # server's tick envelope) instead of rooting stray traces.
        context = self.tracer.current_span() if self.tracer.enabled else None
        trace_id = context.trace_id if context is not None else None
        parent_id = context.span_id if context is not None else None
        with self.tracer.span(
            "schedule", trace_id=trace_id, parent_id=parent_id
        ) as schedule_span:
            normalized = [self._normalize_job(job) for job in jobs]
            batch = ExecutionBatchReport(backend=self.backend_name, workers=self.workers)
            batch.reports = [[] for _ in normalized]
            for job in normalized:
                batch.records.append(
                    ExecutionRecord(
                        name=job.label(),
                        estimate_ms=job.program.estimated_latency_ms(self._latency_model)
                        * len(job.inputs),
                        batch_size=len(job.inputs),
                    )
                )
            weights = [record.estimate_ms for record in batch.records]

            plans = partition_jobs(weights, min(self.workers, max(len(normalized), 1)))
            batch.planned_makespan_ms = makespan(plans)
            schedule_span.set_attr("jobs", len(normalized))
            schedule_span.set_attr("planned_makespan_ms", batch.planned_makespan_ms)

        def run_plan(plan) -> None:
            for index in plan.job_indices:
                job = normalized[index]
                with self.tracer.span(
                    "execute",
                    trace_id=trace_id,
                    parent_id=parent_id,
                    attrs={
                        "backend": self.backend_name,
                        "batch": len(job.inputs),
                        "worker": plan.worker,
                        "name": job.label(),
                    },
                ):
                    job_start = time.perf_counter()
                    batch.reports[index] = self.backend.execute_many(
                        job.program, list(job.inputs), params=self.params
                    )
                    batch.records[index].wall_time_s = time.perf_counter() - job_start
                batch.records[index].worker = plan.worker

        active = [plan for plan in plans if plan.job_indices]
        if self.workers > 1 and len(active) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=len(active)) as pool:
                list(pool.map(run_plan, active))
        else:
            for plan in active:
                run_plan(plan)

        batch.wall_time_s = time.perf_counter() - start
        return batch

    @staticmethod
    def _normalize_job(
        job: Union[ExecutionJob, Tuple[CircuitProgram, Sequence[Mapping[str, Value]]]]
    ) -> ExecutionJob:
        if isinstance(job, ExecutionJob):
            return job
        program, inputs = job
        return ExecutionJob(program=program, inputs=list(inputs))
