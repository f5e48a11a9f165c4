"""The batched execution service: one serial pass over the jobs.

:class:`ExecutionService` is the execution-side counterpart of
:class:`~repro.service.service.CompilationService`: it wraps any registered
:class:`~repro.backends.base.ExecutionBackend` and runs batches of
``(circuit, input sets)`` jobs, each job as one ``execute_many`` call, in
input order.  A tape op is GIL-holding Python dispatch over a few live
slots, so worker threads would have nothing to overlap; there is no
scheduling step, and the only fingerprint a job pays is the backend's own
compiled-tape memo lookup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.backends.registry import BackendSpec, resolve_backend
from repro.compiler.circuit import CircuitProgram
from repro.compiler.executor import ExecutionReport, Value
from repro.fhe.params import BFVParameters
from repro.obs.trace import NULL_TRACER, Tracer

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
    wall_time_s: float = 0.0
    batch_size: int = 0


@dataclass
class ExecutionBatchReport:
    """Aggregate result of one :meth:`ExecutionService.run_jobs` call."""

    backend: str
    records: List[ExecutionRecord] = field(default_factory=list)
    #: One report list per job, in input order.
    reports: List[List[ExecutionReport]] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def total_executions(self) -> int:
        return sum(record.batch_size for record in self.records)

    def as_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "jobs": len(self.records),
            "executions": self.total_executions,
            "wall_time_s": self.wall_time_s,
        }


class ExecutionService:
    """Batched, serial execution on a named backend.

    Parameters
    ----------
    backend:
        Registry name (``"vector-vm"``), :class:`BackendSpec` or live backend
        object; None follows the ``REPRO_BACKEND``/``reference`` default.
    params:
        BFV parameters every execution runs under (defaults to the paper's).
    tracer:
        Span collector for the per-job ``execute`` stages of
        :meth:`run_jobs`.  Defaults to the disabled singleton: direct-path
        callers pay nothing.
    """

    def __init__(
        self,
        backend: Union[str, BackendSpec, object, None] = None,
        *,
        params: Optional[BFVParameters] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.backend, _ = resolve_backend(backend)
        self.backend_name = getattr(self.backend, "name", type(self.backend).__name__)
        self.params = params if params is not None else BFVParameters.default()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def run_jobs(
        self,
        jobs: Iterable[Union[ExecutionJob, Tuple[CircuitProgram, Sequence[Mapping[str, Value]]]]],
    ) -> ExecutionBatchReport:
        """Execute many circuits' batches, one ``execute_many`` per job.

        Jobs may be :class:`ExecutionJob` or ``(program, inputs_list)``
        pairs.  Jobs run, and their reports come back, in input order.
        """
        start = time.perf_counter()
        batch = ExecutionBatchReport(backend=self.backend_name)
        for job in jobs:
            # The span covers the job's bookkeeping too, not just the backend.
            with self.tracer.span("execute", attrs={"backend": self.backend_name}) as span:
                job = self._normalize_job(job)
                record = ExecutionRecord(name=job.label(), batch_size=len(job.inputs))
                span.set_attr("batch", record.batch_size)
                span.set_attr("name", record.name)
                job_start = time.perf_counter()
                reports = self.backend.execute_many(
                    job.program, list(job.inputs), params=self.params
                )
                record.wall_time_s = time.perf_counter() - job_start
                batch.records.append(record)
                batch.reports.append(reports)
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
