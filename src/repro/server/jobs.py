"""The job model of the orchestration server.

A :class:`Job` is one queued unit of client work — *compile this source* or
*execute this source on these inputs* — carrying everything the server
needs to schedule, run, retry and persist it:

* **identity and routing** — a generated id, ``kind`` (``compile`` /
  ``execute``), compiler registry name + options, backend registry name;
* **payload** — the s-expression source (every job has one, so every
  execute result is checked against it) and explicit inputs or a
  ``seed``/``input_range`` pair to sample them from;
* **lifecycle** — ``queued → running → completed | failed`` status (plus
  ``shed``, the terminal state overload protection rejects jobs into
  without running them), attempt counting against ``max_retries``, and
  submit/start/finish timestamps feeding the latency histograms;
* **outcome** — a JSON-serializable ``result`` dict (outputs, latency,
  noise accounting, coalesced batch size) or an ``error`` string.

Every field round-trips through :meth:`Job.to_record` /
:meth:`Job.from_record`, which is what makes the whole queue replayable from
the persistent store after a restart or crash.
"""

from __future__ import annotations

import enum
import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs.trace import new_span_id, new_trace_context, new_trace_id

__all__ = [
    "JobState",
    "Job",
    "new_job_id",
]


class JobState(str, enum.Enum):
    """Lifecycle states of a job."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    #: Rejected by overload protection (queue backpressure or admission
    #: control) without ever running.  Terminal like FAILED, but cheap by
    #: construction — a shed job never touched a compiler or backend.
    SHED = "shed"

    @property
    def terminal(self) -> bool:
        return self in (JobState.COMPLETED, JobState.FAILED, JobState.SHED)


#: ``next()`` on an ``itertools.count`` is one C call under the GIL, so
#: concurrent submitters need no lock.
_COUNTER = itertools.count()
#: This process's pid in hex, read once (and again in a forked child):
#: ``os.getpid()`` per id costs more than the rest of the id.
_PID_HEX = f"{os.getpid():x}"


def _renew_pid() -> None:
    global _PID_HEX
    _PID_HEX = f"{os.getpid():x}"


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_pid)


def new_job_id() -> str:
    """A process-unique, time-ordered job id (``job-<epoch-ms>-<pid>-<n>``)."""
    return f"job-{int(time.time() * 1000):x}-{_PID_HEX}-{next(_COUNTER):x}"


@dataclass
class Job:
    """One queued unit of work (see module docstring for the field groups)."""

    id: str = field(default_factory=new_job_id)
    #: ``"compile"`` or ``"execute"``.
    kind: str = "execute"
    #: S-expression source text; every job needs one.
    source: Optional[str] = None
    #: Compiler registry name (None follows the server default).
    compiler: Optional[str] = None
    compiler_options: Dict[str, object] = field(default_factory=dict)
    #: Execution backend registry name (None follows the server default).
    backend: Optional[str] = None
    #: Explicit program inputs; when None they are sampled from ``seed``.
    inputs: Optional[Dict[str, int]] = None
    seed: int = 0
    input_range: int = 7
    #: Higher runs earlier; ties break by submission order.
    priority: int = 0
    max_retries: int = 0
    name: Optional[str] = None
    #: Trace context: the id of the distributed trace this submission
    #: belongs to and the id of its root span.  Both are generated at
    #: construction when absent and persist through :meth:`to_record` /
    #: :meth:`from_record`, so crash recovery, requeue, retries, shed and
    #: cross-process store hand-offs all re-attach their spans to the
    #: original trace — one submission, one connected trace.
    trace_id: Optional[str] = None
    trace_root: Optional[str] = None

    status: JobState = JobState.QUEUED
    attempts: int = 0
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, object]] = None
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("compile", "execute"):
            raise ValueError(f"job kind must be 'compile' or 'execute', got {self.kind!r}")
        if self.source is None:
            raise ValueError("a job needs a source expression")
        if self.trace_id is None and self.trace_root is None:
            self.trace_id, self.trace_root = new_trace_context()
        elif self.trace_id is None:
            self.trace_id = new_trace_id()
        elif self.trace_root is None:
            self.trace_root = new_span_id()

    def label(self) -> str:
        return self.name or self.id

    @property
    def done(self) -> bool:
        return self.status.terminal

    # -- persistence --------------------------------------------------------
    def to_record(self) -> Dict[str, object]:
        """This job as one JSON-serializable store record."""
        return {
            "id": self.id,
            "kind": self.kind,
            "source": self.source,
            "compiler": self.compiler,
            "compiler_options": dict(self.compiler_options),
            "backend": self.backend,
            "inputs": dict(self.inputs) if self.inputs is not None else None,
            "seed": self.seed,
            "input_range": self.input_range,
            "priority": self.priority,
            "max_retries": self.max_retries,
            "name": self.name,
            "trace_id": self.trace_id,
            "trace_root": self.trace_root,
            "status": self.status.value,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "result": self.result,
            "error": self.error,
        }

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "Job":
        """Rebuild a job from a store record (inverse of :meth:`to_record`)."""
        inputs = record.get("inputs")
        return cls(
            id=str(record["id"]),
            kind=str(record.get("kind", "execute")),
            source=record.get("source"),
            compiler=record.get("compiler"),
            compiler_options=dict(record.get("compiler_options") or {}),
            backend=record.get("backend"),
            inputs={str(k): int(v) for k, v in inputs.items()} if inputs else None,
            seed=int(record.get("seed", 0)),
            input_range=int(record.get("input_range", 7)),
            priority=int(record.get("priority", 0)),
            max_retries=int(record.get("max_retries", 0)),
            name=record.get("name"),
            # Pre-observability records carry no trace context; __post_init__
            # then mints fresh ids, and the first re-append persists them.
            trace_id=record.get("trace_id"),
            trace_root=record.get("trace_root"),
            status=JobState(record.get("status", "queued")),
            attempts=int(record.get("attempts", 0)),
            submitted_at=float(record.get("submitted_at", 0.0)),
            started_at=record.get("started_at"),
            finished_at=record.get("finished_at"),
            result=record.get("result"),
            error=record.get("error"),
        )

    def summary(self) -> Dict[str, object]:
        """The compact status row ``repro jobs`` / ``api.status`` show."""
        row: Dict[str, object] = {
            "id": self.id,
            "kind": self.kind,
            "name": self.label(),
            "status": self.status.value,
            "priority": self.priority,
            "attempts": self.attempts,
        }
        if self.error is not None:
            row["error"] = self.error
        if self.result is not None and "coalesced_batch" in self.result:
            row["coalesced_batch"] = self.result["coalesced_batch"]
        return row
