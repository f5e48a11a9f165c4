"""The job-orchestration server: queue in, coalesced batches out.

:class:`JobServer` turns the one-shot compilation/execution stack into a
long-running service.  Clients submit :class:`~repro.server.jobs.Job`
objects (in-process through :meth:`JobServer.submit`, or cross-process by
appending ``queued`` records to the persistent store that ``repro serve``
polls); each scheduling tick then drains every pending job in priority
order, compiles sources through a cached
:class:`~repro.service.service.CompilationService` (identical expressions
dedup through the content-addressed cache), *coalesces* execute jobs
sharing a circuit fingerprint into single backend batches
(:mod:`repro.server.coalescer`) — one vector-VM tape pass serves every
queued user of that circuit — and runs the groups one after another through
:meth:`~repro.service.execution.ExecutionService.run_jobs`.  Each result is
verified against the source's compiled plaintext check
(:mod:`repro.ir.plaintext`), built once per circuit-memo entry.

Every state transition is appended to the
:class:`~repro.server.store.JobStore` (restart-safe: ``queued`` jobs are
re-enqueued, jobs caught ``running`` by a crash are retried), and a
:class:`~repro.server.telemetry.MetricsRegistry` tracks counters, queue
depth and latency histograms, snapshotted to ``metrics.json`` under the
state directory.

The server is overload-hardened: the queue can be bounded (total and
per-priority), overflowing or over-budget arrivals are *shed* into a
terminal ``SHED`` state instead of growing the backlog without bound,
priority aging keeps low-priority jobs from starving, a declarative
:class:`~repro.server.telemetry.SLOPolicy` drives per-priority latency
tracking plus cost-aware admission control (an arrival's drain time is
the queued jobs at or above its priority, plus itself, times the server's
EWMA of per-job tick seconds), and a
:class:`~repro.server.faults.FaultInjector` gives the recovery tests exact
crash/slowdown/corruption injection points.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from collections import OrderedDict, deque
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.backends.base import backend_produces_outputs
from repro.backends.registry import default_backend_name
from repro.compiler.executor import declared_outputs, reference_check
# Not called here: the server verifies through each memo entry's compiled
# check.  The name stays importable because perfbench's layer tracer wraps
# ``repro.server.server.reference_output``.
from repro.compiler.executor import reference_output  # noqa: F401
from repro.compiler.pipeline import CompilationReport
from repro.compiler.registry import CompilerSpec
from repro.fhe.params import BFVParameters
from repro.ir.analysis import variables
from repro.ir.evaluate import output_arity
from repro.ir.nodes import Expr
from repro.ir.parser import parse
from repro.ir.plaintext import PlaintextCheck
from repro.obs.trace import NULL_TRACER, JsonlSpanSink, Span, Tracer, new_trace_id
from repro.server.coalescer import CoalescedGroup, coalesce
from repro.server.faults import FaultInjector
from repro.server.jobs import Job, JobState
from repro.server.queue import ENQUEUED_AT_ATTR, JobQueue
from repro.server.store import TRACE_NAME, JobStore
from repro.server.telemetry import (
    LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    SLOPolicy,
    SLOTracker,
)
from repro.api import sample_named_inputs
from repro.service.cache import CompilationCache
from repro.service.execution import ExecutionBatchReport, ExecutionJob, ExecutionService
from repro.service.service import CompilationService

__all__ = ["JobServer"]


class _CircuitEntry:
    """One circuit-memo entry: what every job of one source shares.

    ``check`` is the source's compiled plaintext reference
    (:mod:`repro.ir.plaintext`), built on the first verification and kept
    next to the expression, so the memo's capacity bounds it too.
    """

    __slots__ = ("circuit", "expr", "names", "_check")

    def __init__(self, circuit: object, expr: Optional[Expr], names: List[str]) -> None:
        self.circuit = circuit
        #: Source expression; None for pre-lowered circuits (not verified).
        self.expr = expr
        self.names = names
        self._check: Optional[PlaintextCheck] = None

    def check(self, plain_modulus: int) -> PlaintextCheck:
        if self._check is None:
            self._check = reference_check(
                self.expr,
                slot_count=max(64, output_arity(self.expr) + 8),
                plain_modulus=plain_modulus,
            )
        return self._check


class _ExecutedBatch(NamedTuple):
    """One backend's executed groups, waiting for ``commit_result``."""

    groups: List[CoalescedGroup]
    batch: ExecutionBatchReport
    #: Whether the backend decrypts outputs worth checking.
    verify: bool
    #: Job id -> its circuit-memo entry (the plaintext check's owner).
    circuits: Dict[str, _CircuitEntry]


class JobServer:
    """A persistent-queue, batch-coalescing orchestration server.

    Parameters
    ----------
    state_dir:
        Directory for the persistent job store and metrics snapshots; None
        keeps everything in memory (tests, in-process load generation).
    backend:
        Default execution backend for jobs that do not name one (falls back
        to the ``REPRO_BACKEND``/``reference`` default).
    compiler:
        Default compiler registry name for jobs that do not name one.
    compile_workers:
        Process-pool workers for the compilation services.
    params:
        BFV parameters every execution runs under (defaults to the paper's).
    poll_interval:
        Sleep of the background serving loop between empty ticks, and the
        cadence at which externally appended store records are picked up.
    queue_capacity:
        Bound on the total queue depth; overflowing pushes shed the
        lowest-effective-priority job into the terminal ``SHED`` state
        (None: unbounded, the pre-overload behaviour).
    per_priority_capacity:
        Bound per base-priority level (per-class backpressure): arrivals
        into a full level are shed even while the queue has room overall.
    aging_interval_s:
        Seconds of queue wait that raise a job's effective priority by one
        level, so sustained high-priority pressure cannot starve the
        low-priority classes (None: no aging).
    slo:
        Declarative per-priority latency budgets
        (:class:`~repro.server.telemetry.SLOPolicy`).  Always tracked
        (per-priority histograms + violation counters); also the deadline
        budgets admission control checks drain time against.
    admission:
        ``"off"`` (default) accepts everything the queue has room for;
        ``"shed"`` rejects an arrival whose estimated drain time exceeds
        its priority's wait budget; ``"downgrade"`` demotes such arrivals
        to ``admission_floor`` priority (best effort, no deadline) instead
        of rejecting them.
    admission_floor:
        The priority ``"downgrade"`` mode demotes to.
    coalesce:
        When False every execute job runs as its own backend batch — the
        pre-coalescing behaviour.  The ablation engine flips this to price
        the fingerprint coalescer; leave it True for serving.
    memoize_circuits:
        When False the hot-path circuit memo is bypassed and every execute
        job pays a full parse plus compilation-service lookup.  Combined
        with a disabled :class:`~repro.service.cache.CompilationCache`
        (``capacity=0``) this prices the whole compilation-caching tier.
    fault_injector:
        Armed-trigger registry for the recovery tests
        (:mod:`repro.server.faults`); shared with the job store.
    tracing:
        Enable end-to-end tracing: every lifecycle stage (``submit``,
        ``admission``, ``persist``, ``queue_wait``, ``poll_store``,
        ``queue_drain``, ``coalesce``, ``backend_compile``, ``execute``,
        ``commit_result`` with a ``verify`` sub-span per coalesced group)
        emits spans into a bounded ring buffer,
        persisted to ``traces.jsonl`` under the state directory when one
        exists, plus per-job mirror spans forming one connected trace per
        submission.  Off by default (the disabled tracer's hot
        path is a no-op); the ``tracing`` studies component measures the
        residual overhead.
    tracer:
        Inject a pre-built :class:`~repro.obs.trace.Tracer` (tests drive
        fake clocks through it; benchmarks read its ring buffer directly).
        Overrides ``tracing``; the server does not close an injected tracer.
    """

    def __init__(
        self,
        state_dir: Optional[str] = None,
        *,
        backend: Optional[str] = None,
        compiler: str = "greedy",
        compile_workers: int = 1,
        cache: Optional[CompilationCache] = None,
        cache_dir: Optional[str] = None,
        params: Optional[BFVParameters] = None,
        poll_interval: float = 0.05,
        queue_capacity: Optional[int] = None,
        per_priority_capacity: Optional[int] = None,
        aging_interval_s: Optional[float] = None,
        slo: Optional[SLOPolicy] = None,
        admission: str = "off",
        admission_floor: int = 0,
        coalesce: bool = True,
        memoize_circuits: bool = True,
        fault_injector: Optional[FaultInjector] = None,
        tracing: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if admission not in ("off", "shed", "downgrade"):
            raise ValueError("admission must be 'off', 'shed' or 'downgrade'")
        self.faults = fault_injector if fault_injector is not None else FaultInjector()
        self._own_tracer = tracer is None and tracing
        if tracer is not None:
            self.tracer = tracer
        elif tracing:
            sink = (
                JsonlSpanSink(os.path.join(os.path.abspath(state_dir), TRACE_NAME))
                if state_dir
                else None
            )
            self.tracer = Tracer(sink=sink)
        else:
            self.tracer = NULL_TRACER
        self.tracing = self.tracer.enabled
        #: ``(stage, seconds)`` of finished stage spans not yet folded into
        #: their ``stage_<name>_s`` histograms (see _fold_stage_samples).
        self._stage_samples: "deque[Tuple[str, float]]" = deque()
        self._stage_histograms: Dict[str, Histogram] = {}
        self.telemetry = MetricsRegistry()
        if self.tracer.enabled and self.tracer.observer is None:
            self.tracer.observer = self._observe_span
            self.telemetry.add_collector(self._fold_stage_samples)
        #: The server-lifecycle trace every tick/stage span belongs to
        #: (per-job mirror spans belong to each job's own trace instead).
        self.trace_id = new_trace_id() if self.tracer.enabled else ""
        self.store = JobStore(state_dir, fault_injector=self.faults, tracer=self.tracer)
        self.queue = JobQueue(
            queue_capacity,
            per_priority_capacity=per_priority_capacity,
            aging_interval_s=aging_interval_s,
        )
        self.slo = slo
        self.admission = admission
        self.admission_floor = admission_floor
        self.coalesce = coalesce
        self.memoize_circuits = memoize_circuits
        self._slo_tracker = SLOTracker(slo, self.telemetry)
        #: EWMA of observed per-job tick seconds, compile time excluded: the
        #: per-job cost admission control prices a backlog with.  None until
        #: the first tick has measured anything.
        self._service_s_ewma: Optional[float] = None
        #: Seconds the current tick has spent inside compile_expression.
        self._tick_compile_s = 0.0
        self._store_skips_seen = 0
        self.default_backend = backend or default_backend_name()
        self.default_compiler = compiler
        self.compile_workers = compile_workers
        self.params = params if params is not None else BFVParameters.default()
        self.poll_interval = poll_interval
        self.cache = cache if cache is not None else CompilationCache(directory=cache_dir)
        self._jobs: Dict[str, Job] = {}  # guarded-by: _lock
        self._lock = threading.RLock()
        self._job_done = threading.Condition(self._lock)
        #: (compiler key, source) -> circuit, expr, input names and plaintext
        #: check.  The hot serving path: N queued users of one kernel must
        #: not pay N parses, cache-key hashes or check compiles.
        self._circuit_memo: "OrderedDict[Tuple[str, Tuple[Tuple[str, object], ...], str], _CircuitEntry]" = OrderedDict()  # guarded-by: _lock
        self._circuit_memo_cap = 4096
        self._compile_services: Dict[Tuple[str, Tuple[Tuple[str, object], ...]], CompilationService] = {}
        self._execution_services: Dict[str, ExecutionService] = {}  # guarded-by: _lock
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        #: Last-seen snapshot of the process-wide compiled-tape memo counters
        #: (repro.backends.tapeopt); per-tick deltas land in telemetry.
        self._tape_stats_seen: Dict[str, int] = {}
        self._recover()

    # -- persistence / recovery --------------------------------------------
    def _recover(self) -> None:
        """Replay the store: keep terminal jobs, requeue unfinished ones."""
        for job in self.store.replay().values():
            with self._lock:
                self._jobs[job.id] = job
            if job.status is JobState.RUNNING:
                # Caught mid-run by a crash or kill: run it again.  The
                # requeued record keeps the original trace context, so the
                # new process's spans extend the submission's trace.
                job.status = JobState.QUEUED
                self.store.append(job)
                self.telemetry.counter("jobs_recovered").inc()
                self._job_event(job, "recovered", attrs={"attempts": job.attempts})
                self._count_submission(job)
                self._queue_push(job)
            elif job.status is JobState.QUEUED:
                self._count_submission(job)
                self._queue_push(job)
        self._sync_store_skips()
        self._update_queue_depth()

    def _poll_store(self) -> int:
        """Ingest jobs appended to the store by other processes."""
        ingested = 0
        for job in self.store.poll():
            with self._lock:
                known = job.id in self._jobs
                if not known:
                    self._jobs[job.id] = job
            if not known and job.status is JobState.QUEUED:
                self._count_submission(job)
                reason = self._admit(job)
                if reason is not None:
                    self._shed(job, reason)
                else:
                    self._queue_push(job)
                ingested += 1
        self._sync_store_skips()
        if ingested:
            self._update_queue_depth()
        return ingested

    def _sync_store_skips(self) -> None:
        """Mirror the store's damaged-record tally into telemetry."""
        skipped = self.store.skipped_records
        delta = skipped - self._store_skips_seen
        if delta > 0:
            self.telemetry.counter("store_skipped_records").inc(delta)
            self._store_skips_seen = skipped

    def _update_queue_depth(self) -> None:
        self.telemetry.gauge("queue_depth").set(len(self.queue))

    # -- tracing ------------------------------------------------------------
    def _observe_span(self, span: Span) -> None:
        """Tracer observer: fold stage durations into telemetry histograms.

        ``repro top`` reads stage p50/p99 straight from ``metrics.json``, so
        every finished stage span also lands in a ``stage_<name>_s``
        histogram (latency bounds: the percentile interpolation must stay
        tight at serving timescales).
        """
        if span.cat == "stage":
            self._stage_samples.append((span.name, span.duration_s))

    def _fold_stage_samples(self) -> None:
        """Observe the queued stage durations into their histograms.

        The observer runs after a span's end clock, so it only queues the
        sample.  Submissions and ticks fold the queue inside their own
        stages (which bounds it), and every telemetry snapshot folds it
        first (a registry collector), so reads never lag.
        """
        samples = self._stage_samples
        while samples:
            try:
                name, duration_s = samples.popleft()
            except IndexError:  # drained by another thread since the check
                return
            histogram = self._stage_histograms.get(name)
            if histogram is None:
                histogram = self._stage_histograms[name] = self.telemetry.histogram(
                    f"stage_{name}_s", bounds=LATENCY_BUCKETS
                )
            histogram.observe(duration_s)

    def _job_event(self, job: Job, name: str, *, status: str = "ok",
                   attrs: Optional[Dict[str, object]] = None) -> None:
        """A zero-duration marker span on ``job``'s own trace."""
        if not self.tracer.enabled:
            return
        now = self.tracer.wall()
        self.tracer.record(
            name, now, now,
            trace_id=job.trace_id, parent_id=job.trace_root,
            cat="job", status=status, attrs=attrs,
        )

    def _close_job_trace(self, job: Job) -> None:
        """Emit the terminal ``job`` envelope span, pinned to the persisted
        root span id so every process's child spans attach to it."""
        if not self.tracer.enabled:
            return
        end = job.finished_at if job.finished_at is not None else self.tracer.wall()
        self.tracer.record(
            "job", job.submitted_at, end,
            trace_id=job.trace_id, span_id=job.trace_root, parent_id=None,
            cat="job",
            status="ok" if job.status is JobState.COMPLETED else "error",
            attrs={
                "job": job.id,
                "kind": job.kind,
                "name": job.label(),
                "status": job.status.value,
                "attempts": job.attempts,
            },
        )

    # -- client surface -----------------------------------------------------
    def submit(self, job: Job) -> str:
        """Queue one job; returns its id immediately.

        Overload protection applies at this boundary: admission control may
        shed (or downgrade) the job up front, and a bounded queue may shed
        it — or a lower-effective-priority job it displaces — on overflow.
        Shed jobs reach the terminal ``SHED`` state without running;
        ``status``/``result`` surface it like any other outcome.
        """
        # The stage span is dated from entry, so it also covers the
        # duplicate check and its own construction.
        submit_wall = self.tracer.wall() if self.tracer.enabled else 0.0
        submit_mono = self.tracer.mono() if self.tracer.enabled else 0.0
        with self._lock:
            if job.id in self._jobs:
                raise ValueError(f"job id {job.id!r} was already submitted")
            self._jobs[job.id] = job
        with self.tracer.span(
            "submit",
            trace_id=self.trace_id,
            attrs={"job": job.id},
            start_wall=submit_wall,
            start_mono=submit_mono,
        ):
            self._fold_stage_samples()
            self._count_submission(job)
            reason = self._admit(job)
            if reason is not None:
                self._shed(job, reason)
                return job.id
            self.store.append(job)
            self._queue_push(job)
            self._update_queue_depth()
            if self.tracer.enabled:
                # Mirror onto the job's own trace so the submission boundary
                # is part of its connected span tree, not just the server's.
                # Recorded inside the stage span, which then accounts for it.
                self.tracer.record(
                    "submit", submit_wall, self.tracer.wall(),
                    trace_id=job.trace_id, parent_id=job.trace_root, cat="job",
                )
        return job.id

    def _count_submission(self, job: Job) -> None:
        self.telemetry.counter("jobs_submitted").inc()
        self.telemetry.counter(f"{job.kind}_jobs").inc()

    # -- overload protection -------------------------------------------------
    def _admit(self, job: Job) -> Optional[str]:
        """None to accept ``job``; otherwise the reason it must be shed.

        The estimated drain time of an arrival is every queued job at or
        above its priority, plus itself, at the server's per-job cost
        (:attr:`_service_s_ewma`).  A cold server has no cost yet and
        admits its warm-up traffic.  ``"downgrade"`` mode demotes
        over-budget arrivals to the floor priority (accepting them as best
        effort) and only sheds when the job is already at or below the
        floor.
        """
        if self.admission == "off":
            return None
        if self.slo is None:
            return None
        budget = self.slo.wait_budget(job.priority)
        if budget is None:
            return None  # best-effort class: no deadline to protect
        with self.tracer.span("admission", attrs={"job": job.id}) as span:
            per_job_s = self._service_s_ewma or 0.0
            depth = self.queue.depth_at_or_above(job.priority)
            drain_s = (depth + 1) * per_job_s
            if drain_s <= budget:
                return None
            if self.admission == "downgrade" and job.priority > self.admission_floor:
                job.priority = self.admission_floor
                self.telemetry.counter("jobs_downgraded").inc()
                span.set_attr("decision", "downgrade")
                return None
            self.telemetry.counter("admission_rejects").inc()
            span.set_attr("decision", "reject")
            return (
                f"admission control: estimated drain {drain_s:.3f}s exceeds "
                f"wait budget {budget:.3f}s for priority {job.priority}"
            )

    def _queue_push(self, job: Job, sink: Optional[List[Dict[str, object]]] = None) -> None:
        """Push ``job``; shed any overflow victim."""
        victim = self.queue.push(job)
        if victim is not None:
            self._shed(victim, "shed on overload: queue is full", sink)

    def _shed(
        self,
        job: Job,
        reason: str,
        sink: Optional[List[Dict[str, object]]] = None,
    ) -> None:
        """Terminal-reject ``job``: it never ran and never will."""
        job.status = JobState.SHED
        job.error = reason
        job.finished_at = time.time()
        self.telemetry.counter("jobs_shed").inc()
        self._job_event(job, "shed", status="error", attrs={"reason": reason})
        self._close_job_trace(job)
        record = job.to_record()
        if sink is not None:
            sink.append(record)
        else:
            self.store.append_record(record)
        with self._job_done:
            self._job_done.notify_all()

    def slo_report(self) -> Dict[str, object]:
        """Per-priority latency percentiles + violation counts (see
        :meth:`~repro.server.telemetry.SLOTracker.report`)."""
        return self._slo_tracker.report()

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job id {job_id!r}") from None

    def status(self, job_id: str) -> Dict[str, object]:
        """The compact status row of one job."""
        return self.get(job_id).summary()

    def jobs(self) -> List[Dict[str, object]]:
        """Status rows of every known job, in submission order."""
        with self._lock:
            ordered = sorted(self._jobs.values(), key=lambda job: job.submitted_at)
        return [job.summary() for job in ordered]

    def result(
        self, job_id: str, *, wait: bool = False, timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """The result payload of a completed job.

        With ``wait=True`` blocks until the job reaches a terminal state
        (requires a running serving loop or a concurrent :meth:`drain`).
        Raises :class:`RuntimeError` for failed and shed jobs and
        :class:`TimeoutError` when the wait lapses.
        """
        job = self.get(job_id)
        if wait:
            with self._job_done:
                if not self._job_done.wait_for(lambda: job.done, timeout=timeout):
                    raise TimeoutError(f"job {job_id} still {job.status.value} after {timeout}s")
        if job.status is JobState.FAILED:
            raise RuntimeError(f"job {job_id} failed: {job.error}")
        if job.status is JobState.SHED:
            raise RuntimeError(f"job {job_id} was shed: {job.error}")
        if job.status is not JobState.COMPLETED:
            raise RuntimeError(
                f"job {job_id} is {job.status.value}; pass wait=True or drain() first"
            )
        return job.result or {}

    # -- serving loop -------------------------------------------------------
    def start(self) -> "JobServer":
        """Run the scheduling loop in a daemon thread until :meth:`stop`."""
        with self._lock:
            if self._thread is not None:
                return self
            self._stop_event.clear()
            self._thread = threading.Thread(
                target=self._serve_loop, name="repro-job-server", daemon=True
            )
            self._thread.start()
        return self

    def _serve_loop(self) -> None:
        while not self._stop_event.is_set():
            processed = self.tick(timeout=self.poll_interval)
            if processed and self.store.persistent:
                self.telemetry.write_snapshot(self.store.metrics_path)

    def stop(self) -> None:
        """Stop the background loop (processing finishes the current tick)."""
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join()
        with self._lock:
            self._thread = None

    def close(self) -> None:
        """Stop, write a final metrics snapshot and compact the store."""
        self.stop()
        if self.store.persistent:
            self._poll_store()  # don't compact away a just-submitted job
            self.telemetry.write_snapshot(self.store.metrics_path)
            with self._lock:
                jobs = sorted(self._jobs.values(), key=lambda job: job.submitted_at)
            self.store.compact(jobs)
        if self._own_tracer:
            self.tracer.close()  # flushes the span sink
        elif self.tracer.enabled:
            self.tracer.flush()

    def __enter__(self) -> "JobServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def drain(self, timeout: float = 0.0) -> int:
        """Process everything currently queued (and store-appended); returns
        the number of jobs brought to a terminal state."""
        processed = 0
        while True:
            advanced = self.tick(timeout=timeout)
            processed += advanced
            # Retried jobs are requeued without reaching a terminal state, so
            # keep ticking while the queue is non-empty even if this round
            # finished nothing.
            if advanced == 0 and len(self.queue) == 0:
                break
        if self.store.persistent:
            self.telemetry.write_snapshot(self.store.metrics_path)
        if self.tracer.enabled:
            self.tracer.flush()
        return processed

    # -- one scheduling round ----------------------------------------------
    def tick(self, timeout: Optional[float] = 0.0) -> int:
        """One scheduling round over every currently pending job.

        Returns the number of jobs that reached a terminal state (retried
        jobs are requeued and not counted).
        """
        tick_start = time.perf_counter()
        enabled = self.tracer.enabled
        t0_wall = self.tracer.wall() if enabled else 0.0
        t0_mono = self.tracer.mono() if enabled else 0.0
        self._poll_store()
        t1_wall = self.tracer.wall() if enabled else 0.0
        pending = self.queue.pop_batch(timeout=timeout)
        self._update_queue_depth()
        if not pending:
            return 0
        self._tick_compile_s = 0.0
        tick_span = None
        if enabled:
            # The envelope is opened retroactively (empty ticks must not
            # clutter the trace) and covers the store poll and queue drain
            # that already happened; stage spans below nest inside it.
            tick_span = self.tracer.span(
                "tick",
                trace_id=self.trace_id,
                parent_id=None,
                cat="tick",
                attrs={"jobs": len(pending)},
                start_wall=t0_wall,
                start_mono=t0_mono,
            )
            tick_span.__enter__()
            self.tracer.record(
                "poll_store", t0_wall, t1_wall,
                trace_id=self.trace_id, parent_id=tick_span.span_id, cat="stage",
            )
        self.telemetry.gauge("jobs_running").set(len(pending))
        now = time.time()
        #: One tick's state transitions, flushed in a single locked fsync at
        #: the end (per-job appends would bookend the coalesced batch with 2N
        #: fsyncs).  Crash mid-tick replays the jobs as queued/running and
        #: re-runs them — the store's semantics are at-least-once anyway.
        sink: List[Dict[str, object]] = []
        for job in pending:
            job.status = JobState.RUNNING
            job.attempts += 1
            job.started_at = now
            sink.append(job.to_record())
            wait_s = now - job.submitted_at
            self.telemetry.histogram("job_wait_s", bounds=LATENCY_BUCKETS).observe(wait_s)
            self._slo_tracker.observe_wait(job.priority, wait_s)
            if enabled:
                # Per-attempt wait on the job's own trace: from this
                # attempt's enqueue (retries re-stamp it) to the drain.
                self.tracer.record(
                    "queue_wait",
                    getattr(job, ENQUEUED_AT_ATTR, job.submitted_at), now,
                    trace_id=job.trace_id, parent_id=job.trace_root, cat="job",
                    attrs={"attempt": job.attempts, "priority": job.priority},
                )
        compile_jobs = [job for job in pending if job.kind == "compile"]
        execute_jobs = [job for job in pending if job.kind == "execute"]
        if enabled:
            # queue_drain closes after the mark-running loop: draining the
            # queue and stamping/persist-staging the batch is one stage.
            self.tracer.record(
                "queue_drain", t1_wall, self.tracer.wall(),
                trace_id=self.trace_id, parent_id=tick_span.span_id, cat="stage",
                attrs={"jobs": len(pending)},
            )

        terminal = 0
        try:
            terminal += self._run_compile_jobs(compile_jobs, sink)
            failed, executed = self._run_execute_jobs(execute_jobs, sink)
            terminal += failed
            # One stage from the executed batches to the tick's bookkeeping:
            # verify and build every result, persist the tick's records and
            # fold the tick into telemetry.
            with self.tracer.span("commit_result", attrs={"jobs": len(pending)}):
                while executed:
                    # Popped, so each batch's reports are freed in this stage.
                    terminal += self._commit_batch(executed.pop(0), sink)
                #: Crash-before-commit injection point: everything above ran
                #: but none of it is durable yet; a fault here models the
                #: process dying with the store still saying "queued".
                self.faults.fire("server.before_commit")
                self.store.append_records(sink)
                self._account_tick(len(pending), tick_start)
        finally:
            if tick_span is not None:
                tick_span.set_attr("terminal", terminal)
                tick_span.__exit__(None, None, None)
        return terminal

    def _account_tick(self, jobs: int, tick_start: float) -> None:
        """Fold a finished tick into telemetry and the admission cost."""
        self._fold_stage_samples()
        self.telemetry.gauge("jobs_running").set(0)
        self._update_queue_depth()
        self._sync_tape_stats()
        wall = time.perf_counter() - tick_start
        self.telemetry.histogram("tick_s").observe(wall)
        # Fold this tick's per-job wall time into the admission cost
        # (coalescing makes it an upper bound on marginal cost).  Compile
        # seconds stay out: a cold compile is paid once per circuit, and
        # counting it would price every later job at the cold-start figure.
        per_job = max(0.0, wall - self._tick_compile_s) / jobs
        self._service_s_ewma = (
            per_job
            if self._service_s_ewma is None
            else 0.3 * per_job + 0.7 * self._service_s_ewma
        )

    def _sync_tape_stats(self) -> None:
        """Fold the compiled-tape memo's counter deltas into telemetry.

        The memo (:func:`repro.backends.tapeopt.get_compiled_tape`) is
        process-wide and shared with direct-path callers, so the server
        tracks the last snapshot it saw and records only the delta —
        ``tape_cache_hits`` / ``tape_compiles`` then count this server's
        observation window, not the whole process history.  The static-
        analysis counters (``tapes_verified`` / ``analysis_findings``) are
        touched every tick so they appear in snapshots even at zero: an
        absent findings counter is indistinguishable from "never checked".
        The ``tape_arena_bytes`` gauge is the memo's pooled arena memory.
        """
        from repro.backends.tapeopt import tape_cache_stats

        stats = tape_cache_stats()
        for counter, key, always in (
            ("tape_cache_hits", "hits", False),
            ("tape_compiles", "compiles", False),
            ("tapes_verified", "verified", True),
            ("analysis_findings", "findings", True),
        ):
            delta = stats[key] - self._tape_stats_seen.get(key, 0)
            if delta > 0 or always:
                self.telemetry.counter(counter).inc(delta)
            self._tape_stats_seen[key] = stats[key]
        self.telemetry.gauge("tape_arena_bytes").set(stats["arena_bytes"])

    # -- compilation --------------------------------------------------------
    def _compile_service(self, job: Job) -> CompilationService:
        name = job.compiler or self.default_compiler
        key = (name, tuple(sorted(job.compiler_options.items())))
        service = self._compile_services.get(key)
        if service is None:
            spec = CompilerSpec.create(name, **job.compiler_options)
            service = CompilationService(
                spec, workers=self.compile_workers, cache=self.cache
            )
            self._compile_services[key] = service
        return service

    def _compile(self, job: Job, expr: Expr) -> CompilationReport:
        """Compile ``expr`` for ``job``, charging the seconds to this tick's
        compile time (which the admission cost leaves out)."""
        service = self._compile_service(job)
        start = time.perf_counter()
        try:
            return service.compile_expression(expr, name=job.name or "circuit")
        finally:
            self._tick_compile_s += time.perf_counter() - start

    def _compiled_circuit(self, job: Job) -> _CircuitEntry:
        """The job's circuit, source expression and input names, compiling
        if needed.

        Memoized on ``(compiler configuration, source text)`` so a flood of
        jobs for one kernel pays parsing, compile-cache hashing and the
        plaintext check's compile once; the shared circuit *object* also
        carries one cached fingerprint for every tick.
        """
        if job.program is not None:
            return _CircuitEntry(job.program, None, list(job.program.scalar_inputs))
        memo_key = (
            job.compiler or self.default_compiler,
            tuple(sorted(job.compiler_options.items())),
            job.source,
        )
        if self.memoize_circuits:
            with self._lock:
                hit = self._circuit_memo.get(memo_key)
                if hit is not None:
                    self._circuit_memo.move_to_end(memo_key)
                    self.telemetry.counter("circuit_memo_hits").inc()
                    return hit
        self.telemetry.counter("circuit_memo_misses").inc()
        expr = parse(job.source)
        report = self._compile(job, expr)
        entry = _CircuitEntry(report.circuit, expr, list(variables(expr)))
        if self.memoize_circuits:
            with self._lock:
                self._circuit_memo[memo_key] = entry
                while len(self._circuit_memo) > self._circuit_memo_cap:
                    self._circuit_memo.popitem(last=False)
        return entry

    def _run_compile_jobs(
        self, jobs: Sequence[Job], sink: List[Dict[str, object]]
    ) -> int:
        terminal = 0
        for job in jobs:
            try:
                with self.tracer.span(
                    "backend_compile",
                    attrs={"job": job.id, "compiler": job.compiler or self.default_compiler},
                ):
                    report = self._compile(job, parse(job.source))
                job.result = {
                    "name": report.name,
                    "compiler": job.compiler or self.default_compiler,
                    "initial_cost": report.initial_cost,
                    "final_cost": report.final_cost,
                    "compile_time_s": report.compile_time_s,
                    "instructions": len(report.circuit.instructions),
                    "stats": report.stats.as_dict(),
                }
                terminal += self._finish(job, JobState.COMPLETED, sink)
            except Exception as error:
                terminal += self._handle_failure(job, error, sink)
        return terminal

    # -- execution ----------------------------------------------------------
    def _execution_service(self, backend_name: str) -> ExecutionService:
        # drain() may run on a client thread beside the serving loop, so the
        # get-or-create must be atomic.
        with self._lock:
            service = self._execution_services.get(backend_name)
            if service is None:
                service = ExecutionService(
                    backend_name, params=self.params, tracer=self.tracer
                )
                self._execution_services[backend_name] = service
            return service

    def _job_inputs(self, job: Job, input_names: Sequence[str]) -> List[Dict[str, int]]:
        if job.inputs is not None:
            return [dict(job.inputs)]
        return [sample_named_inputs(input_names, job.seed, job.input_range)]

    def _run_execute_jobs(
        self, jobs: Sequence[Job], sink: List[Dict[str, object]]
    ) -> Tuple[int, List[_ExecutedBatch]]:
        """Compile, coalesce and execute ``jobs``.

        Returns the number of jobs that failed terminally on the way, plus
        the executed backend batches for :meth:`_commit_batch`.
        """
        terminal = 0
        entries = []
        circuits: Dict[str, _CircuitEntry] = {}
        with self.tracer.span("backend_compile", attrs={"jobs": len(jobs)}):
            for job in jobs:
                try:
                    circuit = self._compiled_circuit(job)
                    inputs = self._job_inputs(job, circuit.names)
                    backend_name = job.backend or self.default_backend
                    # Resolving the service now surfaces unknown-backend errors
                    # per job instead of failing the whole group later.
                    self._execution_service(backend_name)
                    circuits[job.id] = circuit
                    entries.append((job, circuit.circuit, inputs, backend_name))
                except Exception as error:
                    terminal += self._handle_failure(job, error, sink)

        executed = []
        for backend_name, backend_groups, exec_jobs in self._plan_batches(entries):
            service = self._execution_service(backend_name)
            try:
                self.faults.fire("server.slow_worker")
                self.faults.fire("server.mid_batch")
                batch = service.run_jobs(exec_jobs)
            except Exception as error:
                for group in backend_groups:
                    for job in group.jobs:
                        terminal += self._handle_failure(job, error, sink)
                continue
            verify = backend_produces_outputs(service.backend)
            executed.append(_ExecutedBatch(backend_groups, batch, verify, circuits))
        return terminal, executed

    def _commit_batch(self, executed: _ExecutedBatch, sink: List[Dict[str, object]]) -> int:
        """Verify one backend batch's groups and finish each member job."""
        terminal = 0
        self.telemetry.counter("executions_total").inc(executed.batch.total_executions)
        for group, reports in zip(executed.groups, executed.batch.reports):
            references = self._verify_group(group, executed.circuits, executed.verify)
            for job_index, (job, (lo, hi)) in enumerate(zip(group.jobs, group.slices())):
                try:
                    job.result = self._execution_result(
                        job_index, group, reports[lo:hi], references[job_index]
                    )
                    terminal += self._finish(job, JobState.COMPLETED, sink)
                except Exception as error:
                    terminal += self._handle_failure(job, error, sink)
        return terminal

    def _plan_batches(
        self, entries: Sequence[Tuple[Job, object, List[Dict[str, int]], str]]
    ) -> List[Tuple[str, List[CoalescedGroup], List[ExecutionJob]]]:
        """``(backend, groups, execution jobs)`` per backend, in first-use order.

        The whole plan — grouping, batch telemetry and the per-group
        :class:`~repro.service.execution.ExecutionJob` — is the ``coalesce``
        stage.
        """
        with self.tracer.span("coalesce", attrs={"entries": len(entries)}) as span:
            if self.coalesce:
                groups = coalesce(entries)
            else:
                # Ablated: one group per job, as if the coalescer never existed.
                groups = [group for entry in entries for group in coalesce([entry])]
            by_backend: Dict[str, List[CoalescedGroup]] = {}
            for group in groups:
                by_backend.setdefault(group.backend_key, []).append(group)
            plans = []
            for backend_name, backend_groups in by_backend.items():
                self.telemetry.counter("batches_total").inc(len(backend_groups))
                for group in backend_groups:
                    self.telemetry.histogram(
                        "group_size", bounds=(1, 2, 4, 8, 16, 32, 64, 128)
                    ).observe(len(group.jobs))
                    if group.coalesced:
                        self.telemetry.counter("batches_coalesced").inc()
                        self.telemetry.counter("coalesced_jobs").inc(len(group.jobs))
                exec_jobs = [
                    ExecutionJob(
                        program=group.program,
                        inputs=group.batched_inputs,
                        name=group.jobs[0].label(),
                    )
                    for group in backend_groups
                ]
                plans.append((backend_name, backend_groups, exec_jobs))
            span.set_attr("groups", len(groups))
            span.set_attr(
                "coalesced_jobs", sum(len(g.jobs) for g in groups if g.coalesced)
            )
        return plans

    def _verify_group(
        self,
        group: CoalescedGroup,
        circuits: Mapping[str, _CircuitEntry],
        verify: bool,
    ) -> List[object]:
        """Each member job's plaintext references, under one ``verify`` span.

        Per job: one reference list per input set, None when the job is not
        verified (an accounting-only backend or a pre-lowered circuit), or
        the exception the check raised, which fails that job alone when its
        result is built.
        """
        references: List[object] = []
        with self.tracer.span("verify", attrs={"jobs": len(group.jobs)}):
            for job, inputs in zip(group.jobs, group.inputs_per_job):
                circuit = circuits[job.id]
                if not verify or circuit.expr is None:
                    references.append(None)
                    continue
                try:
                    check = circuit.check(self.params.plain_modulus)
                    references.append([check.run(item) for item in inputs])
                except Exception as error:
                    references.append(error)
        return references

    def _execution_result(
        self,
        job_index: int,
        group: CoalescedGroup,
        reports: Sequence[object],
        references: object,
    ) -> Dict[str, object]:
        inputs = group.inputs_per_job[job_index]
        outputs = [
            declared_outputs(group.program, report.outputs) for report in reports
        ]
        result: Dict[str, object] = {
            "backend": group.backend_key,
            "inputs": [dict(item) for item in inputs],
            "outputs": outputs,
            "coalesced_batch": group.rows,
            "group_jobs": len(group.jobs),
            "verified": references is not None,
        }
        if reports:
            head = reports[0]
            result["latency_ms"] = head.latency_ms
            result["consumed_noise_budget"] = head.consumed_noise_budget
            result["remaining_noise_budget"] = head.remaining_noise_budget
            result["noise_budget_exhausted"] = head.noise_budget_exhausted
        if isinstance(references, Exception):
            raise references
        if references is not None:
            result["references"] = references
            result["correct"] = outputs == references
        return result

    # -- lifecycle plumbing --------------------------------------------------
    def _finish(
        self, job: Job, status: JobState, sink: List[Dict[str, object]]
    ) -> int:
        job.status = status
        if status is JobState.COMPLETED:
            job.error = None  # clear any earlier retried-attempt message
        job.finished_at = time.time()
        if job.started_at is not None:
            run_s = job.finished_at - job.started_at
            self.telemetry.histogram("job_run_s", bounds=LATENCY_BUCKETS).observe(run_s)
            self._slo_tracker.observe_run(job.priority, run_s)
        self.telemetry.counter(
            "jobs_completed" if status is JobState.COMPLETED else "jobs_failed"
        ).inc()
        sink.append(job.to_record())
        if self.tracer.enabled:
            if job.started_at is not None:
                self.tracer.record(
                    "run", job.started_at, job.finished_at,
                    trace_id=job.trace_id, parent_id=job.trace_root, cat="job",
                    status="ok" if status is JobState.COMPLETED else "error",
                    attrs={"attempt": job.attempts, "kind": job.kind},
                )
            self._close_job_trace(job)
        with self._job_done:
            self._job_done.notify_all()
        return 1

    def _handle_failure(
        self, job: Job, error: Exception, sink: List[Dict[str, object]]
    ) -> int:
        """Requeue for retry when attempts remain, otherwise fail the job."""
        message = f"{type(error).__name__}: {error}"
        if job.attempts <= job.max_retries:
            job.status = JobState.QUEUED
            job.error = message
            sink.append(job.to_record())
            if self.tracer.enabled and job.started_at is not None:
                # The failed attempt stays on the job's trace; the requeued
                # job keeps its trace_id so the retry extends the same tree.
                self.tracer.record(
                    "run", job.started_at, self.tracer.wall(),
                    trace_id=job.trace_id, parent_id=job.trace_root, cat="job",
                    status="retry",
                    attrs={"attempt": job.attempts, "error": message},
                )
            self.queue.push(job)
            self.telemetry.counter("jobs_retried").inc()
            self._update_queue_depth()
            return 0
        job.error = message + "\n" + traceback.format_exc(limit=4)
        job.result = None
        return self._finish(job, JobState.FAILED, sink)
