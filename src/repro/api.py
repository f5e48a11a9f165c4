"""The unified compilation facade: ``repro.compile`` / ``repro.execute``.

One import gives the whole system behind names instead of hand-built
objects::

    import repro

    report = repro.compile("(* (+ a b) (+ c d))", compiler="greedy")
    outcome = repro.execute("(* (+ a b) (+ c d))", {"a": 1, "b": 2, "c": 3, "d": 4})
    batch = repro.execute_batch("(* (+ a b) (+ c d))", batch=32, backend="vector-vm")
    run = repro.run_workload("nn-linear", batch=8)
    repro.list_compilers()
    repro.list_backends()
    repro.list_workloads()

Sources may be s-expression strings (the paper's textual IR), parsed
:class:`~repro.ir.nodes.Expr` trees, or staged DSL
:class:`~repro.compiler.dsl.Program` objects.  Compilers are addressed by
registry name (with ``**options`` forwarded to the factory), by
:class:`~repro.compiler.registry.CompilerSpec`, or by a live compiler
object.  Every compilation runs through the
:class:`~repro.service.service.CompilationService`, so ``cache_dir`` gives
cross-process disk caching, and :func:`compile_batch` (the one entry point
holding several jobs) takes ``workers`` to fan them out over a
cost-balanced process pool.  Execution runs on a named
:class:`~repro.backends.base.ExecutionBackend` (``reference``,
``vector-vm``); ``python -m repro`` exposes the same facade on
the command line.
"""

from __future__ import annotations

import atexit
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends.registry import (
    BackendSpec,
    available_backends,
    backend_info,
    get_backend,
)
from repro.compiler.dsl import Program
from repro.compiler.executor import (
    ExecutionReport,
    declared_outputs,
    reference_check,
    reference_output,
)
from repro.compiler.pipeline import CompilationReport
from repro.compiler.registry import (
    CompilerSpec,
    available_compilers,
    compiler_info,
)
from repro.ir.analysis import variables
from repro.ir.evaluate import output_arity
from repro.ir.nodes import Expr
from repro.ir.parser import parse
from repro.service.cache import CompilationCache
from repro.service.service import BatchReport, CompilationJob, CompilationService

__all__ = [
    "Source",
    "to_expression",
    "make_service",
    "compile",
    "compile_batch",
    "analyze",
    "lint",
    "execute",
    "execute_batch",
    "sample_named_inputs",
    "derive_batch_seeds",
    "RunOutcome",
    "BatchRunOutcome",
    "WorkloadRunOutcome",
    "run_workload",
    "list_workloads",
    "run_study",
    "list_components",
    "list_compilers",
    "describe_compiler",
    "list_backends",
    "describe_backend",
    "serve",
    "submit",
    "status",
    "result",
    "default_server",
    "shutdown_default_server",
    "CompilerSpec",
    "BackendSpec",
    "CompilationCache",
    "CompilationService",
]

#: Anything the facade accepts as a program: s-expression text, an IR
#: expression, or a staged DSL program.
Source = Union[str, Expr, Program]


def to_expression(source: Source) -> Tuple[Expr, Optional[str]]:
    """Normalize a source into ``(expression, suggested_name)``."""
    if isinstance(source, Program):
        return source.output_expr, source.name
    if isinstance(source, Expr):
        return source, None
    if isinstance(source, str):
        return parse(source), None
    raise TypeError(
        f"expected an s-expression string, Expr or Program, got {type(source).__name__}"
    )


def make_service(
    compiler: Union[str, CompilerSpec, object] = "greedy",
    *,
    workers: int = 1,
    cache: Optional[CompilationCache] = None,
    cache_dir: Optional[str] = None,
    **options: object,
) -> CompilationService:
    """A :class:`CompilationService` for a named (or given) compiler."""
    return CompilationService(
        _with_options(compiler, options), workers=workers, cache=cache, cache_dir=cache_dir
    )


def _with_options(compiler: object, options: Mapping[str, object]) -> object:
    """``compiler`` with factory ``options`` folded into a registry spec."""
    if isinstance(compiler, str) and options:
        return CompilerSpec.create(compiler, **options)
    if options:
        raise ValueError("compiler options require a registry name, not an instance")
    return compiler


def compile(
    source: Source,
    compiler: Union[str, CompilerSpec, object, None] = None,
    *,
    name: Optional[str] = None,
    cache: Optional[CompilationCache] = None,
    cache_dir: Optional[str] = None,
    service: Optional[CompilationService] = None,
    verify: bool = False,
    **options: object,
) -> CompilationReport:
    """Compile one program under a named compiler configuration.

    ``compiler`` defaults to ``"greedy"``.  Pass ``service=`` to reuse an
    existing :class:`CompilationService` (its compiler and cache then apply,
    so combining it with ``compiler``/``cache`` arguments is an error rather
    than a silent override, and compiler options are unexpected keywords).

    Returns the same :class:`CompilationReport` (stats, costs, rewrite steps,
    pipeline trace, SEAL codegen) every compiler in the repo produces.
    """
    expr, suggested = to_expression(source)
    if service is not None:
        if options:
            raise TypeError(f"compile() with service= got unexpected keywords {sorted(options)}")
        if compiler is not None or cache is not None or cache_dir is not None:
            raise ValueError("pass either service= or compiler/cache arguments, not both")
    else:
        # Not make_service: it would take a stray workers= as its own, and a
        # single program gives its process pool nothing to pack.
        service = CompilationService(
            _with_options(compiler if compiler is not None else "greedy", options),
            cache=cache,
            cache_dir=cache_dir,
        )
    return service.compile_expression(
        expr, name=name or suggested or "circuit", verify=verify
    )


def compile_batch(
    sources: Iterable[Union[Source, Tuple[Source, str]]],
    compiler: Union[str, CompilerSpec, object] = "greedy",
    *,
    workers: int = 1,
    cache: Optional[CompilationCache] = None,
    cache_dir: Optional[str] = None,
    **options: object,
) -> BatchReport:
    """Compile many programs in one cost-balanced (optionally parallel) batch."""
    jobs: List[CompilationJob] = []
    for index, item in enumerate(sources):
        explicit = None
        if isinstance(item, tuple):
            item, explicit = item
        expr, suggested = to_expression(item)
        jobs.append(CompilationJob(expr=expr, name=explicit or suggested or f"circuit_{index}"))
    service = make_service(
        compiler, workers=workers, cache=cache, cache_dir=cache_dir, **options
    )
    return service.compile_batch(jobs)


@dataclass
class RunOutcome:
    """Compile + execute + verify, bundled."""

    report: CompilationReport
    execution: ExecutionReport
    inputs: Dict[str, int]
    reference: List[int]
    outputs: List[int]

    @property
    def correct(self) -> bool:
        """True when the decrypted outputs match the plaintext reference."""
        return self.outputs == self.reference

    @property
    def backend(self) -> str:
        """Registry name of the backend that executed the circuit."""
        return self.execution.backend


@dataclass
class BatchRunOutcome:
    """Compile once + execute a whole batch of input sets + verify each."""

    report: CompilationReport
    executions: List[ExecutionReport]
    inputs: List[Dict[str, int]]
    references: List[List[int]]
    outputs: List[List[int]]
    #: Wall-clock seconds of the execution phase (not compilation).
    wall_time_s: float = 0.0
    #: Registry name of the backend that executed the batch (meaningful even
    #: when the batch was empty and no reports exist).
    backend: str = "reference"

    @property
    def batch_size(self) -> int:
        return len(self.executions)

    @property
    def all_correct(self) -> bool:
        """True when every input set's outputs match its plaintext reference."""
        return all(
            outputs == reference
            for outputs, reference in zip(self.outputs, self.references)
        )

    @property
    def throughput_per_s(self) -> float:
        """Executed input sets per wall-clock second."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return len(self.executions) / self.wall_time_s


def sample_named_inputs(
    names: Iterable[str], seed: int, input_range: int = 7
) -> Dict[str, int]:
    """Deterministic input sampling: uniform over ``[0, input_range]``.

    The single definition of the seed-to-inputs contract — the facade and
    the job server both draw through it, so a server job with ``seed=K``
    executes exactly the inputs ``api.execute(seed=K)`` would.
    """
    rng = np.random.default_rng(seed)
    return {name: int(rng.integers(0, input_range + 1)) for name in names}


def derive_batch_seeds(seed: int, count: int) -> List[int]:
    """``count`` decorrelated per-item seeds derived from one base seed.

    The naive ``seed + offset`` scheme silently correlates adjacent batches:
    ``seed=0, batch=32`` and ``seed=1, batch=32`` would share 31 of their 32
    input sets.  Seeds are instead spawned through
    :class:`numpy.random.SeedSequence`, whose hashing keeps every
    ``(seed, offset)`` stream independent, so two base seeds never overlap.

    Each derived seed still feeds :func:`sample_named_inputs` — the one
    seed-to-inputs contract — so a server job submitted with a derived seed
    executes bit-identical inputs to the facade batch item it came from.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(child.generate_state(1, np.uint32)[0]) for child in children]


def _sample_inputs(expr: Expr, seed: int, input_range: int = 7) -> Dict[str, int]:
    return sample_named_inputs(variables(expr), seed, input_range)


def _report_for(
    source: Union[Source, CompilationReport],
    compiler: Union[str, CompilerSpec, object, None],
    name: Optional[str],
    cache: Optional[CompilationCache],
    cache_dir: Optional[str],
    options: Mapping[str, object],
) -> CompilationReport:
    """``source`` compiled through :func:`compile`, or the given report
    (which takes no compiler options)."""
    if not isinstance(source, CompilationReport):
        return compile(source, compiler, name=name, cache=cache, cache_dir=cache_dir, **options)
    if options:
        raise TypeError(f"a compiled report got unexpected keywords {sorted(options)}")
    return source


def execute(
    source: Union[Source, CompilationReport],
    inputs: Optional[Mapping[str, int]] = None,
    compiler: Union[str, CompilerSpec, object, None] = None,
    *,
    backend: Union[str, BackendSpec, object, None] = None,
    seed: int = 0,
    input_range: int = 7,
    name: Optional[str] = None,
    cache: Optional[CompilationCache] = None,
    cache_dir: Optional[str] = None,
    **options: object,
) -> RunOutcome:
    """Compile (unless given a report) and run on a simulated BFV backend.

    ``backend`` names the execution backend (``reference`` by default;
    ``vector-vm`` for the batched tape VM).  Missing ``inputs`` are drawn
    deterministically from ``seed``, uniformly over ``[0, input_range]`` per
    variable.  The decrypted outputs are always verified against the
    plaintext reference (see :attr:`RunOutcome.correct`).
    """
    report = _report_for(source, compiler, name, cache, cache_dir, options)
    expr = report.source_expr
    if inputs is None:
        inputs = _sample_inputs(expr, seed=seed, input_range=input_range)
    inputs = {key: int(value) for key, value in inputs.items()}
    execution = get_backend(backend).execute(report.circuit, inputs)
    return RunOutcome(
        report=report,
        execution=execution,
        inputs=inputs,
        reference=reference_output(
            expr, inputs, slot_count=max(64, output_arity(expr) + 8)
        ),
        outputs=declared_outputs(report.circuit, execution.outputs),
    )


def execute_batch(
    source: Union[Source, CompilationReport],
    inputs: Optional[Sequence[Mapping[str, int]]] = None,
    compiler: Union[str, CompilerSpec, object, None] = None,
    *,
    batch: int = 8,
    backend: Union[str, BackendSpec, object, None] = None,
    seed: int = 0,
    input_range: int = 7,
    name: Optional[str] = None,
    cache: Optional[CompilationCache] = None,
    cache_dir: Optional[str] = None,
    **options: object,
) -> BatchRunOutcome:
    """Compile once and execute a whole batch of input sets.

    ``inputs`` is a sequence of input dicts; when omitted, ``batch`` input
    sets are drawn deterministically from per-item seeds spawned off
    ``seed`` (:func:`derive_batch_seeds` — different base seeds never share
    input sets), uniformly over ``[0, input_range]`` per variable.  The
    batch executes
    through the backend's ``execute_many`` — one pass over the vector VM's
    instruction tape serves the entire batch — and each input set is
    verified against its own plaintext reference.
    """
    report = _report_for(source, compiler, name, cache, cache_dir, options)
    expr = report.source_expr
    if inputs is None:
        if batch < 1:
            raise ValueError("batch must be at least 1")
        inputs_list = [
            _sample_inputs(expr, seed=item_seed, input_range=input_range)
            for item_seed in derive_batch_seeds(seed, batch)
        ]
    else:
        inputs_list = [
            {key: int(value) for key, value in mapping.items()} for mapping in inputs
        ]
    impl = get_backend(backend)
    start = time.perf_counter()
    executions = impl.execute_many(report.circuit, inputs_list)
    wall_time_s = time.perf_counter() - start
    check = reference_check(expr, slot_count=max(64, output_arity(expr) + 8))
    return BatchRunOutcome(
        report=report,
        executions=executions,
        inputs=inputs_list,
        references=[check.run(item) for item in inputs_list],
        outputs=[
            declared_outputs(report.circuit, execution.outputs)
            for execution in executions
        ],
        wall_time_s=wall_time_s,
        backend=getattr(impl, "name", type(impl).__name__),
    )


# ---------------------------------------------------------------------------
# The job-orchestration server surface: serve / submit / status / result.
# ---------------------------------------------------------------------------

_default_server = None
_default_server_lock = threading.Lock()


def serve(
    state_dir: Optional[str] = None,
    *,
    backend: Optional[str] = None,
    compiler: str = "greedy",
    cache_dir: Optional[str] = None,
    poll_interval: float = 0.05,
    queue_capacity: Optional[int] = None,
    per_priority_capacity: Optional[int] = None,
    aging_interval_s: Optional[float] = None,
    slo=None,
    admission: str = "off",
    tracing: bool = False,
    start: bool = True,
):
    """A :class:`~repro.server.server.JobServer` for this process.

    ``state_dir`` roots the persistent job store (the queue survives
    restarts there, and ``repro submit --state-dir`` reaches it from other
    processes); None keeps everything in memory.  With ``start=True`` (the
    default) the scheduling loop runs in a background thread — submit jobs
    and block on :func:`result`; with ``start=False`` drive it yourself via
    ``server.drain()`` / ``server.tick()``.

    The overload knobs (``queue_capacity``, ``per_priority_capacity``,
    ``aging_interval_s``, ``slo``, ``admission``) pass straight through to
    :class:`~repro.server.server.JobServer`; their defaults keep the server
    unbounded and admission-free.  ``tracing=True`` turns on end-to-end span
    tracing (written to ``traces.jsonl`` under ``state_dir``; see
    :mod:`repro.obs` and ``repro trace``).
    """
    from repro.server.server import JobServer

    server = JobServer(
        state_dir,
        backend=backend,
        compiler=compiler,
        cache_dir=cache_dir,
        poll_interval=poll_interval,
        queue_capacity=queue_capacity,
        per_priority_capacity=per_priority_capacity,
        aging_interval_s=aging_interval_s,
        slo=slo,
        admission=admission,
        tracing=tracing,
    )
    if start:
        server.start()
    return server


def default_server():
    """The process-wide in-memory server ``submit``/``result`` fall back to.

    Created (and started) lazily on first use; closed at interpreter exit.
    """
    global _default_server
    with _default_server_lock:
        if _default_server is None:
            _default_server = serve(poll_interval=0.005, start=True)
            atexit.register(shutdown_default_server)
        return _default_server


def shutdown_default_server() -> None:
    """Close the process-wide default server (no-op when never created)."""
    global _default_server
    with _default_server_lock:
        server, _default_server = _default_server, None
    if server is not None:
        server.close()


def _client(server: Optional[object], state_dir: Optional[str]):
    """Resolve the in-process server a client call should talk to."""
    if server is not None and state_dir is not None:
        raise ValueError("pass either server= or state_dir=, not both")
    if server is not None:
        return server
    if state_dir is None:
        return default_server()
    return None


def submit(
    source: Union[Source, None] = None,
    inputs: Optional[Mapping[str, int]] = None,
    compiler: Optional[str] = None,
    *,
    kind: str = "execute",
    backend: Optional[str] = None,
    seed: int = 0,
    input_range: int = 7,
    priority: int = 0,
    max_retries: int = 0,
    name: Optional[str] = None,
    server: Optional[object] = None,
    state_dir: Optional[str] = None,
    **options: object,
) -> str:
    """Queue a compile/execute job; returns the job id immediately.

    Three targets, in precedence order: an explicit ``server`` object (an
    in-process :class:`~repro.server.server.JobServer`), a ``state_dir``
    (appends a queued record to that directory's store — the running
    ``repro serve`` process picks it up), or the process-wide
    :func:`default_server`.
    """
    from repro.server.jobs import Job
    from repro.server.store import JobStore

    expr, suggested = to_expression(source)
    from repro.ir.printer import to_sexpr

    job = Job(
        kind=kind,
        source=to_sexpr(expr),
        compiler=compiler,
        compiler_options=dict(options),
        backend=backend,
        inputs={key: int(value) for key, value in inputs.items()} if inputs else None,
        seed=seed,
        input_range=input_range,
        priority=priority,
        max_retries=max_retries,
        name=name or suggested,
    )
    target = _client(server, state_dir)
    if target is not None:
        return target.submit(job)
    JobStore(state_dir).append(job)
    return job.id


def status(
    job_id: str,
    *,
    server: Optional[object] = None,
    state_dir: Optional[str] = None,
) -> Dict[str, object]:
    """The compact status row of one submitted job."""
    from repro.server.store import JobStore

    target = _client(server, state_dir)
    if target is not None:
        return target.status(job_id)
    jobs = JobStore(state_dir).replay()
    if job_id not in jobs:
        raise KeyError(f"unknown job id {job_id!r}")
    return jobs[job_id].summary()


def result(
    job_id: str,
    *,
    server: Optional[object] = None,
    state_dir: Optional[str] = None,
    wait: bool = True,
    timeout: Optional[float] = 60.0,
) -> Dict[str, object]:
    """The result payload of a job (blocking until terminal by default).

    For ``state_dir`` targets the store is re-read on a short poll loop
    (the serving process updates it); for in-process servers the call blocks
    on the server's completion condition.
    """
    from repro.server.jobs import JobState
    from repro.server.store import JobStore

    target = _client(server, state_dir)
    if target is not None:
        return target.result(job_id, wait=wait, timeout=timeout)
    deadline = None if timeout is None else time.monotonic() + timeout
    # One replay, then incremental polls: the serving process appends a few
    # records per job, so re-reading the whole log 20x/s would be O(polls x
    # log size) while waiting.
    store = JobStore(state_dir)
    jobs = store.replay()
    if job_id not in jobs:
        raise KeyError(f"unknown job id {job_id!r}")
    while True:
        job = jobs[job_id]
        if job.status is JobState.FAILED:
            raise RuntimeError(f"job {job_id} failed: {job.error}")
        if job.status is JobState.SHED:
            raise RuntimeError(f"job {job_id} was shed: {job.error}")
        if job.status is JobState.COMPLETED:
            return job.result or {}
        if not wait:
            raise RuntimeError(f"job {job_id} is {job.status.value}; pass wait=True")
        if deadline is not None and time.monotonic() >= deadline:
            raise TimeoutError(f"job {job_id} still {job.status.value} after {timeout}s")
        time.sleep(0.05)
        for fresh in store.poll():
            jobs[fresh.id] = fresh


@dataclass
class WorkloadRunOutcome:
    """One registered workload run end to end: batch outcome + oracle check."""

    #: The workload that ran (source, sampler, oracle, defaults).
    workload: object
    #: The underlying compile-once / execute-batch / verify outcome.
    outcome: BatchRunOutcome
    #: Expected outputs per input set, from the workload's oracle (falls
    #: back to the plaintext reference when no independent oracle exists).
    expected: List[List[int]]

    @property
    def oracle_correct(self) -> bool:
        """True when every executed output matches the workload's oracle."""
        return self.outcome.outputs == self.expected

    @property
    def all_correct(self) -> bool:
        """Reference verification of the underlying batch outcome."""
        return self.outcome.all_correct


def run_workload(
    workload: object,
    *,
    batch: int = 8,
    seed: int = 0,
    compiler: Union[str, CompilerSpec, object, None] = None,
    backend: Union[str, BackendSpec, object, None] = None,
    cache: Optional[CompilationCache] = None,
    cache_dir: Optional[str] = None,
    **options: object,
) -> WorkloadRunOutcome:
    """Run one registered workload end to end and check it against its oracle.

    ``workload`` is a registry name (``"dot-product"``; ``**options``
    forward to the workload factory, e.g. ``size=16``) or a built
    :class:`~repro.workloads.registry.Workload`.  The workload's default
    compiler and backend apply unless overridden.  ``batch`` input sets are
    sampled from per-item seeds spawned off ``seed``
    (:func:`derive_batch_seeds`), executed through :func:`execute_batch`,
    and compared against both the plaintext reference and the workload's
    expected-output oracle.
    """
    from repro.workloads.registry import get_workload

    resolved = get_workload(workload, **options)
    inputs = [
        sample_named_inputs(resolved.input_names, item_seed, resolved.input_range)
        for item_seed in derive_batch_seeds(seed, batch)
    ]
    outcome = execute_batch(
        resolved.source,
        inputs=inputs,
        compiler=compiler if compiler is not None else resolved.compiler,
        backend=backend if backend is not None else resolved.backend,
        name=resolved.name,
        cache=cache,
        cache_dir=cache_dir,
    )
    expected = [resolved.expected(item) for item in inputs]
    return WorkloadRunOutcome(workload=resolved, outcome=outcome, expected=expected)


def list_workloads() -> List[Dict[str, object]]:
    """Every registered workload: name, suite, description and defaults."""
    from repro.workloads.registry import available_workloads, workload_info

    rows = []
    for workload_name in available_workloads():
        info = workload_info(workload_name)
        built = info.build()
        rows.append(
            {
                "name": info.name,
                "suite": info.suite or built.suite,
                "description": info.description,
                "circuit": built.name,
                "inputs": len(built.input_names),
                "input_range": built.input_range,
                "compiler": built.compiler,
                "backend": built.backend,
                "has_oracle": built.oracle is not None,
            }
        )
    return rows


def run_study(
    study_dir: str,
    *,
    name: str = "system-ablation",
    kind: str = "server",
    components: Optional[Sequence[str]] = None,
    workloads: Optional[Sequence[str]] = None,
    replicates: int = 3,
    jobs_per_replicate: int = 8,
    seed: int = 0,
    resume: bool = False,
    max_runs: Optional[int] = None,
    resamples: int = 2000,
    progress: Optional[object] = None,
) -> Dict[str, object]:
    """Run (or resume) an ablation study and return its analysed report.

    A study executes one *baseline* condition plus one single-delta
    condition per component of its ``kind`` (:func:`list_components`),
    ``replicates`` runs each: a ``server`` run is a fresh
    :class:`~repro.server.server.JobServer` driving ``jobs_per_replicate``
    jobs over registered ``workloads``; a ``suite`` run compiles and
    executes the ``workloads`` kernels, replicate *r* training its agent
    with seed *r*.  Progress persists as JSONL
    under ``study_dir``, so an interrupted study picks up where it left off:
    call again with ``resume=True`` (the spec is reloaded from the study
    log) and finished replicates are skipped, not re-executed.

    The returned report carries per-condition metric summaries plus
    per-component importance scores — the relative change of the primary
    metric when the component is removed — with bootstrap confidence
    intervals and a most-important-first ranking
    (:func:`repro.studies.analysis.study_report`).  ``max_runs`` caps how
    many pending runs this call executes (the kill/resume tests use it);
    the report then covers only the recorded prefix and the payload's
    ``progress.complete`` is False.  A study directory this version cannot
    resume raises ValueError.
    """
    from repro.studies import StudyRunner, StudySpec, load_study_spec, study_report

    if resume:
        spec = load_study_spec(study_dir)
        if spec is None:
            raise ValueError(
                f"no resumable study under {study_dir!r} (missing study.jsonl header)"
            )
    else:
        spec = StudySpec(
            name=name,
            kind=kind,
            components=tuple(components) if components else (),
            workloads=tuple(workloads) if workloads else None,
            replicates=replicates,
            jobs_per_replicate=jobs_per_replicate,
            seed=seed,
        )
    runner = StudyRunner(spec, study_dir)
    outcome = runner.run(max_runs=max_runs, progress=progress)
    report = study_report(
        spec.as_dict(), runner.load_records(), seed=spec.seed, resamples=resamples
    )
    report["study_dir"] = study_dir
    report["progress"] = outcome.as_dict()
    return report


def list_components() -> List[Dict[str, object]]:
    """Every registered ablatable component: name, kind, description, overrides."""
    from repro.studies import available_components, get_component

    return [get_component(name).as_dict() for name in available_components()]


def list_compilers() -> List[Dict[str, str]]:
    """Every registered compiler: name, description and paper configuration."""
    rows = []
    for compiler_name in available_compilers():
        info = compiler_info(compiler_name)
        rows.append(
            {
                "name": info.name,
                "description": info.description,
                "paper_config": info.paper_config,
            }
        )
    return rows


def describe_compiler(compiler_name: str, **options: object) -> str:
    """The canonical, version-stamped cache identity of a configuration."""
    return CompilerSpec.create(compiler_name, **options).describe()


def list_backends() -> List[Dict[str, object]]:
    """Every registered execution backend: name, description, when to use."""
    rows = []
    for backend_name in available_backends():
        info = backend_info(backend_name)
        rows.append(
            {
                "name": info.name,
                "description": info.description,
                "use_when": info.use_when,
            }
        )
    return rows


def describe_backend(backend_name: str, **options: object) -> str:
    """The canonical, version-stamped identity of a backend configuration."""
    return BackendSpec.create(backend_name, **options).describe()


def analyze(
    source: Source,
    compiler: Union[str, CompilerSpec, object, None] = None,
    *,
    name: Optional[str] = None,
    degree: int = 1024,
    input_bounds: Optional[Sequence[int]] = None,
    **options: object,
) -> Tuple[CompilationReport, object]:
    """Statically verify one program end to end; returns ``(report, analysis)``.

    Two verifier families run (:mod:`repro.analysis`):

    * the **pipeline validators** — the compilation re-runs with
      ``verify=True``, so every pass of the compiler's
      :class:`~repro.compiler.framework.PassPipeline` is followed by the
      expression/circuit structural checks, findings attributed to the
      stage that introduced them;
    * the **tape verifier** — the circuit is compiled to the vector VM's
      executable tape and checked for register-arena safety, output
      coverage, reduction-schedule soundness under every input-magnitude
      bucket of ``input_bounds``, fusion legality and symbolic equivalence
      against the source circuit.

    The returned analysis is a merged
    :class:`~repro.analysis.AnalysisReport`; ``analysis.ok`` is False iff
    any ERROR finding surfaced.
    """
    from repro.analysis import AnalysisReport
    from repro.analysis.tape_check import DEFAULT_BOUNDS, verify_tape
    from repro.backends.tapeopt import compile_tape
    from repro.fhe.params import BFVParameters

    expr, suggested = to_expression(source)
    report = compile(
        expr,
        compiler,
        name=name or suggested or "circuit",
        verify=True,
        **options,
    )
    merged = AnalysisReport()
    if report.analysis is not None:
        merged.merge(report.analysis)
    tape = compile_tape(report.circuit, BFVParameters.default(degree))
    bounds = tuple(input_bounds) if input_bounds else DEFAULT_BOUNDS
    merged.merge(
        verify_tape(report.circuit, tape, input_bounds=bounds, location=report.name)
    )
    return report, merged


def lint(
    paths: Optional[Sequence[str]] = None, *, root: Optional[str] = None
) -> Tuple[object, int]:
    """Run the codebase concurrency/hygiene lint; ``(report, files_checked)``.

    Checks ``# guarded-by:`` lock discipline, wall-clock/unseeded-randomness
    use on deterministic paths, and Python hygiene (bare ``except``, mutable
    default arguments) over ``paths`` — by default the installed ``repro``
    package itself (:func:`repro.analysis.lint.default_target`).
    """
    from repro.analysis.lint import lint_paths

    return lint_paths(paths, root=root)
