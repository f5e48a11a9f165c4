"""The mixed-traffic load generator over the workload registry.

Realistic serving traffic is not one kernel at a time: it is a *mix* of
scenarios arriving on their own clock, with different priorities and
per-workload compiler/backend choices.  That regime is exactly where the
server's queue-level coalescing (its only scheduling; execution then runs
the coalesced jobs serially, in input order) earns its keep — and where its
bookkeeping bugs hide.  This module
generates such traffic deterministically and drives the *same* schedule
down both execution paths:

* :func:`run_server_traffic` — submit every arrival to a
  :class:`~repro.server.server.JobServer` (open-loop: arrivals never wait
  for completions) and collect results plus telemetry: throughput, wait and
  run-latency histograms, coalescing rates;
* :func:`run_direct_traffic` — the same arrivals through direct
  ``api.execute_batch`` calls, one batch per (workload, compiler, backend)
  group.

For overload studies, :func:`generate_overload_schedule` scales an arrival
rate to a deliberate multiple of measured capacity, and
:class:`TrafficReport` separates *goodput* (SLO-meeting completions per
second) from raw throughput, counting shed and failed jobs explicitly —
the axes ``scripts/bench_overload.py`` plots shedding on/off against.

Because both paths draw inputs from the same per-arrival seeds through
:func:`~repro.api.sample_named_inputs`, their outputs must be
**bit-identical** — the smoke script and ``BENCH_workloads.json`` assert
exactly that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.workloads.registry import Workload, build_workload

__all__ = [
    "MixEntry",
    "Arrival",
    "TrafficReport",
    "default_mix",
    "overload_mix",
    "generate_schedule",
    "generate_overload_schedule",
    "run_server_traffic",
    "run_direct_traffic",
    "benchmark_workloads",
    "summarize_benchmark",
    "benchmark_problems",
]


@dataclass(frozen=True)
class MixEntry:
    """One component of a traffic mix."""

    workload: str
    #: Relative arrival weight within the mix.
    weight: float = 1.0
    #: Job priority (higher runs earlier on the server).
    priority: int = 0
    #: Compiler override (None follows the workload's default).
    compiler: Optional[str] = None
    #: Backend override (None follows the workload's default).
    backend: Optional[str] = None
    #: Workload factory options, as a hashable sorted tuple.
    options: Tuple[Tuple[str, object], ...] = ()


@dataclass
class Arrival:
    """One scheduled job: a workload instance arriving at ``at_s``."""

    index: int
    at_s: float
    entry: MixEntry
    workload: Workload
    #: Per-arrival input seed (spawned via ``derive_batch_seeds``).
    seed: int

    @property
    def compiler(self) -> str:
        return self.entry.compiler or self.workload.compiler

    @property
    def backend(self) -> str:
        return self.entry.backend or self.workload.backend

    def inputs(self) -> Dict[str, int]:
        return self.workload.sample_inputs(self.seed)

    def group_key(self) -> Tuple[str, str, str]:
        """Batching key: arrivals sharing it run as one direct batch."""
        return (self.workload.name, self.compiler, self.backend)


@dataclass
class TrafficReport:
    """What one pass of a schedule produced, on either path."""

    path: str
    jobs: int
    wall_s: float
    #: Completed arrivals whose outputs matched the plaintext reference.
    correct: int
    #: Arrival count per workload name.
    per_workload: Dict[str, int] = field(default_factory=dict)
    #: Declared outputs per arrival, in arrival order (empty for arrivals
    #: that were shed or failed).
    outputs: List[List[int]] = field(default_factory=list)
    #: Arrival indices whose outputs disagreed with the workload oracle.
    oracle_mismatches: List[int] = field(default_factory=list)
    #: Server telemetry snapshot (empty on the direct path).
    telemetry: Dict[str, object] = field(default_factory=dict)
    #: Terminal-status counts (direct-path jobs always complete).
    completed: int = 0
    shed: int = 0
    failed: int = 0
    #: Completed jobs whose queue wait met their priority's SLO budget.
    #: ``None`` when the run had no SLO policy in force.
    slo_ok: Optional[int] = None

    @property
    def throughput_jobs_per_s(self) -> float:
        if self.wall_s <= 0.0:
            return 0.0
        return self.jobs / self.wall_s

    @property
    def goodput_jobs_per_s(self) -> float:
        """Useful completions per second: SLO-meeting ones under a policy,
        all completions otherwise.  Shed and failed jobs never count."""
        if self.wall_s <= 0.0:
            return 0.0
        good = self.completed if self.slo_ok is None else self.slo_ok
        return good / self.wall_s

    @property
    def coalescing(self) -> Dict[str, float]:
        """Batch-coalescing rates derived from the telemetry counters."""
        counters = self.telemetry.get("counters", {})
        batches = float(counters.get("batches_total", 0))
        coalesced = float(counters.get("batches_coalesced", 0))
        coalesced_jobs = float(counters.get("coalesced_jobs", 0))
        return {
            "batches_total": batches,
            "batches_coalesced": coalesced,
            "coalesced_jobs": coalesced_jobs,
            "batch_coalescing_rate": coalesced / batches if batches else 0.0,
            "job_coalescing_rate": coalesced_jobs / self.jobs if self.jobs else 0.0,
        }

    def histogram(self, name: str) -> Dict[str, object]:
        """One latency histogram from the telemetry snapshot (or empty)."""
        return dict(self.telemetry.get("histograms", {}).get(name, {}))

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "path": self.path,
            "jobs": self.jobs,
            "wall_s": self.wall_s,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "goodput_jobs_per_s": self.goodput_jobs_per_s,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "correct": self.correct,
            "per_workload": dict(sorted(self.per_workload.items())),
            "oracle_mismatches": list(self.oracle_mismatches),
        }
        if self.slo_ok is not None:
            payload["slo_ok"] = self.slo_ok
        if self.telemetry:
            from repro.server.telemetry import percentile_from_snapshot

            payload["coalescing"] = self.coalescing
            payload["wait_histogram_s"] = self.histogram("job_wait_s")
            payload["run_histogram_s"] = self.histogram("job_run_s")
            for stem in ("wait", "run"):
                snapshot = payload[f"{stem}_histogram_s"]
                if snapshot:
                    for q in (0.50, 0.99):
                        payload[f"{stem}_p{int(q * 100)}_s"] = (
                            percentile_from_snapshot(snapshot, q)
                        )
        return payload


def default_mix() -> List[MixEntry]:
    """A representative mixed-traffic composition over the registry.

    A popular kernel dominating the stream (the coalescer's bread and
    butter), medium-weight kernels from the other suites, and two
    high-priority interactive scenarios — the NN layer and the Max tree —
    cutting the queue.
    """
    return [
        MixEntry("dot-product", weight=4.0),
        MixEntry("matrix-multiply", weight=2.0),
        MixEntry("box-blur", weight=2.0),
        MixEntry("l2-distance", weight=1.0),
        MixEntry("hamming-distance", weight=1.0),
        MixEntry("sort-network", weight=1.0),
        MixEntry("tree-ensemble", weight=1.0, options=(("depth", 3), ("trees", 2))),
        MixEntry("nn-linear", weight=2.0, priority=1),
        MixEntry("max-tree", weight=1.0, priority=1),
    ]


def overload_mix() -> List[MixEntry]:
    """A mix tuned for overload experiments: small, fast kernels so the
    bench can push the server far past capacity quickly, with a clearly
    separated top-priority class whose SLO the hardened server must keep
    while it sheds the background classes."""
    return [
        MixEntry("dot-product", weight=4.0),
        MixEntry("l2-distance", weight=2.0),
        MixEntry("hamming-distance", weight=2.0),
        MixEntry("nn-linear", weight=1.0, priority=2),
        MixEntry("max-tree", weight=1.0, priority=2),
    ]


def generate_schedule(
    mix: Sequence[MixEntry],
    jobs: int,
    *,
    seed: int = 0,
    rate: Optional[float] = None,
) -> List[Arrival]:
    """An open-loop arrival schedule of ``jobs`` draws from ``mix``.

    Workloads are drawn with probability proportional to their weights and
    arrival times follow a Poisson process of ``rate`` jobs/second
    (``rate=None`` means a burst: everything arrives at t=0).  Per-arrival
    input seeds come from :func:`~repro.api.derive_batch_seeds`, so the
    schedule's inputs are decorrelated across arrivals *and* across base
    seeds, and any consumer (server or direct) samples identical inputs.
    """
    from repro.api import derive_batch_seeds

    if jobs < 1:
        raise ValueError("a schedule needs at least one job")
    entries = list(mix)
    if not entries:
        raise ValueError("the traffic mix is empty")
    weights = np.array([entry.weight for entry in entries], dtype=np.float64)
    if np.any(weights <= 0.0):
        raise ValueError("mix weights must be positive")
    rng = np.random.default_rng(seed)
    choices = rng.choice(len(entries), size=jobs, p=weights / weights.sum())
    if rate is not None:
        if rate <= 0.0:
            raise ValueError("rate must be positive (or None for a burst)")
        at_s = np.cumsum(rng.exponential(1.0 / rate, size=jobs))
    else:
        at_s = np.zeros(jobs)
    seeds = derive_batch_seeds(seed, jobs)
    built: Dict[int, Workload] = {}
    schedule: List[Arrival] = []
    for index in range(jobs):
        entry = entries[int(choices[index])]
        workload = built.get(int(choices[index]))
        if workload is None:
            workload = build_workload(entry.workload, **dict(entry.options))
            built[int(choices[index])] = workload
        schedule.append(
            Arrival(
                index=index,
                at_s=float(at_s[index]),
                entry=entry,
                workload=workload,
                seed=seeds[index],
            )
        )
    return schedule


def generate_overload_schedule(
    mix: Sequence[MixEntry],
    jobs: int,
    *,
    capacity_jobs_per_s: float,
    overload_factor: float = 2.0,
    seed: int = 0,
) -> List[Arrival]:
    """An open-loop schedule arriving at a multiple of measured capacity.

    ``capacity_jobs_per_s`` is the server's measured service rate (e.g. a
    burst drain timed by the bench) and ``overload_factor`` how far past it
    to push: 2.0 offers twice what the server can drain, so an unbounded
    queue grows without limit while a hardened one sheds.  Factors below
    1.0 are allowed — the bench uses them for the underload control rows.
    """
    if capacity_jobs_per_s <= 0.0:
        raise ValueError("capacity_jobs_per_s must be positive")
    if overload_factor <= 0.0:
        raise ValueError("overload_factor must be positive")
    return generate_schedule(
        mix, jobs, seed=seed, rate=capacity_jobs_per_s * overload_factor
    )


def _finalize(
    report: TrafficReport, schedule: Sequence[Arrival], check_oracle: bool
) -> TrafficReport:
    """Fill per-workload counts and oracle mismatches from the outputs."""
    for arrival in schedule:
        name = arrival.workload.name
        report.per_workload[name] = report.per_workload.get(name, 0) + 1
    if check_oracle:
        for arrival in schedule:
            outputs = report.outputs[arrival.index]
            if not outputs:
                continue  # shed or failed: nothing decrypted
            if list(outputs) != list(arrival.workload.expected(arrival.inputs())):
                report.oracle_mismatches.append(arrival.index)
    return report


def run_server_traffic(
    schedule: Sequence[Arrival],
    *,
    server: Optional[object] = None,
    state_dir: Optional[str] = None,
    compiler: str = "greedy",
    check_oracle: bool = True,
    result_timeout: float = 300.0,
) -> TrafficReport:
    """Drive a schedule through the job-orchestration server.

    With timed arrivals the serving loop runs in the background and
    submissions sleep until their arrival instant (open loop: an arrival
    never waits for earlier completions).  A burst schedule (all ``at_s``
    zero) is submitted up front and drained in coalesced ticks — the
    deterministic mode the smoke tests assert coalescing on.  Pass an
    existing ``server`` to reuse one (it is left running); otherwise one is
    created over ``state_dir`` and closed before returning.

    The collector tolerates overload: jobs the server shed (bounded queue
    or admission control) or failed are counted in ``TrafficReport.shed`` /
    ``.failed`` with empty outputs, and when the server carries an
    :class:`~repro.server.telemetry.SLOPolicy`, completions are scored
    against their priority's wait budget into ``slo_ok`` — the numerator of
    ``goodput_jobs_per_s``.
    """
    from repro.server.jobs import Job, JobState
    from repro.server.server import JobServer

    owned = server is None
    if server is None:
        server = JobServer(state_dir, compiler=compiler)
    open_loop = any(arrival.at_s > 0.0 for arrival in schedule)
    job_ids: List[str] = []
    start = time.perf_counter()
    try:
        if open_loop:
            server.start()
        for arrival in schedule:
            if open_loop:
                lag = arrival.at_s - (time.perf_counter() - start)
                if lag > 0.0:
                    time.sleep(lag)
            job_ids.append(
                server.submit(
                    Job(
                        source=arrival.workload.source,
                        compiler=arrival.compiler,
                        backend=arrival.backend,
                        seed=arrival.seed,
                        input_range=arrival.workload.input_range,
                        priority=arrival.entry.priority,
                        name=f"{arrival.workload.name}/{arrival.index}",
                    )
                )
            )
        if open_loop:
            for job_id in job_ids:
                try:
                    server.result(job_id, wait=True, timeout=result_timeout)
                except RuntimeError:
                    pass  # shed or failed: classified below by status
            server.stop()
        else:
            server.drain()
        wall_s = time.perf_counter() - start

        report = TrafficReport(
            path="server",
            jobs=len(schedule),
            wall_s=wall_s,
            correct=0,
            telemetry=server.telemetry.snapshot(),
        )
        policy = getattr(server, "slo", None)
        slo_ok = 0 if policy is not None else None
        for job_id in job_ids:
            job = server.get(job_id)
            if job.status is JobState.SHED:
                report.shed += 1
                report.outputs.append([])
                continue
            if job.status is not JobState.COMPLETED:
                report.failed += 1
                report.outputs.append([])
                continue
            report.completed += 1
            if policy is not None:
                budget = policy.wait_budget(job.priority)
                wait_s = (job.started_at or job.submitted_at) - job.submitted_at
                if budget is None or wait_s <= budget:
                    slo_ok += 1
            payload = server.result(job_id)
            outputs = payload.get("outputs") or [[]]
            report.outputs.append(list(outputs[0]))
            if payload["correct"]:
                report.correct += 1
        report.slo_ok = slo_ok
    finally:
        if owned:
            server.close()
    return _finalize(report, schedule, check_oracle)


def run_direct_traffic(
    schedule: Sequence[Arrival],
    *,
    cache: Optional[object] = None,
    check_oracle: bool = True,
) -> TrafficReport:
    """The same schedule through direct ``api.execute_batch`` calls.

    Arrivals are grouped by (workload, compiler, backend) — the best the
    facade can do without a queue — compiled once per group and executed as
    one backend batch, with outputs fanned back to arrival order.  This is
    the reference path the server's results must be bit-identical to.
    """
    from repro import api

    groups: Dict[Tuple[str, str, str], List[Arrival]] = {}
    for arrival in schedule:
        groups.setdefault(arrival.group_key(), []).append(arrival)

    outputs: List[List[int]] = [[] for _ in schedule]
    correct = 0
    start = time.perf_counter()
    for members in groups.values():
        head = members[0]
        outcome = api.execute_batch(
            head.workload.source,
            inputs=[arrival.inputs() for arrival in members],
            compiler=head.compiler,
            backend=head.backend,
            name=head.workload.name,
            cache=cache,
        )
        for position, arrival in enumerate(members):
            outputs[arrival.index] = list(outcome.outputs[position])
            if outcome.outputs[position] == outcome.references[position]:
                correct += 1
    wall_s = time.perf_counter() - start
    report = TrafficReport(
        path="direct",
        jobs=len(schedule),
        wall_s=wall_s,
        correct=correct,
        outputs=outputs,
        completed=len(schedule),
    )
    return _finalize(report, schedule, check_oracle)


#: Workload set the committed benchmark covers (>= 5, spanning all suites).
DEFAULT_BENCH_WORKLOADS = (
    "dot-product",
    "box-blur",
    "matrix-multiply",
    "max-tree",
    "hamming-distance",
    "tree-ensemble",
    "nn-linear",
)


def benchmark_workloads(
    names: Optional[Sequence[str]] = None,
    *,
    backends: Sequence[str] = ("reference", "vector-vm"),
    batch: int = 16,
    traffic_jobs: int = 60,
    rate: Optional[float] = None,
    seed: int = 0,
) -> Dict[str, object]:
    """The payload behind ``BENCH_workloads.json`` / ``bench-workloads``.

    Two sections:

    * ``per_workload`` — each named workload executed as one ``batch`` on
      every backend, via direct ``api.execute_batch`` *and* via a dedicated
      ``JobServer`` fed the same per-item seeds; the row records both
      throughputs and asserts the two paths' outputs are bit-identical;
    * ``mixed_traffic`` — the :func:`default_mix` schedule pushed through
      the server and the direct path, with telemetry-derived wait/run
      histograms and coalescing rates.
    """
    import repro
    from repro import api
    from repro.server.jobs import Job
    from repro.server.server import JobServer

    rows: List[Dict[str, object]] = []
    for name in names or DEFAULT_BENCH_WORKLOADS:
        workload = build_workload(name)
        report = api.compile(workload.source, workload.compiler, name=workload.name)
        item_seeds = api.derive_batch_seeds(seed, batch)
        inputs = [workload.sample_inputs(item_seed) for item_seed in item_seeds]
        expected = [workload.expected(item) for item in inputs]
        for backend in backends:
            direct_start = time.perf_counter()
            outcome = api.execute_batch(report, inputs=inputs, backend=backend)
            direct_wall = time.perf_counter() - direct_start

            server = JobServer(backend=backend, compiler=workload.compiler)
            try:
                # Warm the server's compile memo outside the timed window —
                # the direct path runs on a precompiled report, so the timed
                # comparison must cover execution + orchestration on both
                # sides, not compilation on one.
                server.submit(
                    Job(
                        source=workload.source,
                        compiler=workload.compiler,
                        seed=10_000,
                        input_range=workload.input_range,
                        name=f"{workload.name}/warmup",
                    )
                )
                server.drain()
                job_ids = [
                    server.submit(
                        Job(
                            source=workload.source,
                            compiler=workload.compiler,
                            seed=item_seed,
                            input_range=workload.input_range,
                            name=workload.name,
                        )
                    )
                    for item_seed in item_seeds
                ]
                server_start = time.perf_counter()
                server.drain()
                server_wall = time.perf_counter() - server_start
                server_outputs = [
                    list((server.result(job_id).get("outputs") or [[]])[0])
                    for job_id in job_ids
                ]
                counters = server.telemetry.snapshot()["counters"]
            finally:
                server.close()

            rows.append(
                {
                    "workload": workload.name,
                    "registered_as": name,
                    "suite": workload.suite,
                    "compiler": workload.compiler,
                    "backend": backend,
                    "batch": batch,
                    "all_correct": outcome.all_correct,
                    "oracle_correct": outcome.outputs == expected,
                    "direct_wall_s": direct_wall,
                    "direct_throughput_per_s": (
                        batch / direct_wall if direct_wall > 0 else 0.0
                    ),
                    "server_wall_s": server_wall,
                    "server_throughput_per_s": (
                        batch / server_wall if server_wall > 0 else 0.0
                    ),
                    "server_bit_identical": server_outputs == outcome.outputs,
                    "server_coalesced_jobs": counters.get("coalesced_jobs", 0),
                }
            )

    schedule = generate_schedule(default_mix(), traffic_jobs, seed=seed, rate=rate)
    server_report = run_server_traffic(schedule)
    direct_report = run_direct_traffic(schedule)
    return {
        "version": repro.__version__,
        "seed": seed,
        "backends": list(backends),
        "per_workload": rows,
        "mixed_traffic": {
            "jobs": traffic_jobs,
            "rate_jobs_per_s": rate,
            "mix": [
                {
                    "workload": entry.workload,
                    "weight": entry.weight,
                    "priority": entry.priority,
                    "options": dict(entry.options),
                }
                for entry in default_mix()
            ],
            "server": server_report.as_dict(),
            "direct": direct_report.as_dict(),
            "bit_identical": server_report.outputs == direct_report.outputs,
            "server_speedup_vs_direct": (
                direct_report.wall_s / server_report.wall_s
                if server_report.wall_s > 0
                else 0.0
            ),
        },
    }


def summarize_benchmark(payload: Mapping[str, object]) -> List[str]:
    """Human-readable lines for a :func:`benchmark_workloads` payload.

    The single renderer behind both front-ends (``repro bench-workloads``
    and ``scripts/bench_workloads.py``), so the table cannot drift between
    them.
    """
    lines = [
        f"{row['workload']:<24} {row['backend']:<10} "
        f"direct {row['direct_throughput_per_s']:8.1f}/s  "
        f"server {row['server_throughput_per_s']:8.1f}/s  "
        f"identical={row['server_bit_identical']}  correct={row['all_correct']}"
        for row in payload["per_workload"]
    ]
    traffic = payload["mixed_traffic"]
    lines.append(
        f"mixed traffic: {traffic['jobs']} jobs  server "
        f"{traffic['server']['throughput_jobs_per_s']:.1f}/s  direct "
        f"{traffic['direct']['throughput_jobs_per_s']:.1f}/s  coalesced "
        f"{traffic['server']['coalescing']['job_coalescing_rate']:.0%}  "
        f"bit_identical={traffic['bit_identical']}"
    )
    return lines


def benchmark_problems(
    payload: Mapping[str, object],
    *,
    min_workloads: int = 5,
    min_backends: int = 2,
) -> List[str]:
    """Acceptance-bar violations of a :func:`benchmark_workloads` payload.

    Empty means the payload passes: enough workload/backend coverage, every
    row bit-identical across the server and direct paths, every verified
    output correct (reference *and* oracle), and a coalescing mixed-traffic
    pass.  Shared by the ``--check`` mode of ``scripts/bench_workloads.py``
    and the exit status of ``repro bench-workloads``.
    """
    rows = payload["per_workload"]
    problems: List[str] = []
    workload_names = {row["workload"] for row in rows}
    backend_names = {row["backend"] for row in rows}
    if len(workload_names) < min_workloads:
        problems.append(
            f"only {len(workload_names)} workloads covered, need >= {min_workloads}"
        )
    if len(backend_names) < min_backends:
        problems.append(
            f"only {len(backend_names)} backends covered, need >= {min_backends}"
        )
    for row in rows:
        if not row["server_bit_identical"]:
            problems.append(f"{row['workload']}/{row['backend']}: server differs")
        if not row["all_correct"]:
            problems.append(f"{row['workload']}/{row['backend']}: incorrect outputs")
        if not row["oracle_correct"]:
            problems.append(f"{row['workload']}/{row['backend']}: oracle mismatch")
    traffic = payload["mixed_traffic"]
    if not traffic["bit_identical"]:
        problems.append("mixed traffic: server and direct outputs differ")
    if traffic["server"]["oracle_mismatches"] or traffic["direct"]["oracle_mismatches"]:
        problems.append("mixed traffic: oracle mismatches")
    if traffic["server"]["coalescing"]["batches_coalesced"] <= 0:
        problems.append("mixed traffic: server coalesced nothing")
    return problems
