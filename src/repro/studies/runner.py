"""The study runner: executes a run matrix, resumably.

:class:`StudyRunner` takes a :class:`~repro.studies.spec.StudySpec` and a
study directory and works through :func:`~repro.studies.spec.generate_runs`
one run at a time.  A ``suite`` run calls :func:`repro.studies.suite.run_suite`.
A ``server`` run gets its own :class:`~repro.server.server.JobServer`
with a private persistent state dir under ``<study_dir>/runs/<run_id>``, so
every run reuses the production stack end to end — priority queue,
coalescer, telemetry, compilation cache, crash-recovering JSONL job store —
under exactly the knob settings its :class:`~repro.studies.spec.RunConfig`
declares.

Study progress is itself persisted as JSONL (``<study_dir>/study.jsonl``):
one ``{"type": "spec"}`` header pinning the spec, then one
``{"type": "run"}`` record per *finished* replicate carrying its harvested
metrics.  A record is appended (and fsynced) only after its run completes,
so killing a study mid-run loses at most the in-flight replicate:
:meth:`StudyRunner.run` on the same directory skips every recorded run and
re-executes only the remainder — and re-started server runs first wipe
their private state dir, so a half-written job store can never leak stale
jobs into the retry.

A header this version cannot parse raises one ValueError.

Server metrics are harvested from three places: completed job ``result``
payloads (:class:`~repro.compiler.executor.ExecutionReport` fields — model
latency, noise budget, verification), the server's telemetry snapshot
(counters and wait/run histograms, percentiles via
:func:`~repro.server.telemetry.percentile_from_snapshot`) and the
compilation-cache statistics.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.server.jobs import Job
from repro.server.server import JobServer
from repro.server.telemetry import percentile_from_snapshot
from repro.service.cache import CompilationCache
from repro.studies.spec import BASELINE, RunSpec, StudySpec, generate_runs
from repro.workloads.registry import get_workload

__all__ = ["StudyRunner", "StudyProgress", "load_study_spec"]

STUDY_LOG = "study.jsonl"


@dataclass
class StudyProgress:
    """Outcome of one :meth:`StudyRunner.run` call."""

    executed: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    remaining: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.remaining

    def as_dict(self) -> Dict[str, object]:
        return {
            "executed": list(self.executed),
            "skipped": list(self.skipped),
            "remaining": list(self.remaining),
            "complete": self.complete,
        }


class StudyRunner:
    """Executes (and resumes) one study inside ``study_dir``."""

    def __init__(self, spec: StudySpec, study_dir: str) -> None:
        self.spec = spec
        self.study_dir = study_dir
        self.log_path = os.path.join(study_dir, STUDY_LOG)
        os.makedirs(study_dir, exist_ok=True)

    # -- persistent state ---------------------------------------------------
    def load_records(self) -> List[Dict[str, object]]:
        """Every intact record in the study log, in append order."""
        return _read_log(self.study_dir)

    def completed_runs(self) -> Dict[str, Dict[str, object]]:
        """Finished run records keyed by ``run_id`` (latest wins)."""
        completed: Dict[str, Dict[str, object]] = {}
        for record in self.load_records():
            if record.get("type") == "run" and record.get("status") == "completed":
                completed[str(record["run_id"])] = record
        return completed

    def _append(self, record: Mapping[str, object]) -> None:
        with open(self.log_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _check_spec(self) -> None:
        """Refuse to resume a directory recorded under a different spec.

        The header is compared as a parsed spec, so a header written before
        a field existed still matches the spec it describes.
        """
        recorded = load_study_spec(self.study_dir)
        if recorded is None:
            self._append({"type": "spec", "study": self.spec.name, "spec": self.spec.as_dict()})
        elif recorded.as_dict() != self.spec.as_dict():
            raise ValueError(
                f"study dir {self.study_dir!r} was started with a "
                "different spec; use a fresh directory or the "
                "original spec"
            )

    # -- execution ----------------------------------------------------------
    def run(
        self,
        max_runs: Optional[int] = None,
        progress: Optional[Callable[[RunSpec, Dict[str, object]], None]] = None,
    ) -> StudyProgress:
        """Execute pending runs (all of them unless ``max_runs`` caps it).

        Already-recorded runs are skipped without touching their server
        state.  ``progress`` (if given) is called with each finished
        ``(RunSpec, record)`` pair — the CLI uses it for per-run lines.
        """
        self._check_spec()
        runs = generate_runs(self.spec)
        done = self.completed_runs()
        outcome = StudyProgress()
        budget = len(runs) if max_runs is None else max(int(max_runs), 0)
        warmed = False
        for run in runs:
            if run.run_id in done:
                outcome.skipped.append(run.run_id)
                continue
            if len(outcome.executed) >= budget:
                outcome.remaining.append(run.run_id)
                continue
            if not warmed and self.spec.kind == "server":
                self._warmup()
                warmed = True
            record = self._execute_run(run)
            self._append(record)
            outcome.executed.append(run.run_id)
            if progress is not None:
                progress(run, record)
        return outcome

    def run_dir(self, run: RunSpec) -> str:
        return os.path.join(self.study_dir, "runs", run.run_id.replace("/", "_"))

    def _warmup(self) -> None:
        """Unrecorded throwaway runs soaking up process cold-start cost.

        Executed once per :meth:`run` session, right before the first run
        that will actually execute (a resume that skips everything never
        pays it).  Results are discarded and the state dir removed — the
        only purpose is warming imports, allocators and compiler paths so
        the first *recorded* run isn't systematically inflated.
        """
        baseline = self.spec.baseline_config()
        for index in range(max(self.spec.warmup_runs, 0)):
            seed_seq = np.random.SeedSequence([self.spec.seed, 0xAB1A7E, index])
            warmup = RunSpec(
                run_id=f"_warmup/w{index}",
                condition=BASELINE,
                replicate=index,
                seed=int(seed_seq.generate_state(1, np.uint32)[0]),
                config=baseline,
            )
            self._execute_run(warmup)
            shutil.rmtree(self.run_dir(warmup), ignore_errors=True)

    def _execute_run(self, run: RunSpec) -> Dict[str, object]:
        """Execute one replicate and build its run record."""
        if self.spec.kind == "suite":
            from repro.studies.suite import run_suite

            start = time.perf_counter()
            metrics = run_suite(self.spec.workloads, run.config, run.seed)
            outcome = {"wall_time_s": time.perf_counter() - start, "metrics": metrics}
        else:
            outcome = self._run_on_server(run)
        record = dict(run.as_dict(), **outcome, type="run", status="completed", study=self.spec.name)
        record["finished_at"] = time.time()  # lint: allow(wall-clock) — run metadata, never seeds anything
        return record

    def _run_on_server(self, run: RunSpec) -> Dict[str, object]:
        """Execute one replicate on a fresh private JobServer."""
        state_dir = self.run_dir(run)
        # A previous attempt at this run may have died mid-flight; its
        # half-written store must not requeue stale jobs into the retry.
        shutil.rmtree(state_dir, ignore_errors=True)
        config = run.config
        server = JobServer(
            state_dir=state_dir,
            cache=CompilationCache(capacity=config.cache_capacity),
            admission=config.admission,
            coalesce=config.coalesce,
            tracing=config.tracing,
        )
        try:
            jobs = self._build_jobs(run)
            start = time.perf_counter()
            job_ids = [server.submit(job) for job in jobs]
            server.drain()
            wall_time_s = time.perf_counter() - start
            metrics = self._harvest(server, job_ids, wall_time_s)
        finally:
            server.close()
        return {"wall_time_s": wall_time_s, "jobs": len(job_ids), "metrics": metrics}

    def _build_jobs(self, run: RunSpec) -> List[Job]:
        """The job list of one replicate, seeded from the run seed.

        Per-job seeds are spawned from the run's ``SeedSequence`` (the same
        derivation ``api.derive_batch_seeds`` uses), workloads and
        priorities cycle round-robin, and each job inherits the workload's
        registered compiler/backend unless the run config overrides them.
        """
        spec = self.spec
        children = np.random.SeedSequence(run.seed).spawn(spec.jobs_per_replicate)
        jobs: List[Job] = []
        for index, child in enumerate(children):
            workload = get_workload(spec.workloads[index % len(spec.workloads)])
            jobs.append(
                Job(
                    kind="execute",
                    source=workload.source,
                    compiler=run.config.compiler or workload.compiler,
                    backend=run.config.backend or workload.backend,
                    seed=int(child.generate_state(1, np.uint32)[0]),
                    input_range=workload.input_range,
                    priority=spec.priorities[index % len(spec.priorities)],
                    name=f"{run.run_id}/{workload.name}-{index}",
                )
            )
        return jobs

    def _harvest(
        self, server: JobServer, job_ids: List[str], wall_time_s: float
    ) -> Dict[str, float]:
        """Fold job results, telemetry and cache stats into one flat dict."""
        snapshot = server.telemetry.snapshot()
        counters = snapshot.get("counters", {})
        histograms = snapshot.get("histograms", {})

        completed = failed = 0
        latencies: List[float] = []
        correct = 0
        for job_id in job_ids:
            job = server.get(job_id)
            if job.status.value == "completed":
                completed += 1
                result = job.result or {}
                latency = result.get("latency_ms")
                if isinstance(latency, (int, float)):
                    latencies.append(float(latency))
                if result.get("correct"):
                    correct += 1
            elif job.status.value == "failed":
                failed += 1

        def hist_mean(name: str) -> float:
            payload = histograms.get(name, {})
            count = payload.get("count", 0)
            return float(payload.get("sum", 0.0)) / count if count else 0.0

        def hist_percentile(name: str, q: float) -> float:
            payload = histograms.get(name)
            return percentile_from_snapshot(payload, q) if payload else 0.0

        execute_jobs = float(counters.get("execute_jobs", 0.0))
        memo_hits = float(counters.get("circuit_memo_hits", 0.0))
        memo_lookups = memo_hits + float(counters.get("circuit_memo_misses", 0.0))
        cache_stats = server.cache.stats.as_dict() if server.cache is not None else {}
        metrics: Dict[str, float] = {
            "jobs_submitted": float(len(job_ids)),
            "jobs_completed": float(completed),
            "jobs_failed": float(failed),
            "jobs_shed": float(counters.get("jobs_shed", 0.0)),
            "throughput_jobs_per_s": completed / wall_time_s if wall_time_s > 0 else 0.0,
            "mean_wait_s": hist_mean("job_wait_s"),
            "mean_run_s": hist_mean("job_run_s"),
            "p50_run_s": hist_percentile("job_run_s", 0.5),
            "p99_run_s": hist_percentile("job_run_s", 0.99),
            "p50_wait_s": hist_percentile("job_wait_s", 0.5),
            "p99_wait_s": hist_percentile("job_wait_s", 0.99),
            "coalesced_fraction": (
                float(counters.get("coalesced_jobs", 0.0)) / execute_jobs
                if execute_jobs
                else 0.0
            ),
            "cache_hit_rate": float(cache_stats.get("hit_rate", 0.0)),
            "cache_hits": float(cache_stats.get("hits", 0.0)),
            "cache_misses": float(cache_stats.get("misses", 0.0)),
            # The hot-path circuit memo is the first caching tier; repeats it
            # absorbs never reach the CompilationCache, so its hit rate is
            # the one the compile-cache ablation actually moves.
            "memo_hit_rate": memo_hits / memo_lookups if memo_lookups else 0.0,
            "mean_latency_ms": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "correct_fraction": correct / completed if completed else 0.0,
        }
        return metrics


def _read_log(study_dir: str) -> List[Dict[str, object]]:
    """Every intact record in a study log, in append order.

    A torn final line (the kill arrived mid-append) is ignored, exactly
    like the job store seals torn tails.
    """
    path = os.path.join(study_dir, STUDY_LOG)
    if not os.path.exists(path):
        return []
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:  # blank or torn line
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def load_study_spec(study_dir: str) -> Optional[StudySpec]:
    """The spec a study directory was started with, or None if no header.

    This is what lets ``study resume``/``study report`` work from the
    directory alone — the JSONL header pins the exact spec, so the resumed
    matrix (and its seeds) is identical to the original.  A header this
    version cannot run (a configuration field or component it does not
    know) raises ValueError.
    """
    for record in _read_log(study_dir):
        if record.get("type") == "spec":
            try:
                spec = StudySpec.from_dict(record.get("spec") or {})
                spec.component_names()
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"study dir {study_dir!r} holds a spec this version cannot run "
                    f"({exc.args[0] if exc.args else exc}); start a fresh --study-dir"
                ) from None
            return spec
    return None
