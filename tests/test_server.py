"""Tests of the job-orchestration server.

Covers the job model (JSON round-trip; every job carries a source), the
persistent JSONL store (replay, cross-process polling, compaction, crash
recovery), the priority queue, the batch coalescer, the :class:`JobServer`
lifecycle (mixed workloads, coalescing telemetry, retries, priorities,
background serving, per-job input validation), the ``repro.api`` client
surface (``serve``/``submit``/``status``/``result``, with server results
matching ``api.execute_batch`` on outputs and FHE accounting), the server
CLI, admission control and the ``seed``/``input_range`` parameters of
``api.execute``/``api.execute_batch``.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

import repro
from repro import api
from repro.__main__ import main as cli_main
from repro.compiler import build_compiler
from repro.fhe.params import BFVParameters
from repro.ir.parser import parse
from repro.ir.printer import to_sexpr
from repro.kernels.registry import benchmark_by_name
from repro.server import (
    Job,
    JobQueue,
    JobServer,
    JobState,
    JobStore,
    MetricsRegistry,
    coalesce,
)
from repro.service import CompilationCache
from repro.server.telemetry import (
    Histogram,
    SLOClass,
    SLOPolicy,
    SLOTracker,
    percentile_from_snapshot,
)

PARAMS = BFVParameters.default(1024)
SOURCE = "(* (+ a b) (+ c d))"


@pytest.fixture(scope="module")
def compiled_kernels():
    """A few benchmark kernels compiled once for server-level tests:
    ``name -> (benchmark, source text, circuit)``."""
    compiler = build_compiler("initial")
    kernels = {}
    for name in ("dot_product_4", "l2_distance_4", "hamming_distance_4"):
        benchmark = benchmark_by_name(name)
        report = compiler.compile_expression(benchmark.expression(), name=name)
        kernels[name] = (benchmark, to_sexpr(benchmark.expression()), report.circuit)
    return kernels


def make_server(tmp_path=None, **kwargs):
    kwargs.setdefault("backend", "vector-vm")
    kwargs.setdefault("params", PARAMS)
    return JobServer(str(tmp_path) if tmp_path is not None else None, **kwargs)


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------
class TestTelemetry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("events").inc()
        registry.counter("events").inc(2)
        registry.gauge("depth").set(5)
        registry.gauge("depth").dec()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["events"] == 3
        assert snapshot["gauges"]["depth"] == 4
        with pytest.raises(ValueError, match="only go up"):
            registry.counter("events").inc(-1)

    def test_histogram_buckets_and_stats(self):
        histogram = Histogram("lat", bounds=(0.1, 1.0))
        for value in (0.05, 0.5, 0.9, 5.0):
            histogram.observe(value)
        payload = histogram.as_dict()
        assert payload["count"] == 4
        assert payload["min"] == 0.05 and payload["max"] == 5.0
        assert payload["buckets"] == {"le_0.1": 1, "le_1": 2, "overflow": 1}
        with pytest.raises(ValueError, match="sorted"):
            Histogram("bad", bounds=(1.0, 0.1))

    def test_snapshot_is_json_serializable_and_written(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.histogram("h").observe(0.2)
        path = tmp_path / "metrics.json"
        written = registry.write_snapshot(str(path))
        assert json.loads(path.read_text()) == json.loads(json.dumps(written))

    def test_thread_safety_of_counters(self):
        registry = MetricsRegistry()

        def spin():
            for _ in range(1000):
                registry.counter("n").inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("n").value == 4000

    def test_slo_tracker_threads_share_instruments(self):
        """Threads racing to create the tracker's cached instruments lose no
        observation: every one lands in the registry's single instrument."""
        registry = MetricsRegistry()
        tracker = SLOTracker(SLOPolicy.from_budgets({1: 0.0}), registry)
        start = threading.Barrier(6)

        def spin():
            start.wait(timeout=10.0)
            for index in range(500):
                tracker.observe_wait(index % 3, 0.5)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=spin) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        histograms = registry.snapshot()["histograms"]
        assert sum(histograms[f"job_wait_s_p{p}"]["count"] for p in range(3)) == 3000
        violations = 6 * len(range(1, 500, 3))  # priority 1 has the budget
        assert registry.counter("slo_violations_wait_p1").value == violations
        assert registry.counter("slo_violations").value == violations


# ---------------------------------------------------------------------------
# job model
# ---------------------------------------------------------------------------
class TestJobModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="needs a source expression"):
            Job(source=None)
        with pytest.raises(ValueError, match="'compile' or 'execute'"):
            Job(source=SOURCE, kind="transmogrify")

    def test_pre_lowered_jobs_are_gone(self, compiled_kernels):
        """Every job carries a source, so every result can be checked: a
        job cannot be built from a circuit, and records carry no circuit."""
        _, _, circuit = compiled_kernels["dot_product_4"]
        with pytest.raises(TypeError, match="program"):
            Job(program=circuit)
        assert "circuit" not in Job(source=SOURCE).to_record()

    def test_record_round_trip(self):
        job = Job(
            source=SOURCE,
            compiler="coyote",
            compiler_options={"layout_candidates": 4},
            backend="vector-vm",
            inputs={"a": 1, "b": 2, "c": 3, "d": 4},
            priority=3,
            max_retries=2,
            name="quad",
        )
        clone = Job.from_record(json.loads(json.dumps(job.to_record())))
        assert clone.id == job.id
        assert clone.compiler_options == {"layout_candidates": 4}
        assert clone.inputs == job.inputs
        assert clone.priority == 3 and clone.max_retries == 2
        assert clone.status is JobState.QUEUED


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------
class TestJobStore:
    def test_replay_newest_wins(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = Job(source=SOURCE)
        store.append(job)
        job.status = JobState.COMPLETED
        job.result = {"ok": True}
        store.append(job)
        replayed = JobStore(str(tmp_path)).replay()
        assert replayed[job.id].status is JobState.COMPLETED
        assert replayed[job.id].result == {"ok": True}

    def test_poll_sees_only_foreign_appends(self, tmp_path):
        server_store = JobStore(str(tmp_path))
        own = Job(source=SOURCE)
        server_store.append(own)
        assert server_store.poll() == []  # own append fast-forwards the offset
        client = JobStore(str(tmp_path))
        foreign = Job(source=SOURCE)
        client.append(foreign)
        polled = server_store.poll()
        assert [job.id for job in polled] == [foreign.id]
        assert server_store.poll() == []

    def test_partial_line_left_for_next_poll(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.replay()
        with open(store.log_path, "a", encoding="utf-8") as handle:
            handle.write('{"id": "job-x", "kind": "execute", "source": "(+ a b)"')
        assert store.poll() == []  # no trailing newline yet
        with open(store.log_path, "a", encoding="utf-8") as handle:
            handle.write(', "status": "queued"}\n')
        assert [job.id for job in store.poll()] == ["job-x"]

    def test_compact_rewrites_one_record_per_job(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = Job(source=SOURCE)
        for status in (JobState.QUEUED, JobState.RUNNING, JobState.COMPLETED):
            job.status = status
            store.append(job)
        store.compact([job])
        lines = [
            line
            for line in open(store.log_path, encoding="utf-8").read().splitlines()
            if line
        ]
        assert len(lines) == 1
        assert json.loads(lines[0])["status"] == "completed"

    def test_in_memory_store(self):
        store = JobStore(None)
        assert not store.persistent
        job = Job(source=SOURCE)
        store.append(job)
        assert store.poll() == []  # own appends are not re-polled
        assert list(store.replay()) == [job.id]

    def test_poll_recovers_from_concurrent_compaction(self, tmp_path):
        watcher = JobStore(str(tmp_path))
        writer = JobStore(str(tmp_path))
        job = Job(source=SOURCE)
        for status in (JobState.QUEUED, JobState.RUNNING, JobState.COMPLETED):
            job.status = status
            writer.append(job)
        watcher.replay()  # offset now at the 3-record end
        writer.compact([job])  # log shrinks below the watcher's offset
        late = Job(source=SOURCE)
        writer.append(late)
        polled = {item.id for item in watcher.poll()}
        assert late.id in polled  # re-read from the start, nothing missed

    def test_poll_detects_compaction_that_regrows_past_offset(self, tmp_path):
        """A size-only shrink heuristic misses this: the external compaction
        shrinks the log, but by the time the watcher polls, fresh appends
        have regrown it past the watcher's saved offset — a seek there lands
        in the middle of a record of the *new* log."""
        watcher = JobStore(str(tmp_path))
        writer = JobStore(str(tmp_path))
        job = Job(source=SOURCE)
        writer.append(job)
        job.status = JobState.RUNNING
        writer.append(job)
        watcher.replay()  # offset at the 2-record end
        job.status = JobState.COMPLETED
        writer.compact([job])  # 1 record, different length than the prefix
        late = [Job(source=SOURCE) for _ in range(3)]
        for item in late:
            writer.append(item)  # log is now longer than the saved offset
        polled = {item.id for item in watcher.poll()}
        assert all(item.id in polled for item in late)

    def test_compaction_generation_counter_increments(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = Job(source=SOURCE)
        store.append(job)
        assert store._read_generation() == 0
        store.compact([job])
        assert store._read_generation() == 1
        store.compact([job])
        assert store._read_generation() == 2

    def test_generation_change_alone_forces_reread(self, tmp_path):
        """The inode-ABA case: if a later compaction's temp file reused the
        watched log's freed inode, (st_dev, st_ino) alone would match — the
        generation counter still flags the replacement."""
        watcher = JobStore(str(tmp_path))
        writer = JobStore(str(tmp_path))
        job = Job(source=SOURCE)
        writer.append(job)
        watcher.replay()
        with open(watcher.generation_path, "w", encoding="utf-8") as handle:
            handle.write("7\n")  # same inode, bumped generation
        late = Job(source=SOURCE)
        writer.append(late)
        polled = {item.id for item in watcher.poll()}
        assert {job.id, late.id} <= polled  # re-read from the start

    def test_append_after_external_compaction_is_not_skipped(self, tmp_path):
        """Appending must not fast-forward the poll offset across a log that
        another process replaced: the compacted records would be skipped."""
        writer = JobStore(str(tmp_path))
        compactor = JobStore(str(tmp_path))
        job = Job(source=SOURCE)
        writer.append(job)
        writer.replay()  # writer has seen everything so far
        foreign = Job(source=SOURCE)
        compactor.compact([job, foreign])  # new inode, unseen by writer
        own = Job(source=SOURCE)
        writer.append(own)  # lands on the replaced log
        polled = {item.id for item in writer.poll()}
        assert foreign.id in polled  # the compacted-in job is still seen

    def test_read_only_access_does_not_create_state_dir(self, tmp_path):
        missing = tmp_path / "never-written"
        store = JobStore(str(missing))
        assert store.replay() == {} and store.poll() == []
        assert not missing.exists()
        store.append(Job(source=SOURCE))  # first write creates it
        assert missing.exists()

    def test_append_records_batch_is_one_log_write(self, tmp_path):
        store = JobStore(str(tmp_path))
        jobs = [Job(source=SOURCE) for _ in range(3)]
        store.append_records([job.to_record() for job in jobs])
        assert store.poll() == []  # offset fast-forwarded past the batch
        assert set(JobStore(str(tmp_path)).replay()) == {job.id for job in jobs}


# ---------------------------------------------------------------------------
# queue
# ---------------------------------------------------------------------------
class TestJobQueue:
    def test_priority_then_fifo(self):
        queue = JobQueue()
        low1 = Job(source=SOURCE, priority=0)
        high = Job(source=SOURCE, priority=5)
        low2 = Job(source=SOURCE, priority=0)
        for job in (low1, high, low2):
            queue.push(job)
        assert [job.id for job in queue.pop_batch()] == [high.id, low1.id, low2.id]

    def test_pop_timeout(self):
        queue = JobQueue()
        assert queue.pop(timeout=0.01) is None
        assert queue.pop_batch(timeout=0.01) == []

    def test_len_and_clear(self):
        queue = JobQueue()
        queue.push(Job(source=SOURCE))
        assert len(queue) == 1
        queue.clear()
        assert len(queue) == 0


# ---------------------------------------------------------------------------
# coalescer
# ---------------------------------------------------------------------------
class TestCoalescer:
    def test_groups_by_fingerprint_and_backend(self, compiled_kernels):
        benchmark_a, source_a, circuit_a = compiled_kernels["dot_product_4"]
        benchmark_b, source_b, circuit_b = compiled_kernels["l2_distance_4"]
        jobs = [Job(source=source_a, inputs=benchmark_a.sample_inputs(s)) for s in range(3)]
        other = Job(source=source_b, inputs=benchmark_b.sample_inputs(0))
        cross = Job(source=source_a, inputs=benchmark_a.sample_inputs(9))
        entries = [(job, circuit_a, [job.inputs], "vector-vm") for job in jobs]
        entries.append((other, circuit_b, [other.inputs], "vector-vm"))
        entries.append((cross, circuit_a, [cross.inputs], "reference"))
        groups = coalesce(entries)
        assert len(groups) == 3
        first = groups[0]
        assert first.coalesced and len(first.jobs) == 3
        assert first.batched_inputs == [job.inputs for job in jobs]
        assert first.slices() == [(0, 1), (1, 2), (2, 3)]
        assert not groups[1].coalesced
        assert groups[2].backend_key == "reference"

    def test_identical_circuits_different_objects_share_group(self, compiled_kernels):
        """Coalescing keys on content: two compiles through a capacity-0
        cache give distinct circuit objects with equal instructions."""
        from repro.compiler.registry import CompilerSpec
        from repro.service.service import CompilationService

        benchmark, source, _ = compiled_kernels["dot_product_4"]
        service = CompilationService(
            CompilerSpec.create("initial"), cache=CompilationCache(capacity=0)
        )
        circuit, clone = (
            service.compile_expression(benchmark.expression(), name="dot").circuit
            for _ in range(2)
        )
        assert circuit is not clone and circuit.instructions == clone.instructions
        one = Job(source=source, inputs=benchmark.sample_inputs(0))
        two = Job(source=source, inputs=benchmark.sample_inputs(1))
        groups = coalesce(
            [
                (one, circuit, [one.inputs], "vector-vm"),
                (two, clone, [two.inputs], "vector-vm"),
            ]
        )
        assert len(groups) == 1 and len(groups[0].jobs) == 2


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------
class TestJobServer:
    def test_mixed_workload_coalesces_and_verifies(self):
        server = make_server()
        execute_ids = [server.submit(Job(source=SOURCE, seed=seed)) for seed in range(5)]
        compile_id = server.submit(Job(source="(+ (* a b) c)", kind="compile"))
        explicit = server.submit(
            Job(source="(+ x y)", inputs={"x": 2, "y": 3})
        )
        processed = server.drain()
        assert processed == 7
        for job_id in execute_ids:
            payload = server.result(job_id)
            assert payload["correct"] and payload["coalesced_batch"] == 5
        assert server.result(explicit)["outputs"] == [[5]]
        compile_payload = server.result(compile_id)
        assert compile_payload["final_cost"] <= compile_payload["initial_cost"]
        counters = server.telemetry.snapshot()["counters"]
        assert counters["batches_coalesced"] >= 1
        assert counters["coalesced_jobs"] == 5
        assert counters["jobs_completed"] == 7
        assert counters["jobs_submitted"] == 7

    def test_seed_and_input_range_drive_sampling(self):
        server = make_server()
        narrow = server.submit(Job(source="(+ a b)", seed=3, input_range=0))
        wide = server.submit(Job(source="(+ a b)", seed=3, input_range=100))
        server.drain()
        narrow_inputs = server.result(narrow)["inputs"][0]
        assert set(narrow_inputs.values()) == {0}
        wide_inputs = server.result(wide)["inputs"][0]
        assert narrow_inputs != wide_inputs
        # Same seed and range as the facade's sampler: outcomes agree.
        outcome = api.execute("(+ a b)", seed=3, input_range=100)
        assert outcome.inputs == wide_inputs

    def test_unknown_compiler_fails_without_retries(self):
        server = make_server()
        job = Job(source=SOURCE, compiler="does-not-exist", max_retries=2)
        server.submit(job)
        server.drain()
        assert job.status is JobState.FAILED
        assert job.attempts == 1  # a name that cannot resolve is not retried
        with pytest.raises(RuntimeError, match="does-not-exist"):
            server.result(job.id)
        counters = server.telemetry.snapshot()["counters"]
        assert counters.get("jobs_retried", 0) == 0
        assert counters["jobs_failed"] == 1

    @pytest.mark.parametrize(
        "config",
        [
            {"kind": "compile", "compiler": "does-not-exist"},
            {"backend": "warp-drive"},
            {"compiler": "coyote", "compiler_options": {"layout_candidates": 0}},
        ],
        ids=["compile-job-unknown-compiler", "unknown-backend", "bad-compiler-options"],
    )
    def test_unresolvable_configuration_fails_on_first_attempt(self, config):
        server = make_server()
        job = Job(source=SOURCE, max_retries=2, **config)
        server.submit(job)
        server.drain()
        assert job.status is JobState.FAILED
        assert job.attempts == 1
        assert server.telemetry.snapshot()["counters"].get("jobs_retried", 0) == 0

    def test_unknown_backend_fails(self):
        server = make_server()
        job = Job(source=SOURCE, backend="warp-drive")
        server.submit(job)
        server.drain()
        assert job.status is JobState.FAILED
        assert "warp-drive" in job.error

    def test_priority_orders_processing(self):
        server = make_server()
        slow = Job(source=SOURCE, priority=0)
        fast = Job(source="(+ (* a b) c)", priority=9)
        server.submit(slow)
        server.submit(fast)
        server.drain()
        # Both completed; the higher priority job started no later.
        assert fast.started_at <= slow.started_at
        assert fast.status is JobState.COMPLETED and slow.status is JobState.COMPLETED

    def test_tick_interleaves_kinds_priorities_and_backends(self):
        """One tick over compile + execute jobs spread across priorities and
        both output-producing backends: everything terminal in that tick,
        coalescing per backend, nothing merged across backends."""
        server = make_server()
        vm_jobs = [
            Job(source=SOURCE, seed=seed, priority=seed % 3) for seed in range(4)
        ]
        ref_jobs = [
            Job(source=SOURCE, seed=seed, backend="reference", priority=1)
            for seed in range(2)
        ]
        other = Job(source="(+ (* a b) c)", seed=7, priority=2)
        compiles = [
            Job(source="(+ (* a b) c)", kind="compile", priority=5),
            Job(source=SOURCE, kind="compile", priority=0),
        ]
        for job in [*vm_jobs, *ref_jobs, other, *compiles]:
            server.submit(job)
        processed = server.tick()
        assert processed == 9
        assert all(
            job.status is JobState.COMPLETED
            for job in [*vm_jobs, *ref_jobs, other, *compiles]
        )
        # Same source, different backends: two separate groups.
        assert server.result(vm_jobs[0].id)["coalesced_batch"] == 4
        assert server.result(ref_jobs[0].id)["coalesced_batch"] == 2
        assert server.result(ref_jobs[0].id)["backend"] == "reference"
        assert all(server.result(job.id)["correct"] for job in [*vm_jobs, *ref_jobs, other])
        counters = server.telemetry.snapshot()["counters"]
        assert counters["batches_total"] == 3  # SOURCE x 2 backends + other
        assert counters["executions_total"] == 7
        assert counters["jobs_completed"] == 9

    def test_coalescing_never_reorders_across_priorities(self, compiled_kernels):
        """Groups come back ordered by their first (highest-priority) member
        and keep member order within the group, so coalescing merges equal
        circuits without ever promoting low-priority work past distinct
        high-priority work."""
        _, shared_source, shared = compiled_kernels["dot_product_4"]
        _, distinct_source, distinct = compiled_kernels["l2_distance_4"]
        high = Job(source=shared_source, priority=9)
        middle = Job(source=distinct_source, priority=5)
        low = Job(source=shared_source, priority=0)
        entries = [  # already in queue (priority) order
            (high, shared, [{"a": 1}], "vector-vm"),
            (middle, distinct, [{"a": 2}], "vector-vm"),
            (low, shared, [{"a": 3}], "vector-vm"),
        ]
        groups = coalesce(entries)
        assert [group.jobs[0].id for group in groups] == [high.id, middle.id]
        assert [job.id for job in groups[0].jobs] == [high.id, low.id]
        assert groups[0].batched_inputs == [{"a": 1}, {"a": 3}]

    def test_failed_then_retried_jobs_do_not_inflate_drain_count(self):
        """drain() counts each job once, when it reaches a terminal state —
        retried attempts are requeued, not counted."""
        server = make_server()
        good = [Job(source=SOURCE, seed=seed) for seed in range(3)]
        # A missing input fails every attempt through the retry path.
        flaky = Job(source=SOURCE, inputs={"a": 1, "b": 2, "c": 3}, max_retries=2)
        for job in [*good, flaky]:
            server.submit(job)
        processed = server.drain()
        assert processed == 4  # 3 completed + 1 failed, each counted once
        counters = server.telemetry.snapshot()["counters"]
        assert counters["jobs_retried"] == 2
        assert counters["jobs_failed"] == 1
        assert counters["jobs_completed"] == 3
        assert flaky.attempts == 3

    def test_malformed_execute_job_fails_alone(self):
        """A job missing an input (or giving a list for a scalar) fails on
        its own; the jobs it would have shared a backend batch with still
        complete and verify."""
        server = make_server()
        good = [server.submit(Job(source="(+ (* a b) c)", seed=seed)) for seed in range(5)]
        missing = server.submit(Job(source="(+ (* a b) c)", inputs={"a": 1, "b": 2}))
        packed = server.submit(Job(source="(* a b)", inputs={"a": [1, 2], "b": 3}))
        good += [server.submit(Job(source="(* a b)", seed=seed)) for seed in range(3)]
        assert server.drain() == 10
        for job_id in good:
            assert server.status(job_id)["status"] == "completed"
            assert server.result(job_id)["correct"]
        for job_id, message in (
            (missing, "missing value for program input 'c'"),
            (packed, "input 'a' is packed slot-wise and must be a scalar"),
        ):
            job = server.get(job_id)
            assert job.status is JobState.FAILED
            assert job.error.startswith(f"CompilationError: {message}")
        counters = server.telemetry.snapshot()["counters"]
        assert counters["jobs_completed"] == 8 and counters["jobs_failed"] == 2

    def test_duplicate_submission_rejected(self):
        server = make_server()
        job = Job(source=SOURCE)
        server.submit(job)
        with pytest.raises(ValueError, match="already submitted"):
            server.submit(job)

    def test_result_without_drain_raises(self):
        server = make_server()
        job_id = server.submit(Job(source=SOURCE))
        with pytest.raises(RuntimeError, match="queued"):
            server.result(job_id)
        with pytest.raises(KeyError, match="unknown job id"):
            server.status("job-nope")

    def test_persistence_restart_and_crash_recovery(self, tmp_path):
        server = make_server(tmp_path)
        done = server.submit(Job(source=SOURCE, inputs={"a": 1, "b": 2, "c": 3, "d": 4}))
        server.drain()
        server.close()

        # A "crashed" run left a job marked running in the log.
        crashed = Job(source="(+ x y)", inputs={"x": 1, "y": 1})
        crashed.status = JobState.RUNNING
        JobStore(str(tmp_path)).append(crashed)

        reborn = make_server(tmp_path)
        assert reborn.status(done)["status"] == "completed"
        assert reborn.result(done)["outputs"] == [[21]]
        assert reborn.telemetry.counter("jobs_recovered").value == 1
        reborn.drain()
        assert reborn.result(crashed.id)["outputs"] == [[2]]
        assert (tmp_path / "metrics.json").exists()

    def test_store_submission_is_polled_in(self, tmp_path):
        server = make_server(tmp_path)
        client = JobStore(str(tmp_path))
        job = Job(source=SOURCE, seed=1)
        client.append(job)
        server.drain()
        assert server.result(job.id)["correct"]

    def test_background_serving(self):
        server = make_server(poll_interval=0.005).start()
        try:
            job_ids = [server.submit(Job(source=SOURCE, seed=seed)) for seed in range(4)]
            for job_id in job_ids:
                assert server.result(job_id, wait=True, timeout=30.0)["correct"]
        finally:
            server.close()

    def test_every_execute_result_is_checked(self, tmp_path, compiled_kernels):
        """Every completed execute job records the plaintext ``references``
        of its source and whether the outputs are ``correct``, with no
        separate ``verified`` flag, and the persisted record keeps both."""
        server = make_server(tmp_path)
        expected = {}
        for name, (benchmark, source, _) in sorted(compiled_kernels.items()):
            inputs = benchmark.sample_inputs(seed=2)
            job_id = server.submit(Job(source=source, inputs=inputs, name=name))
            expected[job_id] = [list(benchmark.reference(inputs))]
        assert server.drain() == len(expected)
        server.close()
        replayed = JobStore(str(tmp_path)).replay()
        for job_id, references in expected.items():
            for payload in (server.result(job_id), replayed[job_id].result):
                assert "verified" not in payload
                assert payload["references"] == references
                assert payload["outputs"] == references
                assert payload["correct"] is True

    def test_wrong_tape_output_completes_incorrect(self, monkeypatch):
        """A circuit that computes the wrong function still completes: its
        outputs are recorded next to the source's references, with
        ``correct: False``."""
        compile_circuit = JobServer._compile
        monkeypatch.setattr(
            JobServer,
            "_compile",
            lambda self, job, expr: compile_circuit(self, job, parse("(+ a b)")),
        )
        server = make_server()
        try:
            job_id = server.submit(Job(source="(* a b)", inputs={"a": 3, "b": 4}))
            assert server.drain() == 1
            payload = server.result(job_id)
        finally:
            server.close()
        assert server.status(job_id)["status"] == "completed"
        assert payload["outputs"] == [[7]]
        assert payload["references"] == [[12]]
        assert payload["correct"] is False

    def test_disabled_compile_cache_disables_circuit_memo(self):
        """A capacity-0 compilation cache turns the circuit memo off too:
        every execute job misses it and none hits, where the default server
        compiles the shared source once."""
        for cache, misses, hits in (
            (CompilationCache(capacity=0), 4, 0),
            (None, 1, 3),
        ):
            server = make_server(cache=cache)
            for seed in range(4):
                server.submit(Job(source=SOURCE, seed=seed))
            assert server.drain() == 4
            counters = server.telemetry.snapshot()["counters"]
            assert counters["circuit_memo_misses"] == misses
            assert counters.get("circuit_memo_hits", 0) == hits

    def test_one_plaintext_check_per_source_across_compilers(self, monkeypatch):
        """Three compilers' jobs on one source share one plaintext check,
        and each job's references and verdict are what a check of its own
        would give."""
        import repro.server.server as server_module

        built = []
        reference_check = server_module.reference_check

        def counting_check(expr, **kwargs):
            built.append(expr)
            return reference_check(expr, **kwargs)

        monkeypatch.setattr(server_module, "reference_check", counting_check)
        server = make_server()
        inputs = {"a": 1, "b": 2, "c": 3, "d": 4}
        job_ids = [
            server.submit(Job(source=SOURCE, inputs=inputs, compiler=compiler))
            for compiler in ("initial", "greedy", "coyote")
            for _ in range(2)
        ]
        assert server.drain() == len(job_ids)
        assert len(built) == 1
        for job_id in job_ids:
            payload = server.result(job_id)
            assert payload["references"] == [[21]]
            assert payload["outputs"] == [[21]]
            assert payload["correct"] is True

    def test_snapshot_after_a_mixed_priority_drain(self):
        """Per-job instruments are resolved once but still created on first
        use: a drain over three priorities, where only priority 2 has (zero)
        budgets, snapshots exactly the instruments it touched."""
        server = make_server(slo=SLOPolicy.from_budgets({2: 0.0}, {2: 0.0}))
        priorities = [0, 2, 1, 2, 0]
        for seed, priority in enumerate(priorities):
            server.submit(Job(source=SOURCE, seed=seed, priority=priority))
        assert server.drain() == len(priorities)
        snapshot = server.telemetry.snapshot()
        counters = {
            name: value
            for name, value in snapshot["counters"].items()
            if name not in ("tape_cache_hits", "tape_compiles")  # process-wide memo
        }
        assert counters == {
            "analysis_findings": 0.0,
            "batches_coalesced": 1.0,
            "batches_total": 1.0,
            "circuit_memo_hits": 4.0,
            "circuit_memo_misses": 1.0,
            "coalesced_jobs": 5.0,
            "executions_total": 5.0,
            "execute_jobs": 5.0,
            "jobs_completed": 5.0,
            "jobs_submitted": 5.0,
            "slo_violations": 4.0,
            "slo_violations_run_p2": 2.0,
            "slo_violations_wait_p2": 2.0,
            "tapes_verified": counters["tapes_verified"],
        }
        assert set(snapshot["gauges"]) == {"jobs_running", "queue_depth", "tape_memo_size"}
        assert snapshot["gauges"]["jobs_running"] == 0.0
        assert snapshot["gauges"]["queue_depth"] == 0.0
        histograms = {name: payload["count"] for name, payload in snapshot["histograms"].items()}
        assert histograms == {
            "group_size": 1,
            "job_run_s": 5,
            "job_run_s_p0": 2,
            "job_run_s_p1": 1,
            "job_run_s_p2": 2,
            "job_wait_s": 5,
            "job_wait_s_p0": 2,
            "job_wait_s_p1": 1,
            "job_wait_s_p2": 2,
            "tick_s": 1,
        }
        report = server.slo_report()
        assert report["2"]["violations_wait"] == 2.0
        assert report["2"]["violations_run"] == 2.0

    def test_execution_does_no_scheduling_work(self, compiled_kernels, monkeypatch):
        """A server tick hands its coalesced groups to ``run_jobs`` in
        first-use order, unpriced and unreordered, and its outputs equal
        ``ExecutionService.run_jobs`` on the same circuits and inputs."""
        from repro.compiler.executor import declared_outputs
        from repro.service.execution import ExecutionJob, ExecutionService

        kernels = sorted(compiled_kernels.items())
        jobs = [
            ExecutionJob(
                program=circuit,
                inputs=[benchmark.sample_inputs(seed=seed) for seed in range(2)],
                name=name,
            )
            for name, (benchmark, _, circuit) in kernels
        ]
        batch = ExecutionService("vector-vm", params=PARAMS).run_jobs(jobs)
        direct = [
            [declared_outputs(job.program, report.outputs) for report in reports]
            for job, reports in zip(jobs, batch.reports)
        ]
        run_order = []
        run_jobs = ExecutionService.run_jobs

        def recording_run_jobs(self, exec_jobs):
            run_order.extend(job.name for job in exec_jobs)
            return run_jobs(self, exec_jobs)

        monkeypatch.setattr(ExecutionService, "run_jobs", recording_run_jobs)
        server = make_server()
        try:
            job_ids = [
                [
                    server.submit(
                        Job(source=source, compiler="initial", inputs=item, name=name)
                    )
                    for item in job.inputs
                ]
                for job, (name, (_, source, _)) in zip(jobs, kernels)
            ]
            assert server.tick() == sum(len(job.inputs) for job in jobs)
            served = [
                [server.result(job_id)["outputs"][0] for job_id in row] for row in job_ids
            ]
            assert all(server.result(job_id)["correct"] for row in job_ids for job_id in row)
        finally:
            server.close()
        assert run_order == [name for name, _ in kernels]
        assert served == direct

    def test_workers_validation(self):
        # Execution has one serial path and the server compiles one job at a
        # time, so neither worker-count option exists.
        for workers in (0, 2):
            with pytest.raises(TypeError, match="workers"):
                JobServer(workers=workers)
            with pytest.raises(TypeError, match="compile_workers"):
                JobServer(compile_workers=workers)
        assert not hasattr(JobServer(), "compile_workers")
        with pytest.raises(ValueError, match="admission"):
            JobServer(admission="bogus")


# ---------------------------------------------------------------------------
# api surface
# ---------------------------------------------------------------------------
class TestServerApi:
    def test_serve_submit_status_result(self):
        with pytest.raises(TypeError, match="compile_workers"):
            api.serve(compile_workers=2, start=False)
        server = api.serve(backend="vector-vm", start=False)
        inputs = {"a": 1, "b": 2, "c": 3, "d": 4}
        job_id = api.submit(SOURCE, inputs, server=server)
        assert api.status(job_id, server=server)["status"] == "queued"
        server.drain()
        payload = api.result(job_id, server=server, wait=False)
        assert payload["correct"] and payload["outputs"] == [[21]]
        # Default parameters on both sides: the server's FHE accounting
        # equals the facade's for the same inputs, bit for bit.
        direct = api.execute_batch(SOURCE, inputs=[inputs], backend="vector-vm")
        report = direct.executions[0]
        assert payload["outputs"] == direct.outputs
        assert (
            payload["latency_ms"],
            payload["consumed_noise_budget"],
            payload["remaining_noise_budget"],
            payload["noise_budget_exhausted"],
        ) == (
            report.latency_ms,
            report.consumed_noise_budget,
            report.remaining_noise_budget,
            report.noise_budget_exhausted,
        )

    def test_submit_to_state_dir_and_drain_elsewhere(self, tmp_path):
        state_dir = str(tmp_path)
        job_id = api.submit(SOURCE, seed=4, state_dir=state_dir)
        assert api.status(job_id, state_dir=state_dir)["status"] == "queued"
        server = api.serve(state_dir, backend="vector-vm", start=False)
        server.drain()
        server.close()
        payload = api.result(job_id, state_dir=state_dir, wait=False)
        assert payload["correct"]

    def test_server_and_state_dir_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            api.submit(SOURCE, server=object(), state_dir="/tmp/x")

    def test_facade_exports(self):
        for name in ("serve", "submit", "status", "result", "default_server"):
            assert callable(getattr(repro, name))

    def test_execute_input_range_and_seed_exposed(self):
        narrow = api.execute("(+ a b)", seed=5, input_range=0)
        assert set(narrow.inputs.values()) == {0} and narrow.correct
        wide = api.execute("(+ a b)", seed=5, input_range=1000)
        assert narrow.inputs != wide.inputs and wide.correct
        batch = api.execute_batch("(+ a b)", batch=3, seed=5, input_range=0)
        assert all(set(item.values()) == {0} for item in batch.inputs)
        assert batch.all_correct

    def test_run_cli_input_range(self, capsys):
        assert cli_main(["run", "(+ a b)", "--seed", "5", "--input-range", "0"]) == 0
        out = capsys.readouterr().out
        assert '"a": 0' in out and '"b": 0' in out
        assert (
            cli_main(
                ["run-batch", "(+ a b)", "--batch", "2", "--seed", "5", "--input-range", "0"]
            )
            == 0
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestServerCli:
    def test_submit_serve_jobs_metrics(self, tmp_path, capsys):
        state = str(tmp_path)
        assert cli_main(["submit", SOURCE, "--state-dir", state, "--seed", "1"]) == 0
        assert cli_main(["submit", SOURCE, "--state-dir", state, "--seed", "2"]) == 0
        assert (
            cli_main(
                ["submit", "(+ (* a b) c)", "--state-dir", state, "--kind", "compile"]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            cli_main(["serve", "--state-dir", state, "--backend", "vector-vm", "--drain"])
            == 0
        )
        out = capsys.readouterr().out
        assert "drained 3 job(s)" in out
        assert cli_main(["jobs", "--state-dir", state]) == 0
        out = capsys.readouterr().out
        assert out.count("completed") == 3 and "3 job(s)" in out
        assert cli_main(["metrics", "--state-dir", state]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["batches_coalesced"] >= 1

    def test_metrics_before_serve_fails(self, tmp_path, capsys):
        assert cli_main(["metrics", "--state-dir", str(tmp_path)]) == 1

    def test_jobs_status_filter(self, tmp_path, capsys):
        state = str(tmp_path)
        cli_main(["submit", SOURCE, "--state-dir", state])
        capsys.readouterr()
        assert cli_main(["jobs", "--state-dir", state, "--status", "queued"]) == 0
        assert "1 job(s)" in capsys.readouterr().out
        assert cli_main(["jobs", "--state-dir", state, "--status", "failed"]) == 0
        assert "0 job(s)" in capsys.readouterr().out


class TestHistogramPercentile:
    BOUNDS = (1.0, 2.0, 4.0, 8.0)
    VALUES = (0.5, 1.5, 1.7, 3.0, 3.5, 5.0, 7.0, 9.0)

    def _containing_bucket(self, value, minimum, maximum):
        lo = minimum
        for bound in self.BOUNDS:
            if value <= bound:
                return max(lo, minimum), min(bound, maximum)
            lo = bound
        return max(lo, minimum), maximum

    def test_estimate_error_bounded_by_containing_bucket(self):
        """The interpolated percentile always lies inside the bucket that
        holds the true rank statistic — error <= that bucket's width."""
        import math

        hist = Histogram("h", bounds=self.BOUNDS)
        for value in self.VALUES:
            hist.observe(value)
        ordered = sorted(self.VALUES)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            true_value = ordered[math.ceil(q * len(ordered)) - 1]
            lo, hi = self._containing_bucket(true_value, ordered[0], ordered[-1])
            estimate = hist.percentile(q)
            assert lo <= estimate <= hi, (q, estimate, (lo, hi))
            assert abs(estimate - true_value) <= hi - lo

    def test_clamps_and_edge_cases(self):
        hist = Histogram("h", bounds=self.BOUNDS)
        assert hist.percentile(0.5) == 0.0  # empty
        for value in self.VALUES:
            hist.observe(value)
        assert hist.percentile(0.0) == min(self.VALUES)
        assert hist.percentile(1.0) == max(self.VALUES)
        with pytest.raises(ValueError):
            hist.percentile(-0.1)
        with pytest.raises(ValueError):
            hist.percentile(1.1)

    def test_single_observation_is_exact_everywhere(self):
        hist = Histogram("h", bounds=self.BOUNDS)
        hist.observe(3.25)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert hist.percentile(q) == 3.25

    def test_snapshot_round_trip_matches_live_histogram(self):
        hist = Histogram("h", bounds=self.BOUNDS)
        for value in self.VALUES:
            hist.observe(value)
        payload = hist.as_dict()
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            assert percentile_from_snapshot(payload, q) == hist.percentile(q)
        assert percentile_from_snapshot({}, 0.5) == 0.0

    def test_snapshot_without_min_max_falls_back_to_bucket_bounds(self):
        """A persisted payload lacking min/max (older writers, hand-built
        dicts) must yield estimates inside the populated buckets, not 0.0."""
        payload = {
            "count": 4,
            "sum": 1.2,
            "buckets": {"le_1": 0, "le_2": 4, "le_4": 0, "le_8": 0, "overflow": 0},
        }
        # All four observations sit in the (1, 2] bucket: every percentile —
        # including the q=0/q=1 extremes — must land inside those bounds.
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert 1.0 <= percentile_from_snapshot(payload, q) <= 2.0, q
        # Out-of-range q still raises even without min/max.
        with pytest.raises(ValueError):
            percentile_from_snapshot(payload, 1.5)
        with pytest.raises(ValueError):
            percentile_from_snapshot(payload, -0.5)

    def test_snapshot_without_min_max_overflow_uses_top_bound(self):
        """With the overflow bucket populated and no observed max, the top
        finite bound is the stand-in: bounded output, never a NaN or 0.0."""
        payload = {
            "count": 2,
            "buckets": {"le_1": 1, "le_2": 0, "le_4": 0, "le_8": 0, "overflow": 1},
        }
        assert percentile_from_snapshot(payload, 0.0) == 0.0  # lower bound of le_1
        assert percentile_from_snapshot(payload, 1.0) == 8.0  # top finite bound
        mid = percentile_from_snapshot(payload, 0.5)
        assert 0.0 <= mid <= 8.0

    def test_empty_snapshot_and_zero_count_are_defined(self):
        assert percentile_from_snapshot({}, 0.0) == 0.0
        assert percentile_from_snapshot({}, 1.0) == 0.0
        assert percentile_from_snapshot({"count": 0, "buckets": {}}, 0.5) == 0.0


class TestSLOPolicy:
    def test_from_budgets_and_lookups(self):
        policy = SLOPolicy.from_budgets({2: 0.1, 1: 0.5}, {2: 0.05})
        assert policy.wait_budget(2) == 0.1
        assert policy.run_budget(2) == 0.05
        assert policy.wait_budget(1) == 0.5
        assert policy.run_budget(1) is None
        assert policy.wait_budget(0) is None  # undeclared: best effort
        assert policy.class_for(0) is None
        assert [slo.priority for slo in policy.classes] == [2, 1]

    def test_duplicate_priorities_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SLOPolicy((SLOClass(priority=1), SLOClass(priority=1)))

    def test_as_dict_round_trips_budgets(self):
        policy = SLOPolicy.from_budgets({1: 0.25})
        payload = policy.as_dict()
        assert payload["classes"][0]["priority"] == 1
        assert payload["classes"][0]["max_wait_s"] == 0.25


class TestSLOTracker:
    def test_violations_counted_per_priority_and_kind(self):
        registry = MetricsRegistry()
        tracker = SLOTracker(SLOPolicy.from_budgets({1: 0.1}, {1: 0.2}), registry)
        assert tracker.observe_wait(1, 0.05) is False
        assert tracker.observe_wait(1, 0.5) is True
        assert tracker.observe_run(1, 0.3) is True
        counters = registry.snapshot()["counters"]
        assert counters["slo_violations"] == 2
        assert counters["slo_violations_wait_p1"] == 1
        assert counters["slo_violations_run_p1"] == 1
        report = tracker.report()
        assert report["1"]["violations_wait"] == 1
        assert report["1"]["violations_run"] == 1
        assert report["1"]["wait_p99_s"] > 0.0

    def test_undeclared_priority_is_tracked_but_never_violates(self):
        registry = MetricsRegistry()
        tracker = SLOTracker(SLOPolicy.from_budgets({1: 0.1}), registry)
        assert tracker.observe_wait(0, 99.0) is False
        assert "job_wait_s_p0" in registry.names()
        assert "0" not in tracker.report()
        assert registry.counter("slo_violations").value == 0


class TestJobQueueOverload:
    def test_full_queue_displaces_lowest_priority(self):
        queue = JobQueue(2)
        low_a = Job(source=SOURCE, priority=0)
        low_b = Job(source=SOURCE, priority=0)
        queue.push(low_a)
        queue.push(low_b)
        victim = queue.push(Job(source=SOURCE, priority=1))
        # Ties shed the youngest: of the two p0 entries, low_b goes.
        assert victim is low_b
        assert sorted(job.priority for job in queue.pop_batch(timeout=0)) == [0, 1]

    def test_incoming_job_is_own_victim_when_not_above_any_level(self):
        queue = JobQueue(2)
        queue.push(Job(source=SOURCE, priority=2))
        queue.push(Job(source=SOURCE, priority=2))
        incoming = Job(source=SOURCE, priority=1)
        assert queue.push(incoming) is incoming  # O(1) fast path
        assert len(queue) == 2

    def test_aged_low_priority_outranks_fresh_high_priority(self):
        queue = JobQueue(aging_interval_s=1.0)
        aged = Job(source=SOURCE, priority=0)
        aged.submitted_at -= 5.5  # effective priority ~5
        fresh = Job(source=SOURCE, priority=2)
        queue.push(fresh)
        queue.push(aged)
        drained = queue.pop_batch(timeout=0)
        assert [job is aged for job in drained] == [True, False]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            JobQueue(0)
        with pytest.raises(ValueError):
            JobQueue(per_priority_capacity=0)
        with pytest.raises(ValueError):
            JobQueue(aging_interval_s=0.0)


class TestAdmissionControl:
    def _warm_server(self, **kwargs):
        """A server whose service-time EWMA and circuit memo are non-zero, so
        admission estimates are real rather than the cold-start zero."""
        server = JobServer(**kwargs)
        server.submit(Job(source=SOURCE, seed=0))
        server.drain()
        return server

    def test_invalid_mode_rejected(self):
        # "downgrade" (demote over-budget arrivals) and its floor are gone:
        # admission control either sheds or is off.
        for mode in ("bogus", "downgrade"):
            with pytest.raises(ValueError, match="admission"):
                JobServer(admission=mode)
        with pytest.raises(TypeError, match="admission_floor"):
            JobServer(admission="shed", admission_floor=0)

    def test_shed_mode_rejects_over_budget_arrivals(self):
        policy = SLOPolicy.from_budgets({0: 1e-9})
        server = self._warm_server(slo=policy, admission="shed")
        try:
            job_id = server.submit(Job(source=SOURCE, seed=1))
            row = server.status(job_id)
            assert row["status"] == "shed"
            assert "admission control" in row["error"]
            counters = server.telemetry.snapshot()["counters"]
            assert counters["admission_rejects"] == 1
            assert counters["jobs_shed"] == 1
        finally:
            server.close()

    def test_best_effort_priority_bypasses_admission(self):
        # Priority 1 has no declared budget: nothing to protect, always admit.
        policy = SLOPolicy.from_budgets({0: 1e-9})
        server = self._warm_server(slo=policy, admission="shed")
        try:
            job_id = server.submit(Job(source=SOURCE, seed=1, priority=1))
            assert server.status(job_id)["status"] == "queued"
        finally:
            server.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_drain_estimate_boundary(self, workers):
        """Admit iff (depth + 1) * per-job cost fits the budget.  The former
        worker count is no longer accepted, and no longer divides the drain
        estimate (at 2 the budget just below the drain time used to admit)."""
        with pytest.raises(TypeError, match="workers"):
            JobServer(workers=workers)
        cost, depth = 0.01, 3
        drain_s = (depth + 1) * cost
        for budget, expected in ((drain_s * 1.001, "queued"), (drain_s * 0.999, "shed")):
            server = JobServer(
                slo=SLOPolicy.from_budgets({0: budget}),
                admission="shed",
            )
            try:
                server._service_s_ewma = cost  # pin the per-job cost
                # Priority 1 has no budget, so these queue unconditionally
                # and form the backlog a priority-0 arrival waits behind.
                for seed in range(depth):
                    server.submit(Job(source=SOURCE, seed=seed, priority=1))
                job_id = server.submit(Job(source=SOURCE, seed=depth))
                assert server.status(job_id)["status"] == expected, budget
            finally:
                server.close()

    def test_cold_compile_excluded_from_admission_cost(self, monkeypatch):
        """One tick with a slow cold compile must not price later arrivals
        at the compile's cost: a small backlog is admitted at a budget the
        warm per-job cost meets."""
        import time as time_module

        from repro.service.service import CompilationService

        compile_s = 0.5
        original = CompilationService.compile_expression

        def slow_compile(self, *args, **kwargs):
            time_module.sleep(compile_s)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CompilationService, "compile_expression", slow_compile)
        budget = compile_s / 2
        server = JobServer(slo=SLOPolicy.from_budgets({0: budget}), admission="shed")
        try:
            server.submit(Job(source=SOURCE, seed=0))
            server.drain()
            backlog = [
                server.submit(Job(source="(+ (* a b) c)", seed=seed)) for seed in range(3)
            ]
            assert [server.status(job_id)["status"] for job_id in backlog] == ["queued"] * 3
            assert server.telemetry.snapshot()["counters"].get("admission_rejects", 0) == 0
            server.drain()
            assert all(server.result(job_id)["correct"] for job_id in backlog)
        finally:
            server.close()

    def test_slo_report_covers_declared_priorities(self):
        policy = SLOPolicy.from_budgets({0: 5.0, 1: 5.0})
        server = JobServer(slo=policy)
        try:
            server.submit(Job(source=SOURCE, seed=0))
            server.submit(Job(source=SOURCE, seed=1, priority=1))
            server.drain()
            report = server.slo_report()
            assert sorted(report) == ["0", "1"]
            for row in report.values():
                for field in (
                    "wait_p50_s",
                    "wait_p99_s",
                    "run_p50_s",
                    "run_p99_s",
                    "violations_wait",
                    "violations_run",
                ):
                    assert field in row
            assert report["0"]["slo"]["max_wait_s"] == 5.0
        finally:
            server.close()
