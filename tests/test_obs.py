"""Tests for the observability stack (PR 9: repro.obs + server tracing).

Four layers, bottom up:

* the tracing primitives — fake-clock span nesting, ring-buffer bounds,
  the disabled tracer's shared no-op handle, the JSONL sink round-trip,
  and a hypothesis property pinning that random open/close interleavings
  always produce well-formed parent-contained intervals;
* the exporters — Chrome trace-event shape and the self-time math of the
  stage rollup (nested stages never double-count attributed time);
* the console — snapshot deltas/rates, counter-reset detection, the
  ``repro top`` frame, and the snapshot ``meta`` block it keys off;
* the served pipeline — one connected trace per submission across retries,
  shedding, crash recovery into a fresh process, and store compaction;
  plus the opt-in tape profiler's bit-for-bit output parity.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.backends import compile_tape
from repro.fhe.params import BFVParameters
from repro.obs.console import read_snapshot, render_delta, render_top, snapshot_delta
from repro.obs.export import (
    STAGE_ORDER,
    chrome_trace,
    export_chrome_trace,
    render_stage_report,
    stage_rollup,
)
from repro.obs.trace import (
    NULL_TRACER,
    JsonlSpanSink,
    Span,
    Tracer,
    load_spans,
    new_span_id,
)
from repro.server import FaultInjector, InjectedFault, Job, JobServer, JobStore
from repro.__main__ import main as cli_main

SOURCE = "(+ (* a b) c)"


class FakeClock:
    """A deterministic clock: every read ticks forward by ``step``."""

    def __init__(self, start: float = 1000.0, step: float = 1.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def make_tracer(**kwargs) -> Tracer:
    clock = FakeClock()
    kwargs.setdefault("wall", clock)
    kwargs.setdefault("mono", clock)
    tracer = Tracer(**kwargs)
    tracer.clock = clock  # type: ignore[attr-defined]
    return tracer


# ---------------------------------------------------------------------------
# tracing primitives
# ---------------------------------------------------------------------------
class TestTracerCore:
    def test_nested_spans_share_trace_and_parent_implicitly(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
        outer_span, = [s for s in tracer.spans() if s.name == "outer"]
        inner_span, = [s for s in tracer.spans() if s.name == "inner"]
        assert inner_span.parent_id == outer_span.span_id
        assert outer_span.parent_id is None
        # Fake-clock intervals: the child is contained in the parent.
        assert inner_span.start_wall >= outer_span.start_wall
        assert inner_span.end_wall <= outer_span.end_wall
        assert inner_span.duration_s > 0

    def test_explicit_ids_override_the_thread_stack(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("adopted", trace_id="t-x", parent_id="s-root"):
                pass
        adopted, = [s for s in tracer.spans() if s.name == "adopted"]
        assert adopted.trace_id == "t-x"
        assert adopted.parent_id == "s-root"

    def test_exception_marks_error_status_and_propagates(self):
        tracer = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        span, = tracer.spans()
        assert span.status == "error"
        assert span.attrs["error"] == "RuntimeError"
        assert tracer.current_span() is None  # the stack unwound

    def test_ring_buffer_keeps_newest_and_counts_drops(self):
        tracer = make_tracer(capacity=3)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]
        assert tracer.stats() == {"buffered": 3, "emitted": 5, "dropped": 2}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_disabled_tracer_is_a_shared_noop(self):
        handle_a = NULL_TRACER.span("anything")
        handle_b = NULL_TRACER.span("else", attrs={"k": 1})
        assert handle_a is handle_b  # one shared handle, no allocation
        with handle_a as handle:
            handle.set_attr("ignored", True)
        assert NULL_TRACER.record("x", 0.0, 1.0) is None
        assert NULL_TRACER.spans() == []

    def test_retro_dated_span_uses_supplied_clocks(self):
        tracer = make_tracer()
        with tracer.span("tick", start_wall=500.0, start_mono=100.0):
            pass
        span, = tracer.spans()
        assert span.start_wall == 500.0
        # One fake-clock read closed the span: duration = mono() - 100.
        assert span.duration_s == tracer.clock.now - 100.0

    def test_record_pins_span_id_and_clamps_duration(self):
        tracer = make_tracer()
        span = tracer.record(
            "job", 10.0, 12.5, trace_id="t-1", span_id="s-pinned", status="error"
        )
        assert span.span_id == "s-pinned"
        assert span.trace_id == "t-1"
        assert span.duration_s == 2.5
        backwards = tracer.record("oops", 12.5, 10.0)
        assert backwards.duration_s == 0.0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_ids_stay_unique_in_a_forked_child(self):
        parent_ids = {new_span_id() for _ in range(3)}
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: mint ids and hand them back
            os.write(write_end, " ".join(new_span_id() for _ in range(3)).encode())
            os._exit(0)
        os.close(write_end)
        child_ids = set(os.read(read_end, 4096).decode().split())
        os.close(read_end)
        os.waitpid(pid, 0)
        parent_ids |= {new_span_id() for _ in range(3)}
        assert len(parent_ids) == 6 and len(child_ids) == 3
        assert not parent_ids & child_ids
        # The child drew its own process token, not a copy of the parent's.
        child_tokens = {span_id[2:-6] for span_id in child_ids}
        assert child_tokens.isdisjoint({span_id[2:-6] for span_id in parent_ids})

    def test_observer_sees_every_finished_span(self):
        seen = []
        tracer = make_tracer(observer=seen.append)
        with tracer.span("a"):
            pass
        tracer.record("b", 0.0, 1.0)
        assert [span.name for span in seen] == ["a", "b"]

    def test_jsonl_sink_round_trips_and_skips_garbage(self, tmp_path):
        path = str(tmp_path / "traces.jsonl")
        tracer = make_tracer(sink=JsonlSpanSink(path))
        with tracer.span("persist", attrs={"jobs": 2}):
            pass
        tracer.record("job", 1.0, 2.0, trace_id="t-1", status="retry")
        tracer.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json\n\n")
        spans = load_spans(path)
        assert [s.name for s in spans] == ["persist", "job"]
        assert spans[0].attrs == {"jobs": 2}
        assert spans[1].status == "retry"
        # Round-trip equality through to_record/from_record.
        original = tracer.spans()[0]
        assert Span.from_record(original.to_record()) == original


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), max_size=40))
def test_random_interleavings_nest_well(actions):
    """Random open/close sequences always yield stack-disciplined trees.

    True opens a child span, False closes the innermost open span; every
    finished span's parent must be exactly the span that was open beneath
    it, and its wall interval must be contained in that parent's.
    """
    tracer = make_tracer()
    open_handles = []
    serial = 0
    expected_parent = {}  # span_id -> parent span_id (or None)
    for action in actions:
        if action:
            handle = tracer.span(f"s{serial}")
            serial += 1
            expected_parent[handle.span_id] = (
                open_handles[-1].span_id if open_handles else None
            )
            handle.__enter__()
            open_handles.append(handle)
        elif open_handles:
            open_handles.pop().__exit__(None, None, None)
    while open_handles:
        open_handles.pop().__exit__(None, None, None)

    spans = {span.span_id: span for span in tracer.spans()}
    assert len(spans) == serial
    for span in spans.values():
        assert span.parent_id == expected_parent[span.span_id]
        if span.parent_id is not None:
            parent = spans[span.parent_id]
            assert span.trace_id == parent.trace_id
            assert span.start_wall >= parent.start_wall
            assert span.end_wall <= parent.end_wall


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------
def make_span(name, start, end, *, span_id=None, parent_id=None, cat="stage",
              trace_id="t-1", status="ok"):
    return Span(
        trace_id=trace_id,
        span_id=span_id or f"s-{name}-{start}",
        parent_id=parent_id,
        name=name,
        cat=cat,
        start_wall=start,
        duration_s=end - start,
        status=status,
    )


class TestChromeExport:
    def test_complete_events_with_microsecond_timestamps(self, tmp_path):
        spans = [
            make_span("execute", 2.0, 3.5),
            make_span("submit", 1.0, 2.0, status="error"),
        ]
        payload = chrome_trace(spans)
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(events) == 2
        assert events[0]["name"] == "submit"  # sorted by ts
        assert events[0]["ts"] == pytest.approx(1.0e6)
        assert events[0]["dur"] == pytest.approx(1.0e6)
        assert events[0]["args"]["status"] == "error"
        assert events[1]["args"]["trace_id"] == "t-1"
        metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert metadata and all(e["name"] == "thread_name" for e in metadata)

        path = str(tmp_path / "trace.json")
        assert export_chrome_trace(spans, path) == 2
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["displayTimeUnit"] == "ms"


class TestStageRollup:
    def test_self_time_subtracts_included_children(self):
        parent = make_span("submit", 0.0, 10.0, span_id="p")
        child = make_span("persist", 2.0, 6.0, parent_id="p")
        rollup = stage_rollup([parent, child], window_s=10.0)
        rows = {row["stage"]: row for row in rollup["stages"]}
        assert rows["submit"]["self_s"] == pytest.approx(6.0)
        assert rows["persist"]["self_s"] == pytest.approx(4.0)
        assert rollup["attributed_s"] == pytest.approx(10.0)
        assert rollup["coverage"] == pytest.approx(1.0)
        assert rows["submit"]["share"] == pytest.approx(0.6)

    def test_other_categories_are_excluded_by_default(self):
        stage = make_span("execute", 0.0, 1.0)
        job = make_span("run", 0.0, 5.0, cat="job")
        tick = make_span("tick", 0.0, 9.0, cat="tick")
        rollup = stage_rollup([stage, job, tick])
        assert [row["stage"] for row in rollup["stages"]] == ["execute"]
        jobs = stage_rollup([stage, job, tick], cats=("job",))
        assert [row["stage"] for row in jobs["stages"]] == ["run"]

    def test_window_defaults_to_span_extent_and_rows_follow_stage_order(self):
        spans = [
            make_span("execute", 4.0, 9.0),
            make_span("submit", 1.0, 2.0),
            make_span("zz_custom", 2.0, 3.0),
        ]
        rollup = stage_rollup(spans)
        assert rollup["window_s"] == pytest.approx(8.0)  # 1.0 .. 9.0
        names = [row["stage"] for row in rollup["stages"]]
        assert names == ["submit", "execute", "zz_custom"]  # STAGE_ORDER, then extras
        assert set(names[:2]) < set(STAGE_ORDER)

    def test_percentiles_error_counts_and_render(self):
        spans = [
            make_span("execute", 0.0, 1.0),
            make_span("execute", 1.0, 4.0, status="error"),
        ]
        rollup = stage_rollup(spans)
        row, = rollup["stages"]
        assert row["count"] == 2
        assert row["errors"] == 1
        assert row["p50_s"] == pytest.approx(2.0)  # interpolated between 1 and 3
        assert row["max_s"] == pytest.approx(3.0)
        report = render_stage_report(rollup)
        assert "execute" in report
        assert "coverage" in report

    def test_empty_rollup_renders(self):
        rollup = stage_rollup([])
        assert rollup["stages"] == []
        assert rollup["coverage"] == 0.0
        assert "0 spans" in render_stage_report(rollup)

    def test_commit_result_holds_one_verify_span_per_group_and_the_persist(self):
        server = JobServer(backend="vector-vm", tracer=Tracer())
        for seed in range(3):
            server.submit(Job(source=SOURCE, seed=seed))
            server.submit(Job(source="(* (+ a b) (+ c d))", seed=seed))
        server.drain()
        spans = server.tracer.spans(cat="stage")
        commit, = [span for span in spans if span.name == "commit_result"]
        verify = [span for span in spans if span.name == "verify"]
        assert [span.attrs["jobs"] for span in verify] == [3, 3]
        assert {span.parent_id for span in verify} == {commit.span_id}
        tick_persist = [
            span for span in spans
            if span.name == "persist" and span.parent_id == commit.span_id
        ]
        assert len(tick_persist) == 1
        # Stage samples queued by the observer reach the histograms by the
        # time a snapshot is read.
        histograms = server.telemetry.snapshot()["histograms"]
        assert histograms["stage_verify_s"]["count"] == 2
        assert histograms["stage_commit_result_s"]["count"] == 1
        assert histograms["stage_submit_s"]["count"] == 6
        server.close()


# ---------------------------------------------------------------------------
# console + snapshot meta
# ---------------------------------------------------------------------------
def snapshot(seq, mono, counters, gauges=None, histograms=None):
    return {
        "meta": {"sequence": seq, "wall_time": 100.0 + mono, "monotonic_time": mono},
        "counters": counters,
        "gauges": gauges or {},
        "histograms": histograms or {},
    }


class TestConsole:
    def test_delta_rates_use_the_monotonic_clock(self):
        old = snapshot(1, 10.0, {"jobs_completed": 4})
        new = snapshot(3, 14.0, {"jobs_completed": 10, "jobs_shed": 1})
        delta = snapshot_delta(old, new)
        assert delta["elapsed_s"] == pytest.approx(4.0)
        assert delta["counters"] == {"jobs_completed": 6.0, "jobs_shed": 1.0}
        assert delta["rates"]["jobs_completed"] == pytest.approx(1.5)
        assert not delta["reset"]
        body = render_delta(delta)
        assert "seq 1 -> 3" in body
        assert "+6" in body

    def test_counter_reset_reports_absolutes_not_negatives(self):
        old = snapshot(7, 10.0, {"jobs_completed": 50})
        new = snapshot(1, 2.0, {"jobs_completed": 3})  # restarted server
        delta = snapshot_delta(old, new)
        assert delta["reset"]
        assert delta["counters"]["jobs_completed"] == 3.0
        assert "reset" in render_delta(delta)

    def test_render_top_frame(self, tmp_path):
        state = str(tmp_path)
        server = JobServer(state)
        server.submit(Job(source=SOURCE, seed=1))
        server.drain()
        server.close()
        snap = read_snapshot(server.store.metrics_path)
        assert snap is not None
        frame = render_top(snap, source=state)
        assert "repro top" in frame
        assert "queue_depth" in frame
        assert "submitted 1" in frame
        assert "p99_ms" in frame  # histogram table present

    def test_read_snapshot_tolerates_missing_and_garbage(self, tmp_path):
        assert read_snapshot(str(tmp_path / "nope.json")) is None
        path = tmp_path / "metrics.json"
        path.write_text("{mid-replace garbage")
        assert read_snapshot(str(path)) is None


class TestSnapshotMeta:
    def test_write_snapshot_stamps_increasing_sequence(self, tmp_path):
        state = str(tmp_path)
        server = JobServer(state)
        server.submit(Job(source=SOURCE, seed=1))
        server.drain()
        first = read_snapshot(server.store.metrics_path)["meta"]
        assert first["sequence"] >= 1
        assert first["wall_time"] > 0
        assert first["monotonic_time"] > 0
        assert first["pid"] == os.getpid()
        server.telemetry.write_snapshot(server.store.metrics_path)
        second = read_snapshot(server.store.metrics_path)["meta"]
        assert second["sequence"] > first["sequence"]
        server.close()


# ---------------------------------------------------------------------------
# trace continuity through the served pipeline
# ---------------------------------------------------------------------------
def trees_by_trace(spans):
    by_trace = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    return by_trace


def assert_connected(tree, trace_root):
    """One root — the persisted trace_root — and no dangling parents.

    Roots are deduped by span id: a crashed process may have recorded the
    job envelope before its commit was lost, and the reborn process records
    it again pinned to the *same* ``trace_root``, so by-id the trace still
    has exactly one root.
    """
    roots = {span.span_id for span in tree if span.parent_id is None}
    assert roots == {trace_root}
    ids = {span.span_id for span in tree}
    for span in tree:
        if span.parent_id is not None:
            assert span.parent_id in ids, f"dangling {span.name}"


class TestTraceContinuity:
    def test_one_connected_trace_per_submission(self):
        server = JobServer(tracer=Tracer())
        jobs = [Job(source=SOURCE, seed=seed) for seed in range(3)]
        for job in jobs:
            server.submit(job)
        server.drain()
        server.close()
        by_trace = trees_by_trace(server.tracer.spans(cat="job"))
        for job in jobs:
            tree = by_trace[job.trace_id]
            assert_connected(tree, job.trace_root)
            names = {span.name for span in tree}
            assert {"submit", "queue_wait", "run", "job"} <= names
            envelope, = [span for span in tree if span.span_id == job.trace_root]
            assert envelope.status == "ok"

    def test_retries_extend_the_same_trace(self):
        server = JobServer(tracer=Tracer())
        job = Job(source="(+ broken", max_retries=2)
        server.submit(job)
        server.drain()
        server.close()
        tree = trees_by_trace(server.tracer.spans(cat="job"))[job.trace_id]
        assert_connected(tree, job.trace_root)
        runs = sorted(
            (span for span in tree if span.name == "run"),
            key=lambda span: span.start_wall,
        )
        assert [span.status for span in runs] == ["retry", "retry", "error"]
        waits = [span for span in tree if span.name == "queue_wait"]
        assert len(waits) == 3  # one per attempt
        envelope, = [span for span in tree if span.span_id == job.trace_root]
        assert envelope.status == "error"

    def test_shed_jobs_close_their_trace_with_an_error(self):
        server = JobServer(queue_capacity=1, tracer=Tracer())
        jobs = [Job(source=SOURCE, seed=seed) for seed in range(4)]
        for job in jobs:
            server.submit(job)
        server.drain()
        server.close()
        shed = [job for job in jobs if server.status(job.id)["status"] == "shed"]
        assert shed  # capacity 1 under a burst of 4 must shed someone
        by_trace = trees_by_trace(server.tracer.spans(cat="job"))
        for job in shed:
            tree = by_trace[job.trace_id]
            assert_connected(tree, job.trace_root)
            event, = [span for span in tree if span.name == "shed"]
            assert event.status == "error"
            assert "reason" in event.attrs

    def test_crash_recovery_resumes_the_same_trace_across_processes(self, tmp_path):
        state = str(tmp_path)
        faults = FaultInjector()
        faults.arm("server.before_commit", exc=InjectedFault)
        server = JobServer(state, fault_injector=faults, tracing=True)
        jobs = [Job(source=SOURCE, seed=seed) for seed in range(2)]
        for job in jobs:
            server.submit(job)
        with pytest.raises(InjectedFault):
            server.drain()
        # The crash models the OS flushing what was written, then the
        # process dying without a graceful close.
        server.tracer.flush()
        trace_path = server.store.trace_path
        del server

        reborn = JobServer(state, tracing=True)
        reborn.drain()
        reborn.close()

        by_trace = trees_by_trace(
            span for span in load_spans(trace_path) if span.cat == "job"
        )
        for job in jobs:
            assert reborn.status(job.id)["status"] == "completed"
            tree = by_trace[job.trace_id]
            assert_connected(tree, job.trace_root)
            names = [span.name for span in tree]
            # The first process saw the submit (and ran the job before the
            # commit was lost); the reborn one re-ran it — all on the one
            # trace rooted at the persisted id, so "run" appears once per
            # instance that executed the job.
            assert "submit" in names
            assert names.count("run") >= 2
            pids = {span.pid for span in tree}
            assert len(pids) == 1  # same test process, but both instances


class TestStoreTraceDurability:
    def test_trace_context_round_trips_records(self):
        job = Job(source=SOURCE, seed=1)
        clone = Job.from_record(job.to_record())
        assert clone.trace_id == job.trace_id
        assert clone.trace_root == job.trace_root

    def test_pre_observability_records_mint_fresh_context(self):
        record = Job(source=SOURCE, seed=1).to_record()
        del record["trace_id"], record["trace_root"]
        upgraded = Job.from_record(record)
        assert upgraded.trace_id
        assert upgraded.trace_root

    def test_replay_and_compaction_preserve_trace_context(self, tmp_path):
        state = str(tmp_path)
        server = JobServer(state)
        job = Job(source=SOURCE, seed=1)
        server.submit(job)
        server.drain()
        server.close()  # compacts the log
        replayed = JobStore(state).replay()[job.id]
        assert replayed.trace_id == job.trace_id
        assert replayed.trace_root == job.trace_root

    def test_torn_tail_spares_earlier_trace_context(self, tmp_path):
        state = str(tmp_path)
        store = JobStore(state, fault_injector=FaultInjector())
        survivor = Job(source=SOURCE, seed=1)
        store.append(survivor)
        store.faults.arm("store.append", payload="torn")
        with pytest.raises(InjectedFault):
            store.append(Job(source=SOURCE, seed=2))
        replayed = JobStore(state).replay()
        assert replayed[survivor.id].trace_id == survivor.trace_id
        assert replayed[survivor.id].trace_root == survivor.trace_root

    def test_requeued_running_job_keeps_its_trace(self, tmp_path):
        state = str(tmp_path)
        store = JobStore(state, fault_injector=FaultInjector())
        job = Job(source=SOURCE, seed=1)
        store.append(job)
        from repro.server.jobs import JobState

        job.status = JobState.RUNNING
        store.append(job)  # then the "process" dies
        reborn = JobServer(state, tracer=Tracer())
        assert reborn.status(job.id)["status"] in ("queued", "running")
        reborn.drain()
        recovered = reborn.store.replay()[job.id]
        assert recovered.trace_id == job.trace_id
        assert recovered.trace_root == job.trace_root
        # The requeue marked the recovery on the job's original trace.
        events = [
            span
            for span in reborn.tracer.spans(cat="job")
            if span.trace_id == job.trace_id and span.name == "recovered"
        ]
        assert len(events) == 1
        assert events[0].parent_id == job.trace_root
        reborn.close()


# ---------------------------------------------------------------------------
# tape profiling
# ---------------------------------------------------------------------------
class TestTapeProfile:
    def test_profiled_execution_is_bit_identical(self):
        from repro.backends.tape import set_tape_profiling

        program = api.compile(SOURCE, compiler="greedy").circuit
        params = BFVParameters.default(1024)
        tape = compile_tape(program, params)
        inputs = [{"a": row, "b": 2, "c": 3} for row in range(6)]
        baseline = tape.execute_batch(inputs)
        assert tape.profile_snapshot() is None  # profiling is opt-in

        previous = set_tape_profiling(True)
        assert previous is False
        try:
            profiled = tape.execute_batch(inputs)
        finally:
            assert set_tape_profiling(previous) is True

        for before, after in zip(baseline, profiled):
            assert after.outputs == before.outputs
            assert after.latency_ms == before.latency_ms
            assert after.operation_counts == before.operation_counts
            assert after.consumed_noise_budget == before.consumed_noise_budget
            assert after.remaining_noise_budget == before.remaining_noise_budget

        profile = tape.profile_snapshot()
        assert profile["batches"] == 1
        assert profile["rows"] == len(inputs)
        assert profile["ops"]
        for row in profile["ops"].values():
            assert row["count"] >= 1
            assert row["total_ns"] >= 0
            assert row["mean_ns"] == pytest.approx(
                row["total_ns"] / row["count"]
            )

    def test_profile_accumulates_across_batches(self):
        from repro.backends.tape import set_tape_profiling, tape_profiling_enabled

        program = api.compile("(* (+ a b) (+ c d))", compiler="greedy").circuit
        tape = compile_tape(program, BFVParameters.default(1024))
        previous = set_tape_profiling(True)
        try:
            assert tape_profiling_enabled()
            tape.execute_batch([{"a": 1, "b": 2, "c": 3, "d": 4}])
            tape.execute_batch([{"a": 5, "b": 6, "c": 0, "d": 1}] * 3)
        finally:
            set_tape_profiling(previous)
        assert not tape_profiling_enabled()
        profile = tape.profile_snapshot()
        assert profile["batches"] == 2
        assert profile["rows"] == 4

    def test_profile_splits_marshal_ops_and_decode(self, monkeypatch):
        """One clock pair each around the marshal, every op and the decode,
        and no clock read at all while profiling is off."""
        from repro.backends import tape as tape_module
        from repro.backends.tape import set_tape_profiling

        program = api.compile("(* (+ a b) (+ c d))", compiler="greedy").circuit
        tape = compile_tape(program, BFVParameters.default(1024))
        rows = [{"a": 1, "b": 2, "c": 3, "d": 4}, {"a": 5, "b": 6, "c": 0, "d": 1}]
        reads = []

        def clock() -> int:  # every read advances 1000 ns
            reads.append(None)
            return 1000 * len(reads)

        monkeypatch.setattr(tape_module.time, "perf_counter_ns", clock)
        tape.execute_batch(rows)
        assert reads == [] and tape.profile_snapshot() is None

        previous = set_tape_profiling(True)
        try:
            tape.execute_batch(rows)
            tape.execute_batch(rows[:1])
        finally:
            set_tape_profiling(previous)
        profile = tape.profile_snapshot()
        # the two batches' largest inputs are 6 and 4
        ops = len(tape.plan_for(6).ops) + len(tape.plan_for(4).ops)
        assert profile["marshal_ns"] == 2 * 1000
        assert profile["decode_ns"] == 2 * 1000
        assert profile["total_ns"] == ops * 1000
        assert len(reads) == 2 * (2 + 2) + 2 * ops

        tape.execute_batch(rows)  # off again: nothing read or accumulated
        assert len(reads) == 2 * (2 + 2) + 2 * ops
        assert tape.profile_snapshot() == profile


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestObservabilityCLI:
    def test_trace_export_report_and_top(self, tmp_path, capsys):
        state = str(tmp_path)
        assert cli_main(["submit", SOURCE, "--state-dir", state, "--seed", "1"]) == 0
        assert cli_main(["submit", SOURCE, "--state-dir", state, "--seed", "2"]) == 0
        assert (
            cli_main(["serve", "--state-dir", state, "--drain", "--trace"]) == 0
        )
        out = str(tmp_path / "trace.json")
        assert cli_main(["trace", "export", "--state-dir", state, "--out", out]) == 0
        with open(out, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert any(e.get("ph") == "X" for e in payload["traceEvents"])

        assert cli_main(["trace", "report", "--state-dir", state]) == 0
        report = capsys.readouterr().out
        assert "stage" in report
        assert "coverage" in report

        assert cli_main(["top", "--state-dir", state]) == 0
        frame = capsys.readouterr().out
        assert "repro top" in frame

        assert cli_main(["metrics", "--state-dir", state, "--watch", "--count", "1",
                         "--interval", "0.05"]) == 0

    def test_trace_report_without_traces_fails_cleanly(self, tmp_path):
        assert cli_main(["trace", "report", "--state-dir", str(tmp_path)]) == 1
        assert cli_main(["top", "--state-dir", str(tmp_path)]) == 1
