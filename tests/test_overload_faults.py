"""Fault-injection tests for the overload-hardened serving stack.

Every test injects one of the :mod:`repro.server.faults` faults — crash
before the tick's store commit, an exception mid-batch, a slow worker, a
torn or corrupt JSONL record — and proves the recovery invariants:

* no job is lost: every submitted job ends terminal (completed, shed or
  failed) on some server instance, and
  ``jobs_completed + jobs_shed + jobs_failed == jobs_submitted`` holds
  per instance;
* no job is duplicated: recovery requeues exactly the incomplete jobs and
  each completes once;
* no deadlock: every drain/close returns;
* telemetry stays consistent: skipped store records (torn, corrupt, or
  parsed but no valid job) and SLO violations are counted where the fault
  demands them.
"""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.__main__ import main as cli_main
from repro.server import (
    FaultInjector,
    InjectedFault,
    Job,
    JobServer,
    JobStore,
    SLOPolicy,
)

SOURCE = "(+ (* a b) c)"


def _invariant(server: JobServer) -> None:
    counters = server.telemetry.snapshot()["counters"]
    assert (
        counters.get("jobs_completed", 0)
        + counters.get("jobs_shed", 0)
        + counters.get("jobs_failed", 0)
        == counters["jobs_submitted"]
    )


class TestFaultInjector:
    def test_unarmed_sites_are_noops(self):
        faults = FaultInjector()
        assert faults.fire("server.before_commit") is None
        assert faults.fired("server.before_commit") == 0

    def test_times_decrements_and_disarms(self):
        faults = FaultInjector()
        faults.arm("site", times=2, exc=InjectedFault)
        with pytest.raises(InjectedFault):
            faults.fire("site")
        with pytest.raises(InjectedFault):
            faults.fire("site")
        assert faults.fire("site") is None
        assert faults.fired("site") == 2

    def test_disarm_and_validation(self):
        faults = FaultInjector()
        faults.arm("site", exc=InjectedFault)
        faults.disarm("site")
        assert faults.fire("site") is None
        with pytest.raises(ValueError):
            faults.arm("site", times=0)


class TestCrashBeforeCommit:
    def test_recovery_completes_every_job_exactly_once(self, tmp_path):
        state = str(tmp_path)
        faults = FaultInjector()
        faults.arm("server.before_commit", exc=InjectedFault)
        server = JobServer(state, fault_injector=faults)
        job_ids = [server.submit(Job(source=SOURCE, seed=seed)) for seed in range(3)]
        with pytest.raises(InjectedFault):
            server.drain()
        # A crashed process never runs close() (a graceful close would
        # compact the in-memory terminal states to disk and undo the
        # crash); abandoning the instance models the death.
        del server

        # The "process" died after executing the batch but before committing
        # the terminal records: the reborn server must requeue and finish
        # every job, and each exactly once.
        reborn = JobServer(state)
        reborn.drain()
        statuses = {job_id: reborn.status(job_id)["status"] for job_id in job_ids}
        assert set(statuses.values()) == {"completed"}
        rows = reborn.jobs()
        assert len(rows) == len(job_ids) == len({row["id"] for row in rows})
        _invariant(reborn)
        reborn.close()


class TestTornAndCorruptRecords:
    def test_torn_final_record_is_skipped_and_job_requeued(self, tmp_path):
        state = str(tmp_path)
        server = JobServer(state)
        done_id = server.submit(Job(source=SOURCE, seed=1))
        server.drain()
        # The next job's queued record commits, then the terminal record of
        # its completion is torn mid-write (simulated crash).
        torn_id = server.submit(Job(source=SOURCE, seed=2))
        server.faults.arm("store.append", payload="torn")
        with pytest.raises(InjectedFault):
            server.drain()
        del server  # crash mid-write: no graceful close

        reborn = JobServer(state)
        # Exactly the job whose terminal record was torn away is requeued;
        # the torn tail is counted, not crashed on.
        assert reborn.status(torn_id)["status"] in ("queued", "running")
        assert reborn.status(done_id)["status"] == "completed"
        assert reborn.store.skipped_records == 1
        counters = reborn.telemetry.snapshot()["counters"]
        assert counters["store_skipped_records"] == 1
        reborn.drain()
        assert reborn.status(torn_id)["status"] == "completed"
        _invariant(reborn)
        reborn.close()

    def test_corrupt_mid_log_record_is_skipped_with_counter(self, tmp_path):
        state = str(tmp_path)
        store = JobStore(state, fault_injector=FaultInjector())
        first = Job(source=SOURCE, seed=1)
        second = Job(source=SOURCE, seed=2)
        store.append(first)
        store.faults.arm("store.append", payload="corrupt")
        store.append(second)  # this record's bytes rot on disk
        third = Job(source=SOURCE, seed=3)
        store.append(third)

        fresh = JobStore(state)
        jobs = fresh.replay()
        assert set(jobs) == {first.id, third.id}
        assert fresh.skipped_records == 1

        # A server over the same directory serves what survived and mirrors
        # the skip count into telemetry.
        server = JobServer(state)
        counters = server.telemetry.snapshot()["counters"]
        assert counters["store_skipped_records"] == 1
        server.drain()
        assert server.status(first.id)["status"] == "completed"
        assert server.status(third.id)["status"] == "completed"
        _invariant(server)
        server.close()

    @pytest.mark.parametrize(
        "record",
        [
            {"kind": "bogus", "source": "(+ a b)"},
            # A pre-lowered job of an older log: a circuit and no source.
            {
                "kind": "execute",
                "source": None,
                "circuit": {
                    "name": "pre-lowered",
                    "instructions": [],
                    "outputs": [],
                    "scalar_inputs": [],
                },
                "inputs": {"a": 1},
            },
        ],
        ids=["bogus-kind", "circuit-only"],
    )
    def test_parsed_but_invalid_record_is_skipped_with_counter(self, tmp_path, record):
        """A record that is valid JSON but no valid job must not stop the
        server from starting (replay) or serving (poll): it is skipped and
        counted like a torn line, and every valid job still runs."""
        state = str(tmp_path)
        store = JobStore(state)
        valid = Job(source=SOURCE, seed=1)
        store.append(valid)

        def append_raw(job_id: str) -> None:
            with open(store.log_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(dict(record, id=job_id, status="queued")) + "\n")

        append_raw("replayed")
        server = JobServer(state)
        assert server.store.skipped_records == 1
        assert server.telemetry.snapshot()["counters"]["store_skipped_records"] == 1
        append_raw("polled")
        late = Job(source=SOURCE, seed=2)
        store.append(late)
        server.drain()
        counters = server.telemetry.snapshot()["counters"]
        assert counters["store_skipped_records"] == 2
        assert {row["id"] for row in server.jobs()} == {valid.id, late.id}
        assert server.status(valid.id)["status"] == "completed"
        assert server.status(late.id)["status"] == "completed"
        _invariant(server)
        server.close()

    def test_append_after_torn_tail_starts_on_fresh_line(self, tmp_path):
        state = str(tmp_path)
        store = JobStore(state, fault_injector=FaultInjector())
        store.faults.arm("store.append", payload="torn")
        with pytest.raises(InjectedFault):
            store.append(Job(source=SOURCE, seed=1))
        survivor = Job(source=SOURCE, seed=2)
        store.append(survivor)  # must seal the torn tail, not extend it
        jobs = JobStore(state).replay()
        assert set(jobs) == {survivor.id}


class TestMidBatchFaults:
    def test_exception_mid_batch_is_retried_to_completion(self):
        faults = FaultInjector()
        faults.arm("server.mid_batch", exc=RuntimeError)
        server = JobServer(fault_injector=faults)
        job_ids = [
            server.submit(Job(source=SOURCE, seed=seed, max_retries=1))
            for seed in range(3)
        ]
        server.drain()
        for job_id in job_ids:
            assert server.status(job_id)["status"] == "completed"
        counters = server.telemetry.snapshot()["counters"]
        assert counters["jobs_retried"] >= 1
        _invariant(server)
        server.close()

    def test_exception_mid_batch_without_retries_fails_jobs(self):
        faults = FaultInjector()
        faults.arm("server.mid_batch", exc=RuntimeError)
        server = JobServer(fault_injector=faults)
        job_id = server.submit(Job(source=SOURCE, seed=0, max_retries=0))
        server.drain()
        row = server.status(job_id)
        assert row["status"] == "failed"
        assert row["error"]
        _invariant(server)
        server.close()

    def test_slow_worker_trips_run_slo_violation(self):
        policy = SLOPolicy.from_budgets({0: 60.0}, {0: 0.01})
        faults = FaultInjector()
        faults.arm("server.slow_worker", sleep_s=0.05)
        server = JobServer(slo=policy, fault_injector=faults)
        job_id = server.submit(Job(source=SOURCE, seed=0))
        server.drain()
        assert server.status(job_id)["status"] == "completed"
        counters = server.telemetry.snapshot()["counters"]
        assert counters["slo_violations_run_p0"] >= 1
        assert counters["slo_violations"] >= 1
        assert server.slo_report()["0"]["violations_run"] >= 1
        _invariant(server)
        server.close()


class TestShedSurface:
    def test_shed_status_reaches_api_and_cli(self, tmp_path, capsys):
        state = str(tmp_path)
        server = JobServer(state, queue_capacity=1)
        job_ids = [server.submit(Job(source=SOURCE, seed=seed)) for seed in range(3)]
        statuses = [server.status(job_id)["status"] for job_id in job_ids]
        assert statuses.count("shed") == 2 and statuses.count("queued") == 1
        shed_id = job_ids[statuses.index("shed")]

        # api.status surfaces the terminal shed state + reason, api.result
        # refuses to wait for a result that will never exist.
        row = api.status(shed_id, server=server)
        assert row["status"] == "shed"
        assert "shed" in row["error"]
        with pytest.raises(RuntimeError, match="shed"):
            api.result(shed_id, server=server)
        server.drain()
        _invariant(server)
        server.close()

        # The state dir read path and the CLI agree.
        assert api.status(shed_id, state_dir=state)["status"] == "shed"
        with pytest.raises(RuntimeError, match="shed"):
            api.result(shed_id, state_dir=state, timeout=5.0)
        assert cli_main(["jobs", "--state-dir", state, "--status", "shed"]) == 0
        out = capsys.readouterr().out
        assert out.count("shed") >= 2 and "2 job(s)" in out

    def test_closed_server_after_faults_is_reusable_dir(self, tmp_path):
        # A dir that saw a crash plus sheds still opens cleanly.
        state = str(tmp_path)
        faults = FaultInjector()
        faults.arm("server.before_commit", exc=InjectedFault)
        server = JobServer(state, queue_capacity=1, fault_injector=faults)
        for seed in range(3):
            server.submit(Job(source=SOURCE, seed=seed))
        with pytest.raises(InjectedFault):
            server.drain()
        del server  # crash: no graceful close

        reborn = JobServer(state)
        reborn.drain()
        statuses = sorted(row["status"] for row in reborn.jobs())
        assert statuses == ["completed", "shed", "shed"]
        _invariant(reborn)
        reborn.close()
