#!/usr/bin/env python
"""CI smoke of the job-orchestration server.

Starts a :class:`~repro.server.server.JobServer` in-process over a temporary
state directory, submits a mixed compile + execute workload (several users
requesting the same kernels, so the coalescer has something to merge), drains
it and checks the invariants CI cares about:

* every job reaches ``completed`` and every verified execution is correct;
* the telemetry snapshot reports > 0 coalesced batches and the coalesced
  batch sizes add up (one vector-VM tape pass served N queued users);
* results survive a server restart (the JSONL store replays them);
* a job submitted through the store by a "client" process is picked up;
* record parity: one fixed submission script run on an in-memory server
  and on a state-dir server leaves byte-identical job records (volatile
  fields masked), including ``result.outputs``, ``references`` and
  ``correct`` — the in-memory store keeps records without a JSON round
  trip, the state-dir store writes them as JSON lines.

Exits non-zero (with a one-line reason) on any violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )

from repro import api
from repro.ir.printer import to_sexpr
from repro.kernels.registry import benchmark_by_name
from repro.server import Job, JobServer, JobStore

KERNELS = ("dot_product_4", "l2_distance_4", "hamming_distance_4")
#: Record fields that legitimately differ between two runs of one script.
VOLATILE = ("id", "trace_id", "trace_root", "submitted_at", "started_at", "finished_at")


def submission_script(server: JobServer) -> list:
    """Submit a fixed mixed workload, drain it, return the job ids in order."""
    sources = {name: to_sexpr(benchmark_by_name(name).expression()) for name in KERNELS}
    circuit = api.compile("(Vec (* a b) (- c d))", "greedy", name="pre-lowered").circuit
    jobs = []
    for name, source in sources.items():
        jobs += [Job(source=source, seed=user, name=f"{name}/u{user}") for user in range(4)]
        jobs.append(Job(source=source, kind="compile", name=name))
    jobs += [
        Job(source="(+ (* a b) c)", inputs={"a": -2, "b": 3, "c": 2**40}, priority=2),
        Job(source="(Vec (+ a b) (* a (- b)))", seed=7, input_range=1000),
        Job(program=circuit, inputs={"a": 1, "b": 2, "c": 3, "d": 4}),
    ]
    ids = [server.submit(job) for job in jobs]
    server.drain()
    return ids


def masked_records(records: list) -> str:
    """One JSON line per record, volatile fields (and compile times) masked."""
    lines = []
    for record in records:
        record = dict(record)
        for key in VOLATILE:
            record[key] = None
        if record.get("kind") == "compile" and record.get("result"):
            record["result"] = dict(record["result"], compile_time_s=None)
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines)


def record_parity(state_dir: str) -> str:
    """Run :func:`submission_script` in memory and on ``state_dir``; return
    a failure reason, or "" when the masked records are byte-identical."""

    def stored_records(server: JobServer) -> list:
        ids = submission_script(server)
        jobs = server.store.replay()  # the store's log, folded newest-wins
        server.close()
        return [jobs[job_id].to_record() for job_id in ids]

    memory_records = stored_records(JobServer(backend="vector-vm"))
    durable_records = stored_records(JobServer(state_dir, backend="vector-vm"))
    for record in memory_records:
        if record["status"] != "completed":
            return f"job {record['name']} is {record['status']}: {record['error']}"
        verified = record["kind"] == "execute" and record["source"] is not None
        if verified and record["result"].get("correct") is not True:
            return f"job {record['name']} not verified correct: {record['result']}"
    if masked_records(memory_records) != masked_records(durable_records):
        return "in-memory and state-dir job records differ"
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="vector-vm")
    parser.add_argument("--users", type=int, default=6, help="execute jobs per kernel")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="repro-server-smoke-") as state_dir:
        server = JobServer(state_dir, backend=args.backend)
        sources = {name: to_sexpr(benchmark_by_name(name).expression()) for name in KERNELS}

        execute_ids = []
        for name, source in sources.items():
            for user in range(args.users):
                execute_ids.append(
                    server.submit(Job(source=source, seed=user, name=f"{name}/u{user}"))
                )
        compile_ids = [
            server.submit(Job(source=source, kind="compile", name=name))
            for name, source in sources.items()
        ]
        # A "client" submission through the store rather than the object.
        client_job = Job(source="(+ (* a b) c)", inputs={"a": 2, "b": 3, "c": 4})
        JobStore(state_dir).append(client_job)

        processed = server.drain()
        expected = len(execute_ids) + len(compile_ids) + 1
        if processed != expected:
            print(f"FAIL: drained {processed} jobs, expected {expected}", file=sys.stderr)
            return 1

        for job_id in execute_ids + [client_job.id]:
            payload = server.result(job_id)
            if not payload.get("correct", False):
                print(f"FAIL: job {job_id} not verified correct: {payload}", file=sys.stderr)
                return 1
        for job_id in compile_ids:
            if "final_cost" not in server.result(job_id):
                print(f"FAIL: compile job {job_id} missing final_cost", file=sys.stderr)
                return 1

        snapshot = server.telemetry.snapshot()
        counters = snapshot["counters"]
        coalesced_batches = counters.get("batches_coalesced", 0)
        coalesced_jobs = counters.get("coalesced_jobs", 0)
        if coalesced_batches <= 0:
            print("FAIL: telemetry reports no coalesced batches", file=sys.stderr)
            return 1
        if coalesced_jobs < len(KERNELS) * args.users:
            print(
                f"FAIL: only {coalesced_jobs} jobs coalesced, expected >= "
                f"{len(KERNELS) * args.users}",
                file=sys.stderr,
            )
            return 1
        if counters.get("jobs_failed", 0) != 0:
            print("FAIL: some jobs failed", file=sys.stderr)
            return 1
        server.close()

        # Restart: the store replays every terminal job.
        reborn = JobServer(state_dir)
        replayed = [row["status"] for row in reborn.jobs()]
        if len(replayed) != expected or set(replayed) != {"completed"}:
            print(f"FAIL: replay after restart saw {replayed}", file=sys.stderr)
            return 1

        print(
            f"jobs={expected} coalesced_batches={int(coalesced_batches)} "
            f"coalesced_jobs={int(coalesced_jobs)} backend={args.backend}"
        )

    with tempfile.TemporaryDirectory(prefix="repro-server-parity-") as state_dir:
        failure = record_parity(state_dir)
        if failure:
            print(f"FAIL: record parity: {failure}", file=sys.stderr)
            return 1
        print("record parity: in-memory and state-dir job records byte-identical")
    print("server smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
