"""The persistent job store: an append-only JSONL event log.

Every job state change is appended to ``jobs.jsonl`` under the server's
``state_dir`` as one self-contained JSON record (see
:meth:`~repro.server.jobs.Job.to_record`), so the store is simultaneously

* **durable state** — :meth:`JobStore.replay` folds the log newest-wins into
  the current job table, which is how a restarted server recovers its queue
  (jobs caught mid-``running`` by a crash are requeued by the server);
* **the submission channel** — ``repro submit`` appends a ``queued`` record
  from another process and the serving loop picks it up through
  :meth:`JobStore.poll`, which tails the log past the last offset this store
  instance has seen.  No sockets, no daemons: the filesystem is the wire.

``state_dir=None`` gives an in-memory store with the same interface, used by
purely in-process servers (tests, the benchmark load generator).  It keeps
the record dicts :meth:`~repro.server.jobs.Job.to_record` built instead of
round-tripping them through JSON; a rooted store writes the same bytes as
ever.

Appends and compaction hold an exclusive ``fcntl`` lock on a sidecar lock
file on POSIX (not on the log itself, whose inode compaction replaces), so
concurrent client submissions interleave whole records and can never land
on an orphaned inode; :meth:`JobStore.compact` rewrites the log to one
record per job.

Recovery is hardened against damaged logs: torn (half-written) and corrupt
records, and records that parse but describe no valid job, are skipped and
tallied in :attr:`JobStore.skipped_records` rather than crashing replay;
appends seal a torn tail with a newline before writing so new records never
concatenate into old garbage; and the
:mod:`repro.server.faults` hooks let tests inject exactly those damage
modes.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.trace import NULL_TRACER, Tracer
from repro.server.faults import InjectedFault
from repro.server.jobs import Job

__all__ = ["JobStore"]

try:  # POSIX only; Windows falls back to the in-process lock.
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

LOG_NAME = "jobs.jsonl"
LOCK_NAME = "jobs.jsonl.lock"
GENERATION_NAME = "jobs.jsonl.gen"
METRICS_NAME = "metrics.json"
TRACE_NAME = "traces.jsonl"


class JobStore:
    """Append-only JSONL persistence for jobs (or in-memory when unrooted).

    The state directory is created lazily on the first *write*, so read-only
    consumers (``repro jobs``/``repro metrics``, ``api.status``) never
    create directories as a side effect of a mistyped path.
    """

    def __init__(
        self,
        state_dir: Optional[str] = None,
        *,
        fault_injector: Optional[object] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.state_dir = os.path.abspath(state_dir) if state_dir else None
        #: Armed-trigger registry for the recovery tests (see
        #: :mod:`repro.server.faults`); None in production use.
        self.faults = fault_injector
        #: Span collector for the ``persist`` / ``store_replay`` /
        #: ``store_compact`` stages; the server passes its tracer in, bare
        #: client-side stores default to the disabled singleton.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Log records skipped so far by this store instance — torn
        #: (half-written) appends, corrupt (bit-rotted) lines and records
        #: :meth:`Job.from_record` rejects.  The server mirrors this into the
        #: ``store_skipped_records`` counter.
        self.skipped_records = 0
        self._lock = threading.Lock()
        #: Log byte offset up to which :meth:`poll` has already read.
        self._offset = 0
        #: Identity ``(st_dev, st_ino, compaction generation)`` of the log
        #: the offset belongs to.  Compaction atomically *replaces* the
        #: log's inode, so a mere size comparison cannot tell "same log,
        #: new appends" from "new log that regrew past my old offset"; the
        #: generation counter (bumped by every :meth:`compact`) closes the
        #: remaining ABA hole where a freed inode is reused by a later
        #: compaction's temp file.
        self._log_ident: Optional[Tuple[int, int, int]] = None
        #: In-memory record log standing in for the file when unrooted.
        self._memory: List[Dict[str, object]] = []

    # -- paths --------------------------------------------------------------
    @property
    def persistent(self) -> bool:
        return self.state_dir is not None

    @property
    def log_path(self) -> Optional[str]:
        if self.state_dir is None:
            return None
        return os.path.join(self.state_dir, LOG_NAME)

    @property
    def metrics_path(self) -> Optional[str]:
        if self.state_dir is None:
            return None
        return os.path.join(self.state_dir, METRICS_NAME)

    @property
    def trace_path(self) -> Optional[str]:
        if self.state_dir is None:
            return None
        return os.path.join(self.state_dir, TRACE_NAME)

    @property
    def generation_path(self) -> Optional[str]:
        if self.state_dir is None:
            return None
        return os.path.join(self.state_dir, GENERATION_NAME)

    def _read_generation(self) -> int:
        """The log's compaction generation (0 when never compacted)."""
        try:
            with open(self.generation_path, "r", encoding="utf-8") as handle:
                return int(handle.read().strip() or 0)
        except (OSError, ValueError):
            return 0

    def _locked_file(self):
        """An exclusively flocked handle on the sidecar lock file.

        Appends and :meth:`compact` both serialize on this *separate* lock
        file rather than on ``jobs.jsonl`` itself: compaction atomically
        replaces the log's inode, so a writer flocking the log could hold a
        lock on an orphaned inode and silently lose its record.
        """
        os.makedirs(self.state_dir, exist_ok=True)
        handle = open(os.path.join(self.state_dir, LOCK_NAME), "a")
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        return handle

    # -- writing ------------------------------------------------------------
    def append(self, job: Job) -> None:
        """Durably append ``job``'s current state as one log record."""
        self.append_records([job.to_record()])

    def append_record(self, record: Dict[str, object]) -> None:
        self.append_records([record])

    def append_records(self, records: Sequence[Dict[str, object]]) -> None:
        """Durably append many records in one locked open + fsync.

        The batch form is the serving loop's hot path: one coalesced tick
        transitions N jobs, which must not cost N separate fsyncs.
        """
        if not records:
            return
        with self.tracer.span(
            "persist", attrs={"records": len(records), "durable": self.persistent}
        ):
            self._append_records(records)

    def _append_records(self, records: Sequence[Dict[str, object]]) -> None:
        if self.state_dir is None:
            # to_record() builds each record from JSON values and nothing
            # mutates it afterwards, so the log keeps it as built: a JSON
            # round trip would only copy it into an equal dict.
            with self._lock:
                if self._offset == len(self._memory):
                    self._offset += len(records)
                self._memory.extend(records)
            return
        lines = [json.dumps(record, sort_keys=True) for record in records]
        with self._lock:
            lock_handle = self._locked_file()
            try:
                fault = self.faults.fire("store.append") if self.faults is not None else None
                if fault is not None and fault.payload == "corrupt":
                    # Bit rot at write time: scramble the first record's
                    # bytes but keep the newline framing and keep going —
                    # the record must be *skipped* on replay, not crash it.
                    lines[0] = lines[0][: max(1, len(lines[0]) // 2)] + "#corrupt#"
                payload = "".join(line + "\n" for line in lines)
                pre_size = (
                    os.path.getsize(self.log_path)
                    if os.path.exists(self.log_path)
                    else 0
                )
                if pre_size:
                    # Seal a torn tail (a previous writer crashed mid-record)
                    # with its own newline, so our records start on a fresh
                    # line instead of concatenating into the garbage.
                    with open(self.log_path, "rb") as check:
                        check.seek(pre_size - 1)
                        if check.read(1) != b"\n":
                            payload = "\n" + payload
                if fault is not None and fault.payload == "torn":
                    # Crash mid-write: the batch's final record is cut in
                    # half and never gets its newline, then the "process"
                    # dies before returning.
                    data = payload.encode("utf-8")
                    cut = len(data) - (len(lines[-1].encode("utf-8")) // 2 + 1)
                    with open(self.log_path, "ab") as handle:
                        handle.write(data[: max(1, cut)])
                        handle.flush()
                        os.fsync(handle.fileno())
                    raise InjectedFault("simulated crash mid-append (torn record)")
                with open(self.log_path, "a", encoding="utf-8") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                    stat = os.fstat(handle.fileno())
                ident = (stat.st_dev, stat.st_ino, self._read_generation())
                if self._log_ident is None or ident == self._log_ident:
                    if self._offset == pre_size:
                        # Nothing unread preceded our own records:
                        # fast-forward the poll offset past them so the
                        # serving loop doesn't re-scan its own appends
                        # forever.
                        self._offset = pre_size + len(payload.encode("utf-8"))
                    self._log_ident = ident
                # else: another process compacted (replaced) the log since we
                # last read it; keep the stale identity so the next poll
                # notices the mismatch and re-reads from the start.
            finally:
                if fcntl is not None:
                    fcntl.flock(lock_handle.fileno(), fcntl.LOCK_UN)
                lock_handle.close()

    # -- reading ------------------------------------------------------------
    def _read_records(
        self, start: int = 0, *, count_partial_tail: bool = False
    ) -> Tuple[List[Dict[str, object]], int]:
        """Records from byte/sequence offset ``start``, plus the new offset.

        ``start`` is only honoured when the log file is still the one the
        offset was taken against (same ``(st_dev, st_ino)`` identity).  A log
        replaced by another process's compaction — even one that has since
        regrown *past* ``start`` — is re-read from the beginning: records
        fold newest-wins, so re-seeing old state is harmless, while seeking
        into the middle of a record of the new log would drop or mis-parse
        cross-process submissions.

        Unparseable lines (a record torn in half by a crashed writer, a
        corrupt line from bit rot) are *skipped* and tallied in
        :attr:`skipped_records` — one bad record must never take down
        recovery, and the log folds newest-wins so skipping one state
        transition at worst re-runs a job.  With ``count_partial_tail``
        (the full-log replay), trailing bytes without a newline are counted
        as a torn record too; incremental polls leave them uncounted since
        they may be a concurrent append still in flight.
        """
        if self.state_dir is None:
            return list(self._memory[start:]), len(self._memory)
        path = self.log_path
        if not os.path.exists(path):
            return [], 0
        with open(path, "rb") as handle:
            stat = os.fstat(handle.fileno())
            ident = (stat.st_dev, stat.st_ino, self._read_generation())
            if start and (ident != self._log_ident or stat.st_size < start):
                start = 0
            self._log_ident = ident
            handle.seek(start)
            data = handle.read()
        records: List[Dict[str, object]] = []
        consumed = 0
        for raw in data.split(b"\n"):
            advance = len(raw) + 1
            if consumed + advance > len(data):
                # Trailing bytes without a newline: either a concurrent
                # append mid-write (leave them for the next poll) or, on a
                # full replay after a crash, a torn final record.
                if count_partial_tail and raw.strip():
                    self.skipped_records += 1
                break
            consumed += advance
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self.skipped_records += 1
                continue
            if not isinstance(record, dict) or "id" not in record:
                self.skipped_records += 1
                continue
            records.append(record)
        return records, start + consumed

    def _jobs_from(self, records: Sequence[Dict[str, object]]) -> List[Job]:
        """The jobs ``records`` describe, in order.

        A record that parses but is not a valid job (an unknown kind, no
        source, a mistyped field) is skipped and tallied like a torn line,
        so one such record cannot stop a server from starting.
        """
        jobs = []
        for record in records:
            try:
                jobs.append(Job.from_record(record))
            except (ValueError, TypeError, AttributeError):
                self.skipped_records += 1
        return jobs

    def replay(self) -> Dict[str, Job]:
        """Fold the whole log newest-wins into ``{job_id: Job}``.

        Also fast-forwards this store's poll offset to the end of the log, so
        a subsequent :meth:`poll` only sees records appended afterwards.
        """
        with self.tracer.span("store_replay") as span:
            with self._lock:
                records, self._offset = self._read_records(0, count_partial_tail=True)
                jobs = {job.id: job for job in self._jobs_from(records)}
            span.set_attr("records", len(records))
            span.set_attr("jobs", len(jobs))
        return jobs

    def poll(self) -> List[Job]:
        """Jobs from records appended since the last replay/poll.

        This is the server side of cross-process submission: clients append
        ``queued`` records, the serving loop polls them into its queue.  A
        log whose file identity changed since the last poll (another process
        compacted it — detected by inode, not size, so a log that regrew
        past the saved offset is caught too) is re-read from the start —
        records fold newest-wins, so re-seeing old state is harmless while
        missing new state is not.
        """
        with self._lock:
            records, self._offset = self._read_records(self._offset)
            return self._jobs_from(records)

    def compact(self, jobs: Iterable[Job]) -> None:
        """Rewrite the log to exactly one record per job (atomic replace).

        Holds the same sidecar lock as appends, so a concurrent client
        submission cannot land on the replaced inode and vanish.
        """
        records = [job.to_record() for job in jobs]
        with self.tracer.span("store_compact", attrs={"jobs": len(records)}), self._lock:
            if self.state_dir is None:
                self._memory = records
                self._offset = len(records)
                return
            lock_handle = self._locked_file()
            try:
                tmp_path = self.log_path + ".tmp"
                with open(tmp_path, "w", encoding="utf-8") as handle:
                    for record in records:
                        handle.write(json.dumps(record, sort_keys=True) + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, self.log_path)
                # Bump the compaction generation (atomic replace, same lock):
                # even if a later compaction's temp file reuses this log's
                # freed inode, readers still see the identity change.
                generation = self._read_generation() + 1
                gen_tmp = self.generation_path + ".tmp"
                with open(gen_tmp, "w", encoding="utf-8") as handle:
                    handle.write(f"{generation}\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(gen_tmp, self.generation_path)
                stat = os.stat(self.log_path)
                self._offset = stat.st_size
                self._log_ident = (stat.st_dev, stat.st_ino, generation)
            finally:
                if fcntl is not None:
                    fcntl.flock(lock_handle.fileno(), fcntl.LOCK_UN)
                lock_handle.close()
