"""A thread-safe priority queue of jobs with batch draining and overload
protection.

The scheduling loop of the :class:`~repro.server.server.JobServer` does not
pop one job at a time: coalescing only works when the scheduler can see
*all* currently pending work, group it by circuit fingerprint and hand whole
groups to the backend.  :meth:`JobQueue.pop_batch` therefore drains every
queued job in priority order in one call (blocking until at least one is
available or the timeout lapses).

Ordering: higher *effective* priority first, then submission order (a
monotonically increasing sequence number breaks ties), so the ordering is a
strict total order and the queue is deterministic.  With ``aging_interval_s``
set, the effective priority of a waiting job rises by one level per interval
waited, so under sustained high-priority pressure a low-priority job cannot
starve: eventually its aged priority overtakes fresh arrivals.

Overload protection is the queue's second job:

* ``capacity`` bounds the total queue depth.  When a push overflows it, the
  entry with the *lowest* effective priority — the incoming job or a queued
  one it displaces — is shed and returned to the caller, which gives it a
  terminal ``SHED`` status.  Ties shed the youngest entry, so FIFO fairness
  within a priority level survives overload.
* ``per_priority_capacity`` bounds each base-priority level separately
  (backpressure per class): one flooding priority fills only its own slots,
  and its overflow is shed even while the queue has room overall.

The queue also maintains per-priority counts, which is what the admission
controller reads (:meth:`JobQueue.depth_at_or_above`) to turn backlog into
an estimated drain time without walking the queue.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.server.jobs import Job

__all__ = ["JobQueue", "ENQUEUED_AT_ATTR"]

#: Attribute the queue stamps on jobs at enqueue time (wall-clock seconds).
#: Retried jobs are re-pushed and re-stamped, so the tracer's per-attempt
#: ``queue_wait`` span starts at that attempt's own enqueue instead of the
#: original submission.
ENQUEUED_AT_ATTR = "_enqueued_wall"


class JobQueue:
    """Priority queue: higher effective priority first, FIFO within a level.

    Parameters
    ----------
    capacity:
        Maximum queued jobs; pushes beyond it shed the lowest-effective-
        priority entry (None: unbounded, the pre-overload behaviour).
    per_priority_capacity:
        Maximum queued jobs *per base priority level*; an arrival into a
        full level is shed immediately, regardless of total occupancy.
    aging_interval_s:
        Seconds of waiting that raise a job's effective priority by one
        level (None: no aging, effective == base priority).
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        *,
        per_priority_capacity: Optional[int] = None,
        aging_interval_s: Optional[float] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if per_priority_capacity is not None and per_priority_capacity < 1:
            raise ValueError("per-priority capacity must be at least 1")
        if aging_interval_s is not None and aging_interval_s <= 0.0:
            raise ValueError("aging interval must be positive")
        self.capacity = capacity
        self.per_priority_capacity = per_priority_capacity
        self.aging_interval_s = aging_interval_s
        self._entries: List[Tuple[int, Job]] = []  # guarded-by: _lock
        self._sequence = itertools.count()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._count_by_priority: Dict[int, int] = {}  # guarded-by: _lock

    # -- priority & ordering -------------------------------------------------
    def effective_priority(self, job: Job, now: Optional[float] = None) -> int:
        """Base priority plus one level per aging interval waited."""
        if self.aging_interval_s is None:
            return job.priority
        if now is None:
            now = time.time()
        waited = max(0.0, now - job.submitted_at)
        return job.priority + int(waited / self.aging_interval_s)

    def _sort_key(self, entry: Tuple[int, Job], now: float) -> Tuple[int, int]:
        sequence, job = entry
        return (-self.effective_priority(job, now), sequence)

    # -- bookkeeping (all under self._lock) ----------------------------------
    def _account_add(self, job: Job) -> None:  # holds: _lock
        self._count_by_priority[job.priority] = (
            self._count_by_priority.get(job.priority, 0) + 1
        )

    def _account_remove(self, job: Job) -> None:  # holds: _lock
        remaining = self._count_by_priority.get(job.priority, 0) - 1
        if remaining > 0:
            self._count_by_priority[job.priority] = remaining
        else:
            self._count_by_priority.pop(job.priority, None)

    # -- backlog queries ------------------------------------------------------
    def depth_at_or_above(self, priority: int) -> int:
        """Queued jobs whose *base* priority is >= ``priority``."""
        with self._lock:
            return sum(
                count
                for level, count in self._count_by_priority.items()
                if level >= priority
            )

    # -- mutation -------------------------------------------------------------
    def push(self, job: Job) -> Optional[Job]:
        """Enqueue ``job``; returns the job shed by overload, if any.

        None means the push succeeded with room to spare.  A returned job is
        either the incoming one (its priority level is full, or it is the
        cheapest entry of a full queue) or a displaced queued job whose
        effective priority was the lowest; the caller owns giving it a
        terminal ``SHED`` status.
        """
        setattr(job, ENQUEUED_AT_ATTR, time.time())
        with self._not_empty:
            level_count = self._count_by_priority.get(job.priority, 0)
            if (
                self.per_priority_capacity is not None
                and level_count >= self.per_priority_capacity
            ):
                return job
            if self.capacity is not None and len(self._entries) >= self.capacity:
                # Fast path: if the incoming job's base priority is not above
                # any queued level, it is provably its own victim — aging only
                # *raises* queued entries' effective priority, and the
                # youngest-sheds tie break goes against a fresh arrival.  This
                # keeps a flooded low-priority class from paying an O(n) scan
                # (plus a displacement) per overflowing push.
                if job.priority <= min(self._count_by_priority):
                    return job
                now = time.time()
                sequence = next(self._sequence)
                victim_index = None
                victim_key = (-self.effective_priority(job, now), sequence)
                for index, entry in enumerate(self._entries):
                    key = self._sort_key(entry, now)
                    if key > victim_key:  # larger key sorts later = lower rank
                        victim_index = index
                        victim_key = key
                if victim_index is None:
                    return job
                _, victim = self._entries.pop(victim_index)
                self._account_remove(victim)
                self._entries.append((sequence, job))
                self._account_add(job)
                self._not_empty.notify()
                return victim
            self._entries.append((next(self._sequence), job))
            self._account_add(job)
            self._not_empty.notify()
            return None

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """The highest-effective-priority job, or None on timeout."""
        with self._not_empty:
            if not self._entries and not self._not_empty.wait_for(
                lambda: bool(self._entries), timeout=timeout
            ):
                return None
            now = time.time()
            best = min(range(len(self._entries)), key=lambda i: self._sort_key(self._entries[i], now))
            _, job = self._entries.pop(best)
            self._account_remove(job)
            return job

    def pop_batch(self, timeout: Optional[float] = None) -> List[Job]:
        """Drain every queued job in effective-priority order.

        Blocks until at least one job is available (or ``timeout`` seconds
        pass, returning ``[]``).  This is what lets the scheduler see the
        whole pending set at once and coalesce across it.  Aging is applied
        at drain time: the ordering reflects each job's waited time *now*,
        not its rank when it was pushed.
        """
        with self._not_empty:
            if not self._entries and (
                (timeout is not None and timeout <= 0)
                or not self._not_empty.wait_for(
                    lambda: bool(self._entries), timeout=timeout
                )
            ):
                return []
            now = time.time()
            self._entries.sort(key=lambda entry: self._sort_key(entry, now))
            jobs = [job for _, job in self._entries]
            self._entries.clear()
            self._count_by_priority.clear()
            return jobs

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._count_by_priority.clear()
