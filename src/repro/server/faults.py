"""Deterministic fault injection for the serving stack's recovery tests.

Proving the server's recovery invariants — no job lost, no job duplicated,
no deadlock, consistent telemetry — needs faults that fire at *exact*
points in the pipeline, not whenever a signal happens to land.
:class:`FaultInjector` is a tiny armed-trigger registry threaded through
:class:`~repro.server.server.JobServer` and
:class:`~repro.server.store.JobStore`: production code calls
:meth:`FaultInjector.fire` at named sites, which is a no-op until a test
arms that site.

Instrumented sites:

``server.before_commit``
    In :meth:`JobServer.tick`, immediately before the tick's state
    transitions are flushed to the store.  Arming an exception here models
    a crash after work ran but before it was committed: the store still
    says ``queued``, and a restarted server must re-run the work.
``server.mid_batch``
    Inside the per-backend execution loop, before the backend runs a
    coalesced batch.  An exception here fails (or retries) every job of the
    batch through the ordinary failure path.
``server.slow_worker``
    Same place, armed with ``sleep_s`` instead: stalls the tick so run
    latencies blow past their SLO budgets deterministically.
``store.append``
    In :meth:`JobStore.append_records`, before the payload is written.
    Armed with ``payload="torn"`` the store writes the batch truncated
    mid-record and then raises (a crash mid-write); with
    ``payload="corrupt"`` it scrambles one record's bytes but keeps
    appending (bit rot).  Both must be *skipped* with a counter on replay,
    never crash recovery.

Faults are armed for a finite number of firings (default one), so a test
can inject a crash, rebuild the server over the same state directory and
let the retry run clean.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["Fault", "FaultInjector", "InjectedFault"]


class InjectedFault(RuntimeError):
    """The exception armed faults raise (distinguishable from real bugs)."""


@dataclass
class Fault:
    """One armed fault: what happens when its site fires."""

    site: str
    #: Remaining firings before the fault disarms itself.
    times: int = 1
    #: Exception instance or class to raise (after any sleep).
    exc: Optional[object] = None
    #: Seconds to stall the firing thread (slow-worker style faults).
    sleep_s: Optional[float] = None
    #: Free-form directive for sites that interpret the fault themselves
    #: (the store's ``"torn"`` / ``"corrupt"`` write modes).
    payload: Optional[str] = None


@dataclass
class _FiringLog:
    fired: Dict[str, int] = field(default_factory=dict)


class FaultInjector:
    """An armed-trigger registry the serving stack fires at named sites."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._armed: Dict[str, Fault] = {}
        self._log = _FiringLog()

    def arm(
        self,
        site: str,
        *,
        times: int = 1,
        exc: Optional[object] = None,
        sleep_s: Optional[float] = None,
        payload: Optional[str] = None,
    ) -> Fault:
        """Arm ``site`` to misbehave for the next ``times`` firings."""
        if times < 1:
            raise ValueError("a fault must be armed for at least one firing")
        fault = Fault(site=site, times=times, exc=exc, sleep_s=sleep_s, payload=payload)
        with self._lock:
            self._armed[site] = fault
        return fault

    def disarm(self, site: str) -> None:
        with self._lock:
            self._armed.pop(site, None)

    def fired(self, site: str) -> int:
        """How many times ``site`` actually fired an armed fault."""
        with self._lock:
            return self._log.fired.get(site, 0)

    def fire(self, site: str) -> Optional[Fault]:
        """Fire ``site``: no-op unless armed.

        An armed fault first consumes one firing, then sleeps (if
        ``sleep_s``), then raises (if ``exc``).  Faults carrying only a
        ``payload`` are returned for the call site to interpret.
        """
        with self._lock:
            fault = self._armed.get(site)
            if fault is None:
                return None
            fault.times -= 1
            if fault.times <= 0:
                self._armed.pop(site, None)
            self._log.fired[site] = self._log.fired.get(site, 0) + 1
        if fault.sleep_s is not None:
            time.sleep(fault.sleep_s)
        if fault.exc is not None:
            error = fault.exc
            if isinstance(error, type):
                error = error(f"injected fault at {site}")
            raise error
        return fault
