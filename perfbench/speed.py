"""Reference speed: scale wall times by a fixed pure-Python probe.

On a small shared virtual machine the effective CPU speed can change by
30-45% for tens of seconds at a time, when other tenants load the same
cores; process CPU time changes with it, so it is no steadier than wall
time.  Every time this benchmark reports is therefore taken in *reference
seconds*.  Between jobs, about every ``PROBE_EVERY_S``, the benchmark times
the short loop below; the window is cut into slices of about ``SLICE_S``,
and each slice's work time is multiplied by ``NOMINAL_S / (mean probe time
in the slice)``.  A reference second is the time the work would take on a
host that runs the probe in ``NOMINAL_S``.  The probe is benchmark code, the
same on every commit of the program, so scaled times of two commits compare
the program alone.  Frequent short probes follow the host better than a
long one between slices: the speed also moves within a slice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List

#: Probe time that defines the reference speed: about its median on a
#: 2-vCPU x86-64 virtual machine under CPython 3.
NOMINAL_S = 0.0007
#: Work between two probes, and work per slice.
PROBE_EVERY_S = 0.05
SLICE_S = 0.5


def probe_s() -> float:
    """Seconds for a fixed loop of dict stores and integer arithmetic."""
    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(4000):
        table[i & 255] = total
        total += (i * i) % 7
    return time.perf_counter() - start


@dataclass
class Slice:
    """About ``SLICE_S`` of work and the probes taken around it."""

    #: Wall seconds of work, probes left out.
    wall_s: float
    #: Index of its first sample in the window, and how many it holds.
    first: int
    jobs: int
    #: Mean probe time.
    probe_s: float

    @property
    def scale(self) -> float:
        """Reference seconds per wall second."""
        return NOMINAL_S / self.probe_s

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.scale


@dataclass
class Pacer:
    """Probes the host between jobs and cuts a window into slices."""

    slices: List[Slice] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._first = 0
        #: Probe times since the slice opened, and the one just before it.
        self._probes: List[float] = [probe_s()]
        self._start = self._last = time.perf_counter()

    def mark(self, done: int, force: bool = False) -> None:
        """Probe if one is due; close the slice once it is ``SLICE_S`` old.

        Call only between jobs, so no job's latency spans a probe.  ``done``
        is the number of samples the window holds so far; ``force`` closes
        the last slice of a window.
        """
        now = time.perf_counter()
        closing = force or now - self._start >= SLICE_S
        if closing or now - self._last >= PROBE_EVERY_S:
            self._probes.append(probe_s())
            self._last = time.perf_counter()
        if not closing:
            return
        inside = sum(self._probes[1:])
        self.slices.append(
            Slice(
                self._last - self._start - inside,
                self._first,
                done - self._first,
                sum(self._probes) / len(self._probes),
            )
        )
        self._first = done
        self._probes = self._probes[-1:]
        self._start = self._last
