"""The batch coalescer: group queued executions sharing a circuit.

This is the headline throughput move of the orchestration server.  When N
queued users all want the *same* circuit executed (the common case for a
serving system: one popular kernel, many input sets), running them one by
one wastes N-1 passes over the instruction tape.  The coalescer groups
pending execute jobs by ``(circuit content fingerprint, backend)`` —
:func:`~repro.backends.base.program_fingerprint`, the same content hash the
compiled-tape memo is keyed on — and each group becomes a *single* backend batch: one
``execute_many`` call whose input list is the concatenation of every member
job's inputs.  On the vector VM one tape pass then serves the whole group
(``scripts/bench_server.py`` measures the resulting speedup against
one-at-a-time submission in ``BENCH_server.json``).

Groups preserve priority order within themselves, and each remembers which
slice of the batched reports belongs to which job so results fan back out
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.backends.base import program_fingerprint
from repro.compiler.circuit import CircuitProgram
from repro.obs.trace import NULL_TRACER, Tracer
from repro.server.jobs import Job

__all__ = ["CoalescedGroup", "coalesce"]


@dataclass
class CoalescedGroup:
    """One backend batch: N jobs sharing a circuit, inputs concatenated."""

    fingerprint: str
    backend_key: str
    program: CircuitProgram
    jobs: List[Job] = field(default_factory=list)
    #: Per-job input sets, parallel to ``jobs`` (job i owns the slice
    #: ``[offsets[i], offsets[i] + len(inputs_per_job[i]))`` of the batch).
    inputs_per_job: List[List[Mapping[str, int]]] = field(default_factory=list)

    def add(self, job: Job, inputs: Sequence[Mapping[str, int]]) -> None:
        self.jobs.append(job)
        self.inputs_per_job.append(list(inputs))

    @property
    def batched_inputs(self) -> List[Mapping[str, int]]:
        """Every member job's inputs, concatenated in job order."""
        flat: List[Mapping[str, int]] = []
        for inputs in self.inputs_per_job:
            flat.extend(inputs)
        return flat

    @property
    def coalesced(self) -> bool:
        """True when more than one job shares this batch."""
        return len(self.jobs) > 1

    def slices(self) -> List[Tuple[int, int]]:
        """``(start, stop)`` report-slice per job, in job order."""
        bounds: List[Tuple[int, int]] = []
        cursor = 0
        for inputs in self.inputs_per_job:
            bounds.append((cursor, cursor + len(inputs)))
            cursor += len(inputs)
        return bounds


def coalesce(
    entries: Sequence[Tuple[Job, CircuitProgram, Sequence[Mapping[str, int]], str]],
    *,
    tracer: Optional[Tracer] = None,
) -> List[CoalescedGroup]:
    """Group ``(job, circuit, inputs, backend_key)`` entries into batches.

    Entries arrive in scheduling (priority) order and groups come back
    ordered by their first member, so coalescing never reorders work across
    priorities — it only merges equal circuits that would have run anyway.

    With a ``tracer`` the grouping work (fingerprint hashing included — that
    is the cost coalescing amortizes) is recorded as one ``coalesce`` stage
    span, nested under whatever span the calling thread has open.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("coalesce", attrs={"entries": len(entries)}) as span:
        groups: Dict[Tuple[str, str], CoalescedGroup] = {}
        ordered: List[CoalescedGroup] = []
        #: Jobs sharing a circuit usually share the object too (the server's
        #: circuit memo), so hash each distinct object once per call.
        fingerprints: Dict[int, str] = {}
        for job, program, inputs, backend_key in entries:
            fingerprint = fingerprints.get(id(program))
            if fingerprint is None:
                fingerprint = fingerprints[id(program)] = program_fingerprint(program)
            key = (fingerprint, backend_key)
            group = groups.get(key)
            if group is None:
                group = CoalescedGroup(
                    fingerprint=key[0], backend_key=backend_key, program=program
                )
                groups[key] = group
                ordered.append(group)
            group.add(job, inputs)
        span.set_attr("groups", len(ordered))
        span.set_attr("coalesced_jobs", sum(len(g.jobs) for g in ordered if g.coalesced))
    return ordered
