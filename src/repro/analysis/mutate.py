"""Seeded mutation harness: the tape verifier's own test oracle.

A verifier that has only ever seen correct tapes proves nothing about its
ability to catch miscompiles.  This module injects the defect classes the
tape optimizer could realistically produce — each one a bug an optimizer
pass is one missing condition away from — and asserts the verifier reports
them:

``swap-operands``
    Swap ``a``/``b`` on a non-commutative op (``sub``, ``mul_sub_l``,
    ``mul_sub_r``): the canonicalization bug where a rewrite forgets that
    subtraction is ordered.

``drop-reduction``
    Delete one ``reduce`` from a scheduled plan: the lazy-reduction
    scheduler under-counting magnitude growth.

``extend-lifetime``
    Retarget an op's destination onto an arena slot that is still live
    (read again later from an earlier def): the register allocator freeing
    a slot one use too early and re-issuing it.

``skip-fusion-check``
    Fuse a multiply into its consumer although the product has *other*
    consumers, deleting the standalone multiply: the fusion pass with its
    single-use legality check skipped.

``drop-live-slot``
    Remove one slot from the tape's live set, delete its position from
    every compact constant and load, and rebuild the gathers and output
    positions from the rest: the backward liveness pass missing one
    rotation or operand edge, so execution never computes a slot an output
    needs.

All randomness is a ``random.Random(seed)``; the same seed replays the same
mutants.  :func:`run_mutation_harness` verifies the pristine schedule is
clean first, then requires every applied mutant to produce at least one
ERROR finding.
"""

from __future__ import annotations

import copy
import dataclasses
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis import AnalysisReport
from repro.analysis.tape_check import verify_plan_ops
from repro.backends.tape import CompiledTape, TapeOp, live_indices
from repro.compiler.circuit import CircuitProgram

__all__ = [
    "DEFECT_CLASSES",
    "Mutation",
    "MutationOutcome",
    "HarnessResult",
    "enumerate_mutations",
    "verify_mutation",
    "run_mutation_harness",
]

DEFECT_CLASSES = (
    "swap-operands",
    "drop-reduction",
    "extend-lifetime",
    "skip-fusion-check",
    "drop-live-slot",
)

#: Input bound whose plan tape-level mutations are applied to (smallest
#: bucket: the pristine schedule carries few or no reduces, so the bounds
#: checker stays quiet about the mutation-unrelated parts).
_SMALL_BOUND = 1
#: Input bound whose plan ``drop-reduction`` mutates (largest bucket: this
#: is where the scheduler actually places reduces).
_LARGE_BOUND = 1 << 62


@dataclass(frozen=True)
class Mutation:
    """One injected defect: a doctored op schedule (or tape) for one
    bucket; ``tape`` replaces the verified tape when set."""

    kind: str
    description: str
    ops: Tuple[TapeOp, ...]
    bucket: int
    tape: Optional[CompiledTape] = None


@dataclass(frozen=True)
class MutationOutcome:
    mutation: Mutation
    detected: bool
    rules: Tuple[str, ...]


@dataclass
class HarnessResult:
    """Per-class detection outcomes across all applied mutants."""

    outcomes: Dict[str, List[MutationOutcome]] = field(default_factory=dict)

    def detection_rate(self, kind: str) -> Optional[float]:
        outcomes = self.outcomes.get(kind)
        if not outcomes:
            return None
        return sum(1 for o in outcomes if o.detected) / len(outcomes)

    @property
    def all_detected(self) -> bool:
        """True when every applied mutant of every class was caught."""
        return all(
            outcome.detected
            for outcomes in self.outcomes.values()
            for outcome in outcomes
        )

    @property
    def classes_exercised(self) -> List[str]:
        return sorted(k for k, v in self.outcomes.items() if v)

    def summary_lines(self) -> List[str]:
        lines = []
        for kind in DEFECT_CLASSES:
            outcomes = self.outcomes.get(kind, [])
            if not outcomes:
                lines.append(f"{kind}: no applicable site")
                continue
            caught = sum(1 for o in outcomes if o.detected)
            rules: Set[str] = set()
            for o in outcomes:
                rules.update(o.rules)
            lines.append(
                f"{kind}: {caught}/{len(outcomes)} detected "
                f"via {', '.join(sorted(rules)) or '-'}"
            )
        return lines


def _buffer_live_after(ops: Sequence[TapeOp], index: int, buffer: int) -> bool:
    """Is ``buffer``'s current value still read after position ``index``,
    before (and unless) something redefines it?"""
    from repro.analysis.tape_check import _reads

    for op in ops[index + 1 :]:
        if buffer in _reads(op):
            return True
        if op.dst == buffer:
            return False
    return False


def _drop_live_slot(tape: CompiledTape, index: int) -> CompiledTape:
    """``tape`` without live slot ``tape.live[index]``: its position is
    deleted from every compact array and load, later positions shift down,
    and the gathers and output positions are rebuilt over the rest."""
    mutant = copy.copy(tape)  # never executed: shares the original's plans
    mutant.live = np.delete(tape.live, index)
    mutant.consts = [np.delete(const, index) for const in tape.consts]
    mutant.loads = [
        dataclasses.replace(
            load,
            template=np.delete(load.template, index),
            columns=tuple(
                (position - (position > index), name)
                for position, name in load.columns
                if position != index
            ),
        )
        for load in tape.loads
    ]
    mutant.gathers, mutant.output_positions = live_indices(
        mutant.live, tape.ops, tape.outputs, tape.n
    )
    return mutant


def enumerate_mutations(
    program: CircuitProgram,
    tape: CompiledTape,
    kind: str,
    *,
    ops: Sequence[TapeOp],
    bucket: int,
) -> List[Mutation]:
    """All sites in ``ops`` where defect class ``kind`` can be injected."""
    n_consts = len(tape.consts)
    mutations: List[Mutation] = []

    if kind == "swap-operands":
        for index, op in enumerate(ops):
            if op.kind in ("sub", "mul_sub_l", "mul_sub_r") and op.a != op.b:
                mutated = list(ops)
                mutated[index] = dataclasses.replace(op, a=op.b, b=op.a)
                mutations.append(
                    Mutation(
                        kind,
                        f"swap a/b of op {index} ({op.kind})",
                        tuple(mutated),
                        bucket,
                    )
                )

    elif kind == "drop-reduction":
        for index, op in enumerate(ops):
            if op.kind == "reduce":
                mutated = list(ops)
                del mutated[index]
                mutations.append(
                    Mutation(
                        kind,
                        f"drop reduce of r{op.dst - n_consts} at {index}",
                        tuple(mutated),
                        bucket,
                    )
                )

    elif kind == "extend-lifetime":
        # Clobber a still-live slot: as if the allocator had freed the
        # victim's slot too early and re-issued it as this op's destination.
        for index, op in enumerate(ops):
            if op.kind == "reduce":
                continue
            for victim in range(n_consts, n_consts + tape.slot_count):
                if victim == op.dst:
                    continue
                if op.kind in ("mul_add", "mul_sub_l", "mul_sub_r", "rot_mul_add") and victim == op.c:
                    continue  # would trip the alias rule, not the lifetime bug
                if _buffer_live_after(ops, index, victim):
                    mutated = list(ops)
                    mutated[index] = dataclasses.replace(op, dst=victim)
                    mutations.append(
                        Mutation(
                            kind,
                            f"op {index} ({op.kind}) clobbers live "
                            f"r{victim - n_consts}",
                            tuple(mutated),
                            bucket,
                        )
                    )
                    break  # one victim per site is enough

    elif kind == "skip-fusion-check":
        # Fuse mul -> add although the product has other consumers, and
        # delete the standalone mul — exactly what the fusion pass would
        # emit with its single-use check skipped.
        from repro.analysis.tape_check import _reads

        for mul_index, mul in enumerate(ops):
            if mul.kind != "mul":
                continue
            consumers = [
                (index, op)
                for index, op in enumerate(ops)
                if index > mul_index and mul.dst in _reads(op)
            ]
            if len(consumers) < 2:
                continue
            add_index, add = next(
                (
                    (index, op)
                    for index, op in consumers
                    if op.kind == "add"
                ),
                (None, None),
            )
            if add is None:
                continue
            other = add.b if add.a == mul.dst else add.a
            fused = TapeOp(
                kind="mul_add", dst=add.dst, a=mul.a, b=mul.b, c=other
            )
            mutated = list(ops)
            mutated[add_index] = fused
            del mutated[mul_index]
            mutations.append(
                Mutation(
                    kind,
                    f"fuse multi-use mul at {mul_index} into add at "
                    f"{add_index}",
                    tuple(mutated),
                    bucket,
                )
            )

    elif kind == "drop-live-slot":
        for index, slot in enumerate(tape.live.tolist()):
            mutations.append(
                Mutation(
                    kind,
                    f"drop live slot {slot} from the tape",
                    tuple(ops),
                    bucket,
                    tape=_drop_live_slot(tape, index),
                )
            )

    else:
        raise ValueError(f"unknown defect class {kind!r}")
    return mutations


def verify_mutation(
    program: CircuitProgram, tape: CompiledTape, mutation: Mutation
) -> AnalysisReport:
    """Run the tape verifier over one mutant schedule."""
    return verify_plan_ops(
        program,
        mutation.tape or tape,
        mutation.ops,
        bucket=mutation.bucket,
        location=f"mutant[{mutation.kind}]:{program.name}",
    )


def run_mutation_harness(
    cases: Sequence[Tuple[CircuitProgram, CompiledTape]],
    *,
    seed: int = 0,
    per_class: int = 3,
    classes: Sequence[str] = DEFECT_CLASSES,
) -> HarnessResult:
    """Inject up to ``per_class`` seeded mutants of every class per case.

    The pristine schedule of every case must verify clean first — a dirty
    baseline would make "detected" meaningless — and every applied mutant
    must then be detected.  Detection outcomes land in the result; the
    caller asserts :attr:`HarnessResult.all_detected`.
    """
    rng = random.Random(seed)
    result = HarnessResult(outcomes={kind: [] for kind in classes})
    for program, tape in cases:
        for bound in (_SMALL_BOUND, _LARGE_BOUND):
            plan = tape.plan_for(bound)
            baseline = verify_plan_ops(
                program, tape, plan.ops, bucket=plan.bucket
            )
            if not baseline.ok:
                raise AssertionError(
                    f"pristine tape of {program.name!r} is not clean: "
                    + "; ".join(f.render() for f in baseline.findings[:3])
                )
        small = tape.plan_for(_SMALL_BOUND)
        large = tape.plan_for(_LARGE_BOUND)
        for kind in classes:
            plan = large if kind == "drop-reduction" else small
            candidates = enumerate_mutations(
                program, tape, kind, ops=plan.ops, bucket=plan.bucket
            )
            if not candidates:
                continue
            picked = rng.sample(
                candidates, min(per_class, len(candidates))
            )
            for mutation in picked:
                report = verify_mutation(program, tape, mutation)
                result.outcomes[kind].append(
                    MutationOutcome(
                        mutation=mutation,
                        detected=not report.ok,
                        rules=tuple(
                            sorted({f.rule for f in report.findings})
                        ),
                    )
                )
    return result
