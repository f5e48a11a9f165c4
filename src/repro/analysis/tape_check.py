"""Static verification of optimized tapes against their source circuits.

:func:`verify_tape` proves, per :class:`~repro.backends.tape.CompiledTape`
(and per reduction plan), the invariants the tape optimizer is supposed to
preserve:

``tape-arena`` (register-arena safety)
    Every buffer an op reads was written first (def-before-use over the
    re-derived def-use chains), nothing ever writes into the read-only
    constant pool, rotation steps are normalized into ``[1, n)`` (the
    tape keys its gather indices by normalized step), and the no-alias
    constraints of the multi-step superinstructions hold: rotations write
    their destination before the source is fully read (``dst`` must not
    alias *any* operand) and the fused accumulator forms overwrite ``dst``
    before reading ``c``.

``tape-outputs`` (output coverage)
    Every output the circuit declares reaches exactly one
    :class:`~repro.backends.tape.TapeOutput` (same name, same slot length),
    and no tape output is orphaned.

``tape-bounds`` (reduction-schedule soundness)
    An independent interval analysis re-simulates magnitude bounds over the
    scheduled ops of each input-magnitude bucket — including the
    intermediate values materialized inside fused ops — and proves no
    intermediate can leave the signed 64-bit range of the arena's int64
    buffers.  This is exactly the property the lazy-reduction scheduler
    promises; the verifier recomputes it from scratch rather than trusting
    the scheduler's own bookkeeping.

``tape-equivalence`` (translation validation + fusion legality)
    Both the original circuit and the tape are executed symbolically over a
    normalized term domain (commutative operands sorted, rotation steps
    reduced mod ``n``, loads and constants keyed by their centred slot
    content, fused superinstructions unfolded, congruence-preserving
    reductions erased).  The tape's leaves are the compact arrays the VM
    executes (values at the live set ``L``, load columns as positions in
    ``L``); the circuit side builds each leaf from its instruction
    independently and restricts it to ``L``.  Every tape output's term
    must equal the circuit's term for that output — one oracle that catches
    swapped operands, clobbered lifetimes, dropped or reordered ops,
    illegal fusion and wrong constant or template values.  Fusion legality
    is additionally checked directly: the inner term a fused op consumed
    must be single-use in the live part of the original program, mirroring
    the optimizer's own precondition.

``tape-slots`` (slot-liveness narrowing)
    The VM executes every tape over its live slots only.  Per plan, the
    checker recomputes the backward dependency cone of every output slot
    with its own boolean-mask analysis and proves the cone lies inside the
    tape's live set ``L``; that every rotation gather sends each position
    whose source slot ``(L[i] + step) % n`` is live to that slot's
    position; that every output position array addresses slots
    ``[:length]``; and that every constant and load template is ``|L|``
    wide with every load position inside it.  This is what makes the
    restriction in ``tape-equivalence`` sound: an output slot's value
    depends only on leaf values inside its cone, the cone lies in ``L``,
    and the rotations route cone slots correctly, so leaves that agree on
    ``L`` give outputs that agree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis import AnalysisReport, Severity, register_checker
from repro.backends.tape import (
    _NO_ALIAS_ACC,
    _NO_ALIAS_ALL,
    REDUCE_LIMIT,
    ROTATIONS,
    CompiledTape,
    TapeOp,
)
from repro.compiler.circuit import CircuitProgram, Opcode

__all__ = ["verify_tape", "verify_plan_ops", "iter_op_bounds", "DEFAULT_BOUNDS"]


#: Input-magnitude bounds whose buckets the verifier checks by default: the
#: smallest bucket, a typical workload range, and the largest bucket
#: (centred inputs are clamped to ``t // 2``, so this covers the worst case).
DEFAULT_BOUNDS = (1, 7, 1 << 62)

#: Which operand fields each tape-op kind reads.
_READS: Dict[str, Tuple[str, ...]] = {
    "add": ("a", "b"),
    "sub": ("a", "b"),
    "mul": ("a", "b"),
    "neg": ("a",),
    "rot": ("a",),
    "rot_add": ("a", "b"),
    "rot_mul": ("a", "b"),
    "rot_mul_add": ("a", "b", "c"),
    "mul_add": ("a", "b", "c"),
    "mul_sub_l": ("a", "b", "c"),
    "mul_sub_r": ("a", "b", "c"),
    "reduce": ("dst",),
}


def _reads(op: TapeOp) -> List[int]:
    return [getattr(op, field) for field in _READS.get(op.kind, ())]


# ---------------------------------------------------------------------------
# tape-arena: def-before-use, const-pool writes, no-alias constraints
# ---------------------------------------------------------------------------
@register_checker(
    "tape-arena",
    "tape",
    "register-arena safety: def-before-use, no-alias, read-only const pool",
)
def check_arena(
    report: AnalysisReport,
    program: CircuitProgram,
    tape: CompiledTape,
    ops: Sequence[TapeOp],
    *,
    location: str,
) -> None:
    n_consts = len(tape.consts)
    n_buffers = n_consts + tape.slot_count
    defined: Set[int] = set(range(n_consts))
    defined.update(load.buffer for load in tape.loads)

    for load in tape.loads:
        if load.buffer < n_consts or load.buffer >= n_buffers:
            report.add(
                "tape-arena",
                "load-out-of-range",
                Severity.ERROR,
                f"load writes buffer {load.buffer} outside the arena "
                f"[{n_consts}, {n_buffers})",
                location=location,
            )

    for index, op in enumerate(ops):
        where = f"{location} op {index} ({op.kind})"
        if op.kind not in _READS:
            report.add(
                "tape-arena",
                "unknown-op",
                Severity.ERROR,
                f"unknown tape op kind {op.kind!r}",
                location=where,
            )
            continue
        for buffer in _reads(op):
            if buffer < 0 or buffer >= n_buffers:
                report.add(
                    "tape-arena",
                    "operand-out-of-range",
                    Severity.ERROR,
                    f"reads buffer {buffer} outside [0, {n_buffers})",
                    location=where,
                )
            elif buffer not in defined:
                report.add(
                    "tape-arena",
                    "use-before-def",
                    Severity.ERROR,
                    f"reads buffer {buffer} before any write defined it",
                    location=where,
                )
        if op.dst < 0 or op.dst >= n_buffers:
            report.add(
                "tape-arena",
                "dst-out-of-range",
                Severity.ERROR,
                f"writes buffer {op.dst} outside [0, {n_buffers})",
                location=where,
            )
            continue
        if op.dst < n_consts:
            report.add(
                "tape-arena",
                "const-pool-write",
                Severity.ERROR,
                f"writes constant-pool buffer c{op.dst} (shared, read-only)",
                location=where,
            )
        if op.kind in _NO_ALIAS_ALL:
            operands = {b for b in (op.a, op.b, op.c) if b >= 0}
            if op.dst in operands:
                report.add(
                    "tape-arena",
                    "alias-hazard",
                    Severity.ERROR,
                    f"{op.kind} destination r{op.dst - n_consts} aliases an "
                    "operand; the rotation writes dst before the source is "
                    "fully read",
                    location=where,
                )
        elif op.kind in _NO_ALIAS_ACC and op.c >= 0 and op.dst == op.c:
            report.add(
                "tape-arena",
                "alias-hazard",
                Severity.ERROR,
                f"{op.kind} destination aliases the accumulator c; the "
                "first ufunc overwrites dst before the second reads c",
                location=where,
            )
        if op.kind in ROTATIONS:
            if not 0 < op.step < tape.n:
                report.add(
                    "tape-arena",
                    "rotation-normalization",
                    Severity.ERROR,
                    f"rotation step {op.step} is not normalized into "
                    f"[1, {tape.n}); the tape keys its gather indices "
                    "by normalized step",
                    location=where,
                )
        defined.add(op.dst)

    for output in tape.outputs:
        if output.buffer not in defined:
            report.add(
                "tape-arena",
                "undefined-output",
                Severity.ERROR,
                f"output {output.name!r} reads buffer {output.buffer} that "
                "no load or op ever defined",
                location=location,
            )
    report.mark_ran("tape-arena")


# ---------------------------------------------------------------------------
# tape-outputs: every circuit output reaches exactly one TapeOutput
# ---------------------------------------------------------------------------
@register_checker(
    "tape-outputs",
    "tape",
    "output coverage: each circuit output maps to exactly one tape output",
)
def check_outputs(
    report: AnalysisReport,
    program: CircuitProgram,
    tape: CompiledTape,
    ops: Sequence[TapeOp],
    *,
    location: str,
) -> None:
    declared = {(name, length) for _, name, length in program.outputs}
    tape_outputs: Dict[str, int] = {}
    for output in tape.outputs:
        tape_outputs[output.name] = tape_outputs.get(output.name, 0) + 1
        if (output.name, output.length) not in declared:
            report.add(
                "tape-outputs",
                "orphan-output",
                Severity.ERROR,
                f"tape output {output.name!r} (length {output.length}) does "
                "not match any declared circuit output",
                location=location,
            )
    for _, name, length in program.outputs:
        count = tape_outputs.get(name, 0)
        if count != 1:
            report.add(
                "tape-outputs",
                "missing-output" if count == 0 else "duplicate-output",
                Severity.ERROR,
                f"circuit output {name!r} reaches {count} tape outputs "
                "(expected exactly one)",
                location=location,
            )
    report.mark_ran("tape-outputs")


# ---------------------------------------------------------------------------
# tape-bounds: independent interval analysis of the reduction schedule
# ---------------------------------------------------------------------------
@register_checker(
    "tape-bounds",
    "tape",
    "reduction-schedule soundness via independent interval analysis",
)
def check_bounds(
    report: AnalysisReport,
    program: CircuitProgram,
    tape: CompiledTape,
    ops: Sequence[TapeOp],
    *,
    location: str,
    bucket: int,
) -> None:
    """Re-simulate magnitude bounds over the scheduled ops of one bucket.

    The abstract state maps each buffer to an upper bound on any value it
    can hold for inputs with ``|v| <= bucket``, re-derived independently of
    the scheduler.  Fused ops are unfolded, so the *intermediate* product
    written into ``dst`` before the accumulate step is bounds-checked too.
    Any bound reaching ``2**63`` means an int64 overflow is possible and
    the schedule is unsound.
    """
    def overflow(value: int, stage: str, where: str) -> None:
        if value >= REDUCE_LIMIT:
            report.add(
                "tape-bounds",
                "reduction-threshold",
                Severity.ERROR,
                f"{stage} magnitude bound {value} reaches the lazy-reduction "
                f"threshold 2**62; the schedule loses its int64 overflow "
                "headroom here",
                location=where,
                bucket=bucket,
                bound=value,
            )

    for index, op, product, result in iter_op_bounds(tape, ops, bucket=bucket):
        where = f"{location} op {index} ({op.kind})"
        if op.kind == "reduce":
            continue  # result is min(prior, t//2): always in range
        if product is not None:
            overflow(product, "fused intermediate product", where)
        overflow(result, "result", where)
    report.mark_ran("tape-bounds")


def iter_op_bounds(tape: CompiledTape, ops: Sequence[TapeOp], *, bucket: int):
    """The interval transfer function, one op at a time.

    Yields ``(index, op, product_bound, result_bound)`` per scheduled op:
    ``result_bound`` is an upper bound on the magnitude ``op.dst`` can hold
    after the op for any inputs with ``|v| <= bucket``, and
    ``product_bound`` bounds the intermediate product a fused multiply form
    materializes in ``dst`` before accumulating (None for all other kinds).
    :func:`check_bounds` consumes this to flag threshold violations; the
    interval-soundness property test consumes it to compare against
    concrete executions — both see the identical abstraction.
    """
    bounds: Dict[int, int] = {
        index: bound for index, bound in enumerate(tape.const_bounds)
    }
    for load in tape.loads:
        bounds[load.buffer] = max(
            load.const_bound, bucket if load.names else 0
        )
    reduced = tape.half
    for index, op in enumerate(ops):
        kind = op.kind
        product: Optional[int] = None
        if kind == "reduce":
            result = min(bounds.get(op.dst, reduced), reduced)
        else:
            a = bounds.get(op.a, 0)
            b = bounds.get(op.b, 0)
            c = bounds.get(op.c, 0)
            if kind in ("add", "sub", "rot_add"):
                result = a + b
            elif kind in ("mul", "rot_mul"):
                result = a * b
            elif kind in ("mul_add", "mul_sub_l", "mul_sub_r", "rot_mul_add"):
                product = a * b
                result = product + c
            elif kind in ("neg", "rot"):
                result = a
            else:  # unknown kinds are reported by tape-arena
                continue
        bounds[op.dst] = result
        yield index, op, product, result


# ---------------------------------------------------------------------------
# tape-equivalence: symbolic translation validation + fusion legality
# ---------------------------------------------------------------------------
class _Terms:
    """Hash-consed symbolic terms: each distinct term gets one integer id.

    A term is a tuple ``(kind, *fields)`` whose sub-terms are ids, so equal
    terms get equal ids and comparing, hashing or ordering a term costs the
    same at any depth.  The circuit side and the tape side intern into one
    table, so their outputs are equal exactly when their ids are.
    """

    __slots__ = ("ids", "keys")

    def __init__(self) -> None:
        self.ids: Dict[Tuple, int] = {}
        self.keys: List[Tuple] = []

    def __call__(self, *key: object) -> int:
        term = self.ids.get(key)
        if term is None:
            term = self.ids[key] = len(self.keys)
            self.keys.append(key)
        return term

    def binary(self, kind: str, x: int, y: int) -> int:
        if kind in ("add", "mul") and y < x:
            x, y = y, x  # commutative: canonical operand order
        return self(kind, x, y)


def _live_positions(tape: CompiledTape) -> Optional[np.ndarray]:
    """Each slot's position in the tape's live set (-1 when dead), or None
    when the live set is not strictly increasing inside ``[0, n)``."""
    n = tape.n
    live = np.asarray(tape.live)
    if len(live) and (live[0] < 0 or live[-1] >= n or np.any(np.diff(live) <= 0)):
        return None
    position = np.full(n, -1, dtype=np.int64)
    position[live] = np.arange(len(live))
    return position


def _circuit_terms(
    program: CircuitProgram, t: int, n: int, position: np.ndarray, term: _Terms
) -> Dict[str, int]:
    """Symbolic terms (ids in ``term``) of every declared circuit output.

    The normalization mirrors what the tape optimizer is *allowed* to do:
    rotation steps are reduced mod ``n`` (step 0 is the identity),
    commutative operands are sorted, OUTPUT markers are aliases, and loads
    and plaintext constants are keyed by their centred slot content — so
    deduplication and CSE become the identity in this domain.  Leaves are
    built full width from each instruction, then restricted to the live
    slots (``position`` maps a slot to its position, -1 when dead).
    """
    half = t // 2
    live = np.flatnonzero(position >= 0)

    def centred(value: int) -> int:
        residue = int(value) % t
        return residue - t if residue > half else residue

    terms: Dict[int, int] = {}
    for instruction in program.instructions:
        opcode = instruction.opcode
        dst = instruction.result
        if opcode is Opcode.LOAD_INPUT:
            template = np.zeros(n, dtype=np.int64)
            var_columns: List[Tuple[int, str]] = []
            for column, slot in enumerate(instruction.layout):
                if slot.constant is not None:
                    template[column] = centred(slot.constant)
                else:
                    var_columns.append((column, slot.name))
            columns = tuple(
                (int(position[column]), name)
                for column, name in var_columns
                if position[column] >= 0
            )
            terms[dst] = term("load", columns, template[live].tobytes())
        elif opcode is Opcode.LOAD_PLAIN:
            if instruction.name == "broadcast":
                plain = np.full(n, centred(instruction.values[0]), dtype=np.int64)
            else:
                plain = np.zeros(n, dtype=np.int64)
                values = [centred(v) for v in instruction.values]
                plain[: len(values)] = values
            terms[dst] = term("plain", plain[live].tobytes())
        elif opcode is Opcode.ROTATE:
            step = instruction.step % n
            source = terms[instruction.operands[0]]
            terms[dst] = source if step == 0 else term("rot", source, step)
        elif opcode is Opcode.OUTPUT:
            terms[dst] = terms[instruction.operands[0]]
        elif opcode is Opcode.NEGATE:
            terms[dst] = term("neg", terms[instruction.operands[0]])
        else:
            kind = {
                Opcode.ADD: "add",
                Opcode.SUB: "sub",
                Opcode.MUL: "mul",
                Opcode.ADD_PLAIN: "add",
                Opcode.SUB_PLAIN: "sub",
                Opcode.MUL_PLAIN: "mul",
            }.get(opcode)
            if kind is None:
                raise ValueError(f"unknown opcode {opcode}")
            x = terms[instruction.operands[0]]
            y = terms[instruction.operands[1]]
            terms[dst] = term.binary(kind, x, y)
    return {name: terms[register] for register, name, _ in program.outputs}


_LEAF_KINDS = ("load", "plain")


def _live_use_counts(outputs: Dict[str, int], term: _Terms) -> Dict[int, int]:
    """How many times each distinct term is consumed in the live term DAG.

    Terms are hash-consed (one id per distinct term), so identical
    instructions collapse into one node exactly as the optimizer's CSE
    does, and the count per node is its number of consumers plus output
    references — the quantity the fusion passes gate on.
    """
    keys = term.keys
    counts: Dict[int, int] = {}
    seen: Set[int] = set()
    stack: List[int] = []
    for root in outputs.values():
        counts[root] = counts.get(root, 0) + 1
        stack.append(root)
    while stack:
        node = stack.pop()
        key = keys[node]
        if key[0] in _LEAF_KINDS or node in seen:
            continue
        seen.add(node)
        children = key[1:2] if key[0] in ("neg", "rot") else key[1:3]
        for child in children:
            counts[child] = counts.get(child, 0) + 1
            stack.append(child)
    return counts


@register_checker(
    "tape-equivalence",
    "tape",
    "symbolic translation validation of every output + fusion legality",
)
def check_equivalence(
    report: AnalysisReport,
    program: CircuitProgram,
    tape: CompiledTape,
    ops: Sequence[TapeOp],
    *,
    location: str,
) -> None:
    n, t = tape.n, tape.t
    position = _live_positions(tape)
    if position is None:  # reported by tape-slots
        report.mark_ran("tape-equivalence")
        return
    term = _Terms()
    try:
        circuit_outputs = _circuit_terms(program, t, n, position, term)
    except (KeyError, ValueError) as exc:
        report.add(
            "tape-equivalence",
            "circuit-malformed",
            Severity.ERROR,
            f"cannot build symbolic circuit terms: {exc}",
            location=location,
        )
        report.mark_ran("tape-equivalence")
        return

    # Symbolically execute the tape over the arena.  Buffer contents are
    # terms in the same domain: constants and loads keyed by the compact
    # content the VM executes, fused ops unfolded into the shapes the
    # circuit side builds.
    buffers: Dict[int, int] = {
        index: term("plain", const.tobytes())
        for index, const in enumerate(tape.consts)
    }
    for load in tape.loads:
        buffers[load.buffer] = term(
            "load",
            tuple(load.columns),
            load.template.tobytes(),
        )
    # A buffer read before any write is reported by tape-arena; here it is
    # a leaf no circuit term equals.
    unwritten = term("unwritten")

    fused_inner: List[Tuple[int, int]] = []
    for index, op in enumerate(ops):
        kind = op.kind
        if kind == "reduce":
            continue  # congruence-preserving: identity in the term domain
        a = buffers.get(op.a, unwritten)
        b = buffers.get(op.b, unwritten)
        c = buffers.get(op.c, unwritten)
        if kind == "neg":
            result = term("neg", a)
        elif kind == "rot":
            result = term("rot", a, op.step % n)
        elif kind in ("add", "sub", "mul"):
            result = term.binary(kind, a, b)
        elif kind == "rot_add":
            rotated = term("rot", a, op.step % n)
            fused_inner.append((index, rotated))
            result = term.binary("add", rotated, b)
        elif kind == "rot_mul":
            rotated = term("rot", a, op.step % n)
            fused_inner.append((index, rotated))
            result = term.binary("mul", rotated, b)
        elif kind == "rot_mul_add":
            rotated = term("rot", a, op.step % n)
            product = term.binary("mul", rotated, b)
            fused_inner.append((index, rotated))
            fused_inner.append((index, product))
            result = term.binary("add", product, c)
        elif kind == "mul_add":
            product = term.binary("mul", a, b)
            fused_inner.append((index, product))
            result = term.binary("add", product, c)
        elif kind == "mul_sub_l":
            product = term.binary("mul", a, b)
            fused_inner.append((index, product))
            result = term("sub", product, c)
        elif kind == "mul_sub_r":
            product = term.binary("mul", a, b)
            fused_inner.append((index, product))
            result = term("sub", c, product)
        else:
            continue  # unknown kinds are reported by tape-arena
        buffers[op.dst] = result

    tape_outputs = {
        output.name: buffers.get(output.buffer, unwritten) for output in tape.outputs
    }
    for name, expected in circuit_outputs.items():
        if name not in tape_outputs:
            continue  # reported by tape-outputs
        if tape_outputs[name] != expected:
            report.add(
                "tape-equivalence",
                "output-mismatch",
                Severity.ERROR,
                f"output {name!r} computes a different value than the "
                "circuit (symbolic terms diverge)",
                location=location,
            )

    # Fusion legality: the inner term a fused op consumed (the product, and
    # the rotation for rot_* forms) must be single-use in the live part of
    # the original program — the optimizer's own precondition.  A fused
    # multi-use producer silently drops its other consumers.
    use_counts = _live_use_counts(circuit_outputs, term)
    for index, inner in fused_inner:
        uses = use_counts.get(inner, 0)
        if uses > 1:
            report.add(
                "tape-equivalence",
                "illegal-fusion",
                Severity.ERROR,
                f"fused op consumed a {term.keys[inner][0]} term the circuit uses "
                f"{uses} times; fusing a multi-use producer drops its "
                "other consumers",
                location=f"{location} op {index}",
            )
    report.mark_ran("tape-equivalence")


# ---------------------------------------------------------------------------
# tape-slots: the live slot set covers every output's dependency cone
# ---------------------------------------------------------------------------
def _output_cone(tape: CompiledTape, ops: Sequence[TapeOp]) -> np.ndarray:
    """Mask of every slot some output slot depends on, through ``ops``.

    Per-buffer boolean masks walked backwards: an op's destination mask
    flows unchanged into its elementwise operands and rolled by ``step``
    into a rotated operand; ``reduce`` reads and writes ``dst`` in place.
    """
    n = tape.n
    masks: Dict[int, np.ndarray] = {}
    cone = np.zeros(n, dtype=bool)

    def want(buffer: int, mask: np.ndarray) -> None:
        if buffer in masks:
            masks[buffer] = masks[buffer] | mask
        else:
            masks[buffer] = mask
        np.logical_or(cone, mask, out=cone)

    for output in tape.outputs:
        mask = np.zeros(n, dtype=bool)
        mask[: output.length] = True
        want(output.buffer, mask)
    for op in reversed(ops):
        if op.kind == "reduce" or op.kind not in _READS:
            continue
        mask = masks.pop(op.dst, None)
        if mask is None:
            continue
        fields = list(_READS[op.kind])
        if op.kind in ROTATIONS:
            fields.remove("a")
            # rot(x, step)[j] = x[(j + step) % n]
            want(op.a, np.roll(mask, op.step))
        for field in fields:
            buffer = getattr(op, field)
            if buffer >= 0:
                want(buffer, mask)
    return cone


def _preview(slots: np.ndarray, limit: int = 5) -> str:
    shown = ", ".join(str(int(slot)) for slot in slots[:limit])
    return shown + (", ..." if len(slots) > limit else "")


@register_checker(
    "tape-slots",
    "tape",
    "slot narrowing: output cones inside the live set, gathers, output "
    "positions and compact data consistent with it",
)
def check_slots(
    report: AnalysisReport,
    program: CircuitProgram,
    tape: CompiledTape,
    ops: Sequence[TapeOp],
    *,
    location: str,
) -> None:
    n = tape.n
    live = np.asarray(tape.live)
    width = len(live)

    def error(rule: str, message: str, where: str = location) -> None:
        report.add("tape-slots", rule, Severity.ERROR, message, location=where)

    position = _live_positions(tape)
    if position is None:
        error(
            "live-set-malformed",
            "the live slot set is not strictly increasing inside [0, n)",
        )
        report.mark_ran("tape-slots")
        return
    in_live = position >= 0

    outside = _output_cone(tape, ops) & ~in_live
    if outside.any():
        error(
            "cone-outside-live-set",
            f"{int(outside.sum())} slot(s) an output depends on are not in "
            f"the live set (slots {_preview(np.flatnonzero(outside))}); "
            "execution would never compute them",
        )

    checked: Set[int] = set()
    for index, op in enumerate(ops):
        if op.kind not in ROTATIONS or op.step in checked:
            continue
        checked.add(op.step)
        where = f"{location} op {index} ({op.kind})"
        gather = tape.gathers.get(op.step)
        if gather is None or np.shape(gather) != (width,):
            error(
                "gather-missing",
                f"no gather index of width {width} for rotation step "
                f"{op.step}",
                where,
            )
            continue
        source = position[(live + op.step) % n]
        wrong = ((source >= 0) & (gather != source)) | (gather < 0) | (
            gather >= width
        )
        if wrong.any():
            error(
                "gather-mismatch",
                f"rotation step {op.step} gathers a wrong position for "
                f"{int(wrong.sum())} live slot(s) ({_preview(live[wrong])})",
                where,
            )

    if len(tape.output_positions) != len(tape.outputs):
        error(
            "output-positions",
            f"{len(tape.output_positions)} output position arrays for "
            f"{len(tape.outputs)} tape outputs",
        )
    for output, positions in zip(tape.outputs, tape.output_positions):
        expected = position[: output.length]
        if not np.array_equal(positions, expected) or np.any(expected < 0):
            error(
                "output-positions",
                f"output {output.name!r} does not read positions of slots "
                f"[:{output.length}] in the live set",
            )

    misshapen = [
        f"c{index}"
        for index, const in enumerate(tape.consts)
        if np.shape(const) != (width,)
    ]
    n_consts = len(tape.consts)
    for load in tape.loads:
        if np.shape(load.template) != (width,) or any(
            not 0 <= slot_position < width for slot_position, _ in load.columns
        ):
            misshapen.append(f"load r{load.buffer - n_consts}")
    if misshapen:
        error(
            "compact-shape",
            f"{', '.join(misshapen)}: every constant and load template must "
            f"be {width} wide (one value per live slot) with every load "
            "position inside it",
        )
    report.mark_ran("tape-slots")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def verify_plan_ops(
    program: CircuitProgram,
    tape: CompiledTape,
    ops: Sequence[TapeOp],
    *,
    bucket: int,
    location: Optional[str] = None,
) -> AnalysisReport:
    """Verify one explicit op schedule (used by the mutation harness)."""
    where = location or f"tape:{program.name} plan[bucket={bucket}]"
    report = AnalysisReport()
    check_arena(report, program, tape, ops, location=where)
    check_bounds(report, program, tape, ops, location=where, bucket=bucket)
    check_equivalence(report, program, tape, ops, location=where)
    check_slots(report, program, tape, ops, location=where)
    return report


def verify_tape(
    program: CircuitProgram,
    tape: CompiledTape,
    *,
    input_bounds: Sequence[int] = DEFAULT_BOUNDS,
    location: Optional[str] = None,
) -> AnalysisReport:
    """Statically verify ``tape`` against the circuit it was compiled from.

    Output coverage and translation validation run once over the raw tape;
    arena safety, the interval analysis and the slot check run per
    reduction plan — one per bucketed ``input_bounds`` entry — since reduce
    placement depends on the input-magnitude bucket.
    """
    where = location or f"tape:{program.name}"
    report = AnalysisReport()
    check_outputs(report, program, tape, tape.ops, location=where)
    check_equivalence(report, program, tape, tape.ops, location=where)
    seen_buckets: Set[int] = set()
    for bound in input_bounds:
        plan = tape.plan_for(bound)
        if plan.bucket in seen_buckets:
            continue
        seen_buckets.add(plan.bucket)
        plan_where = f"{where} plan[bucket={plan.bucket}]"
        check_arena(report, program, tape, plan.ops, location=plan_where)
        check_bounds(
            report, program, tape, plan.ops,
            location=plan_where, bucket=plan.bucket,
        )
        check_slots(report, program, tape, plan.ops, location=plan_where)
    return report
