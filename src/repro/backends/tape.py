"""Executable tape representation for the tape-compiled vector VM.

A :class:`CompiledTape` is what :mod:`repro.backends.tapeopt` produces from a
:class:`~repro.compiler.circuit.CircuitProgram`: a short, optimized list of
:class:`TapeOp` superinstructions over a fixed **register arena** (liveness
colored buffer slots plus a read-only constant pool), with every piece of
noise/latency accounting precomputed at compile time.  Executing a tape is
then pure numpy: each batch allocates its arena as one ``(slots, B, |L|)``
block (a few dozen live slots wide, so a few microseconds) that is dropped
with the batch, every operation writes through ``out=`` into an arena
buffer, and the hot loop carries no bound arithmetic and no ledger calls.

Four pieces live here:

* the tape data model (:class:`TapeOp`, :class:`TapeLoad`,
  :class:`TapeOutput`, :class:`CompiledTape`);
* **slot-liveness narrowing** — :func:`live_slots` runs one backward pass
  from each output's ``[:length]`` to the sorted live set ``L`` and
  :func:`live_indices` derives one gather index per rotation step and one
  position array per output over it.  A tape keeps only what it executes:
  constants and load templates hold the values of the slots in ``L``
  (column ``i`` is slot ``L[i]``), load columns are positions in ``L``,
  and every arena is ``(B, |L|)``, usually a few dozen slots of
  ``n = 16384``;
* **reduction planning** — :meth:`CompiledTape.plan_for` simulates static
  magnitude bounds for a given input-magnitude bucket and interleaves
  congruence-preserving ``reduce`` ops exactly where an int64 overflow could
  occur, cached per bucket (reductions preserve values mod ``t`` and the
  final decode is centred mod ``t``, so reduction *placement* can never
  change the decoded outputs — any conservative schedule is bit-safe);
* the **dispatch loop** — :func:`_interpret` runs a plan's ops as in-place
  numpy ufuncs over the compact arena; it is the only op loop, and the
  opt-in profiler (:func:`_interpret_profiled`) calls it one op at a time.

Dead slots are safe to leave out: a rotation's gather sends a position
whose source slot is dead back to the same position of the *same* source
buffer, so every buffer only ever holds values the full-width buffer holds
too, and the per-buffer magnitude bounds the reduction plans rely on still
hold.

The accounting figures attached to the tape
(:class:`~repro.backends.base.TapeAccounting`) are replayed from the
*original* instruction sequence by
:func:`~repro.backends.base.replay_accounting`, through the same
:class:`~repro.backends.base.NoiseLedger`/:class:`~repro.fhe.meter.ExecutionMeter`
machinery the reference backend uses — noise accounting is input
independent, so replaying it once at compile time is float-for-float
identical to metering every execution.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import TapeAccounting, scalar_input
from repro.compiler.executor import ExecutionReport, Value
from repro.core.exceptions import CompilationError
from repro.fhe.params import BFVParameters

__all__ = [
    "REDUCE_LIMIT",
    "ROTATIONS",
    "TapeOp",
    "TapeLoad",
    "TapeOutput",
    "TapePlan",
    "TapeProfile",
    "CompiledTape",
    "live_slots",
    "live_indices",
    "set_tape_profiling",
    "tape_profiling_enabled",
]

#: Reduce operands once a projected magnitude bound reaches this limit; the
#: next operation is then guaranteed to stay inside signed 64-bit range.
REDUCE_LIMIT = 1 << 62

#: Tape ops that read operand ``a`` rotated left by ``step`` slots.
ROTATIONS = frozenset({"rot", "rot_add", "rot_mul", "rot_mul_add"})
#: Tape ops whose destination buffer must not alias *any* operand buffer
#: (they write the destination before all operands have been read).
_NO_ALIAS_ALL = ROTATIONS
#: Fused ops whose destination must not alias the accumulator operand ``c``
#: (the first ufunc overwrites ``dst`` before the second reads ``c``).
_NO_ALIAS_ACC = frozenset({"mul_add", "mul_sub_l", "mul_sub_r", "rot_mul_add"})

#: Opt-in per-superinstruction profiling.  Off by default; the only cost on
#: the disabled path is one module-global boolean check per *batch* (not per
#: op), so steady-state throughput is unaffected.
_PROFILING = False


def set_tape_profiling(enabled: bool) -> bool:
    """Toggle per-superinstruction tape profiling; returns the old value.

    When enabled, :meth:`CompiledTape.execute_batch` takes a
    ``perf_counter_ns`` sample around every tape op, accumulating counts and
    cumulative nanoseconds per opcode into the tape's :class:`TapeProfile`.
    Outputs stay bit-identical (the profiled path hands each op to the same
    dispatch loop, in the same order) and accounting stays float-identical
    (it is replayed at compile time, independent of the execution path).
    """
    global _PROFILING
    previous = _PROFILING
    _PROFILING = bool(enabled)
    return previous


def tape_profiling_enabled() -> bool:
    """Whether per-superinstruction profiling is currently on."""
    return _PROFILING


class TapeProfile:
    """Aggregated per-opcode timings for one tape (thread-safe)."""

    __slots__ = ("_lock", "op_counts", "op_ns", "batches", "rows")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.op_counts: Dict[str, int] = {}
        self.op_ns: Dict[str, int] = {}
        self.batches = 0
        self.rows = 0

    def observe(self, counts: Mapping[str, int], elapsed_ns: Mapping[str, int], rows: int) -> None:
        """Fold one profiled batch into the aggregate."""
        with self._lock:
            self.batches += 1
            self.rows += rows
            for kind, count in counts.items():
                self.op_counts[kind] = self.op_counts.get(kind, 0) + count
            for kind, ns in elapsed_ns.items():
                self.op_ns[kind] = self.op_ns.get(kind, 0) + ns

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot: per-opcode count/total_ns/mean_ns + totals."""
        with self._lock:
            ops = {
                kind: {
                    "count": count,
                    "total_ns": self.op_ns.get(kind, 0),
                    "mean_ns": self.op_ns.get(kind, 0) / count if count else 0.0,
                }
                for kind, count in sorted(self.op_counts.items())
            }
            return {
                "batches": self.batches,
                "rows": self.rows,
                "total_ns": sum(self.op_ns.values()),
                "ops": ops,
            }


@dataclass(frozen=True)
class TapeOp:
    """One optimized tape instruction over arena buffer indices.

    ``kind`` semantics (``R[i]`` is buffer ``i``; rotations are left
    rotations by ``step`` slots, matching ``np.roll(x, -step, axis=1)``):

    ========== =====================================
    kind        effect
    ========== =====================================
    add         ``R[dst] = R[a] + R[b]``
    sub         ``R[dst] = R[a] - R[b]``
    mul         ``R[dst] = R[a] * R[b]``
    neg         ``R[dst] = -R[a]``
    rot         ``R[dst] = rot(R[a], step)``
    rot_add     ``R[dst] = rot(R[a], step) + R[b]``
    rot_mul     ``R[dst] = rot(R[a], step) * R[b]``
    rot_mul_add ``R[dst] = rot(R[a], step) * R[b] + R[c]``
    mul_add     ``R[dst] = R[a] * R[b] + R[c]``
    mul_sub_l   ``R[dst] = R[a] * R[b] - R[c]``
    mul_sub_r   ``R[dst] = R[c] - R[a] * R[b]``
    reduce      ``R[dst] = centred(R[dst] mod t)`` (in place)
    ========== =====================================
    """

    kind: str
    dst: int
    a: int = -1
    b: int = -1
    c: int = -1
    step: int = 0


@dataclass(frozen=True)
class TapeLoad:
    """One deduplicated encrypted input: fill ``buffer`` from a template.

    ``template`` holds the centred constant slots of the layout at the
    tape's live slots (zero elsewhere) and ``columns`` the ``(position,
    input_name)`` pairs overwritten per batch row, positions in the live
    set.  ``names`` lists every input the layout reads, dead slots
    included: execution checks each of them, and a load with any is
    variable, which seeds the reduction plans' bound with the bucket.
    """

    buffer: int
    template: np.ndarray
    columns: Tuple[Tuple[int, str], ...]
    names: Tuple[str, ...]
    const_bound: int


@dataclass(frozen=True)
class TapeOutput:
    """Where one declared program output lives after optimization."""

    name: str
    buffer: int
    length: int
    is_ciphertext: bool
    budget: float = 0.0


class TapePlan:
    """One executable schedule: tape ops with reduce ops interleaved.

    Plans are produced (and cached) per input-magnitude bucket by
    :meth:`CompiledTape.plan_for`.
    """

    __slots__ = ("bucket", "ops")

    def __init__(self, bucket: int, ops: List[TapeOp]) -> None:
        self.bucket = bucket
        self.ops = ops

    @property
    def reductions(self) -> int:
        return sum(1 for op in self.ops if op.kind == "reduce")


def live_slots(
    ops: Sequence[TapeOp], outputs: Sequence[TapeOutput], n: int
) -> List[int]:
    """The sorted slots any output depends on: one backward liveness pass.

    Each output needs its buffer's ``[:length]``.  Walking ``ops``
    backwards, an op's destination needs are handed to its operands: the
    same slots for elementwise operands, and slot ``(j + step) % n`` of
    ``a`` for slot ``j`` of a rotation.  ``reduce`` ops are in place and
    never change liveness, so the unplanned ops give every plan's live set.
    """
    need: Dict[int, set] = {}
    live: set = set()
    for output in outputs:
        slots = range(output.length)
        need.setdefault(output.buffer, set()).update(slots)
        live.update(slots)
    for op in reversed(ops):
        if op.kind == "reduce":
            continue
        wanted = need.pop(op.dst, None)
        if not wanted:
            continue
        if op.kind in ROTATIONS:
            step = op.step
            rotated = {(slot + step) % n for slot in wanted}
            need.setdefault(op.a, set()).update(rotated)
            live.update(rotated)
            elementwise = (op.b, op.c)
        else:
            elementwise = (op.a, op.b, op.c)
        for buffer in elementwise:
            if buffer >= 0:
                need.setdefault(buffer, set()).update(wanted)
    return sorted(live)


def live_indices(
    live: np.ndarray, ops: Sequence[TapeOp], outputs: Sequence[TapeOutput], n: int
) -> Tuple[Dict[int, np.ndarray], Tuple[np.ndarray, ...]]:
    """The gathers and output positions of a tape over its live set ``L``.

    ``gathers`` maps each rotation step to the index ``np.take`` reads the
    source through: ``pos[(L[i] + step) % n]``, or ``i`` itself when that
    source slot is dead (a position of the same buffer, so no bound can
    grow).  The positions of slots ``[:length]`` follow, one array per
    output (-1 marks a slot missing from ``L``).
    """
    slots = live.tolist()
    position = {slot: index for index, slot in enumerate(slots)}
    gathers: Dict[int, np.ndarray] = {}
    for op in ops:
        if op.kind in ROTATIONS and op.step not in gathers:
            gathers[op.step] = np.array(
                [position.get((slot + op.step) % n, i) for i, slot in enumerate(slots)],
                dtype=np.int64,
            )
    positions = tuple(
        np.array([position.get(slot, -1) for slot in range(output.length)], dtype=np.int64)
        for output in outputs
    )
    return gathers, positions


class CompiledTape:
    """An optimized, directly executable form of one circuit."""

    def __init__(
        self,
        *,
        params: BFVParameters,
        live: np.ndarray,
        consts: List[np.ndarray],
        const_bounds: List[int],
        slot_count: int,
        loads: List[TapeLoad],
        ops: List[TapeOp],
        outputs: List[TapeOutput],
        accounting: TapeAccounting,
        stats: Dict[str, object],
    ) -> None:
        self.params = params
        self.t = params.plain_modulus
        self.n = params.slot_count
        self.half = self.t // 2
        #: The sorted live slots; every arena is ``(B, len(live))``.
        self.live = live
        for const in consts:
            const.flags.writeable = False  # the pool is shared across runs
        self.consts = consts
        self.const_bounds = const_bounds
        self.slot_count = slot_count
        self.loads = loads
        self.ops = ops
        self.outputs = outputs
        self.accounting = accounting
        self.stats = stats
        self.gathers, self.output_positions = live_indices(live, ops, outputs, self.n)
        #: Every input any load reads (dead slots included), in load order:
        #: execution checks and marshals each of them.
        self.input_names = tuple(
            dict.fromkeys(name for load in loads for name in load.names)
        )
        self._plans: Dict[int, TapePlan] = {}
        self._lock = threading.Lock()
        #: Lazily created on the first profiled batch; ``None`` until then.
        self.profile: Optional[TapeProfile] = None

    # -- reduction planning --------------------------------------------------
    def plan_for(self, input_bound: int) -> TapePlan:
        """The reduction plan for inputs of magnitude ``<= input_bound``.

        Bounds are bucketed to the next power of two (clamped to the centred
        input range ``t // 2``) so one tape accumulates a handful of plans,
        not one per distinct batch.
        """
        bound = max(1, int(input_bound))
        cap = max(1, self.half)
        bucket = min(1 << (bound - 1).bit_length(), cap)
        plan = self._plans.get(bucket)
        if plan is None:
            with self._lock:
                plan = self._plans.get(bucket)
                if plan is None:
                    plan = TapePlan(bucket, self._schedule_reductions(bucket))
                    self._plans[bucket] = plan
        return plan

    def _schedule_reductions(self, bucket: int) -> List[TapeOp]:
        """Simulate magnitude bounds and interleave ``reduce`` ops.

        The simulation runs over arena buffers in execution order, so
        in-place writes and buffer reuse are modelled exactly; every bound is
        an upper bound of the live values, which makes any schedule that
        keeps the bounds below :data:`REDUCE_LIMIT` overflow-safe.  Constant
        buffers are never reduced (they are shared and already centred).
        """
        n_consts = len(self.consts)
        bounds = [0] * (n_consts + self.slot_count)
        for index, const_bound in enumerate(self.const_bounds):
            bounds[index] = const_bound
        for load in self.loads:
            bounds[load.buffer] = max(
                load.const_bound, bucket if load.names else 0
            )
        reduced = self.half  # |centred residue| <= t // 2 after a reduce
        scheduled: List[TapeOp] = []

        def reduce_buffer(buffer: int) -> None:
            scheduled.append(TapeOp("reduce", dst=buffer))
            bounds[buffer] = reduced

        def reducible(buffer: int) -> bool:
            return buffer >= n_consts and bounds[buffer] > reduced

        def settle_product(x: int, y: int) -> int:
            if bounds[x] * bounds[y] >= REDUCE_LIMIT:
                larger, smaller = (x, y) if bounds[x] >= bounds[y] else (y, x)
                if reducible(larger):
                    reduce_buffer(larger)
                if bounds[larger] * bounds[smaller] >= REDUCE_LIMIT and reducible(
                    smaller
                ):
                    reduce_buffer(smaller)
            return bounds[x] * bounds[y]

        for op in self.ops:
            kind = op.kind
            if kind in ("add", "sub", "rot_add"):
                if bounds[op.a] + bounds[op.b] >= REDUCE_LIMIT:
                    for buffer in (op.a, op.b):
                        if reducible(buffer):
                            reduce_buffer(buffer)
                result = bounds[op.a] + bounds[op.b]
            elif kind in ("mul", "rot_mul"):
                result = settle_product(op.a, op.b)
            elif kind in ("mul_add", "mul_sub_l", "mul_sub_r", "rot_mul_add"):
                product = settle_product(op.a, op.b)
                if product + bounds[op.c] >= REDUCE_LIMIT:
                    if reducible(op.c):
                        reduce_buffer(op.c)
                    if product + bounds[op.c] >= REDUCE_LIMIT:
                        for buffer in (op.a, op.b):
                            if reducible(buffer):
                                reduce_buffer(buffer)
                        product = bounds[op.a] * bounds[op.b]
                result = product + bounds[op.c]
            else:  # neg, rot: magnitude-preserving
                result = bounds[op.a]
            scheduled.append(op)
            bounds[op.dst] = result
        return scheduled

    # -- profiling -----------------------------------------------------------
    def _profile(self) -> TapeProfile:
        profile = self.profile
        if profile is None:
            with self._lock:
                profile = self.profile
                if profile is None:
                    profile = self.profile = TapeProfile()
        return profile

    def profile_snapshot(self) -> Optional[Dict[str, object]]:
        """The aggregated opcode profile, or ``None`` if never profiled."""
        profile = self.profile
        return profile.as_dict() if profile is not None else None

    # -- execution -----------------------------------------------------------
    def execute_batch(
        self,
        inputs_list: Sequence[Mapping[str, Value]],
        *,
        backend_name: str = "vector-vm",
    ) -> List[ExecutionReport]:
        """Run the tape for a whole batch and assemble one report per row."""
        batch = len(inputs_list)
        if batch == 0:
            return []
        t, half = self.t, self.half

        # Marshal the variable inputs once per distinct name and track the
        # largest centred magnitude, which selects the reduction plan.
        name_values: Dict[str, np.ndarray] = {}
        input_bound = 0
        for name in self.input_names:
            values = np.empty(batch, dtype=np.int64)
            for row, inputs in enumerate(inputs_list):
                value = inputs.get(name)
                if type(value) is not int:  # missing, packed or non-int
                    value = int(scalar_input(inputs, name))
                residue = value % t
                values[row] = residue - t if residue > half else residue
            name_values[name] = values
            input_bound = max(input_bound, int(np.max(np.abs(values))))

        plan = self.plan_for(input_bound)
        # One block per batch: concurrent callers never share an arena, and
        # nothing is kept once the reports are built.
        arena = np.empty((self.slot_count, batch, len(self.live)), dtype=np.int64)
        buffers = self.consts + list(arena)
        for load in self.loads:
            target = buffers[load.buffer]
            np.copyto(target, load.template)
            for position, name in load.columns:
                target[:, position] = name_values[name]
        if _PROFILING:
            _interpret_profiled(
                plan.ops, buffers, t, half, self.gathers, self._profile(), batch
            )
        else:
            _interpret(plan.ops, buffers, t, half, self.gathers)
        return self._build_reports(buffers, batch, backend_name)

    def _build_reports(
        self, buffers: List[np.ndarray], batch: int, backend_name: str
    ) -> List[ExecutionReport]:
        t, half = self.t, self.half
        reports = self.accounting.reports(batch, backend_name)
        for output, positions in zip(self.outputs, self.output_positions):
            array = buffers[output.buffer]
            if not output.is_ciphertext:
                raw = array[positions] % t
                decoded = np.where(raw > half, raw - t, raw).tolist()
                for report in reports:
                    report.outputs[output.name] = list(decoded)
                continue
            raw = array[:, positions] % t
            rows = np.where(raw > half, raw - t, raw).tolist()
            for report, row in zip(reports, rows):
                report.outputs[output.name] = row
        return reports

    # -- inspection ----------------------------------------------------------
    def render(self, *, input_bound: int = 7) -> str:
        """Human-readable tape listing (the ``repro tape`` CLI output)."""
        n_consts = len(self.consts)

        def buf(index: int) -> str:
            if index < 0:
                return "-"
            if index < n_consts:
                return f"c{index}"
            return f"r{index - n_consts}"

        lines: List[str] = []
        stats = self.stats
        lines.append(
            "tape: {instr} instructions -> {after} tape entries "
            "({ops} ops, {loads} loads, {consts} consts), "
            "{fused} fused, arena {slots} x (B, {live} live of {n})".format(
                instr=stats.get("instructions"),
                after=stats.get("tape_entries"),
                ops=stats.get("tape_ops"),
                loads=stats.get("loads"),
                consts=stats.get("consts"),
                fused=stats.get("fused_total"),
                slots=self.slot_count,
                live=len(self.live),
                n=self.n,
            )
        )
        eliminated = stats.get("eliminated", {})
        if isinstance(eliminated, dict) and any(eliminated.values()):
            parts = ", ".join(f"{k}={v}" for k, v in eliminated.items() if v)
            lines.append(f"eliminated: {parts}")
        for index, bound in enumerate(self.const_bounds):
            preview = ", ".join(
                f"{slot}: {value}"
                for slot, value in zip(self.live[:6].tolist(), self.consts[index][:6].tolist())
            )
            extra = ", ..." if len(self.live) > 6 else ""
            lines.append(f"  c{index} = const {{{preview}{extra}}} |v|<={bound}")
        for load in self.loads:
            names = ", ".join(
                f"{name}@{self.live[position]}" for position, name in load.columns[:4]
            )
            extra = "" if len(load.columns) <= 4 else ", ..."
            lines.append(
                f"  {buf(load.buffer)} = load_input [{names}{extra}] "
                f"(|const|<={load.const_bound})"
            )
        plan = self.plan_for(input_bound)
        for op in plan.ops:
            if op.kind == "reduce":
                lines.append(f"  reduce {buf(op.dst)}")
            elif op.kind == "neg":
                lines.append(f"  {buf(op.dst)} = neg {buf(op.a)}")
            elif op.kind == "rot":
                lines.append(f"  {buf(op.dst)} = rot {buf(op.a)} << {op.step}")
            elif op.kind in ("add", "sub", "mul"):
                lines.append(
                    f"  {buf(op.dst)} = {op.kind} {buf(op.a)}, {buf(op.b)}"
                )
            elif op.kind in ("rot_add", "rot_mul"):
                lines.append(
                    f"  {buf(op.dst)} = {op.kind} ({buf(op.a)} << {op.step}), "
                    f"{buf(op.b)}"
                )
            elif op.kind == "rot_mul_add":
                lines.append(
                    f"  {buf(op.dst)} = rot_mul_add ({buf(op.a)} << {op.step}) * "
                    f"{buf(op.b)} + {buf(op.c)}"
                )
            else:  # mul_add / mul_sub_l / mul_sub_r
                sign = {"mul_add": "+", "mul_sub_l": "-", "mul_sub_r": "-r"}[op.kind]
                lines.append(
                    f"  {buf(op.dst)} = {buf(op.a)} * {buf(op.b)} {sign} {buf(op.c)}"
                )
        for output in self.outputs:
            kind = "ct" if output.is_ciphertext else "plain"
            lines.append(
                f"  output {output.name!r} <- {buf(output.buffer)}"
                f"[:{output.length}] ({kind})"
            )
        lines.append(
            f"plan[bucket={plan.bucket}]: {plan.reductions} scheduled reductions"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the dispatch loop: the VM's one op loop
# ---------------------------------------------------------------------------
def _rotate_into(dst: np.ndarray, src: np.ndarray, gather: np.ndarray) -> None:
    # mode="wrap" lets take write straight into ``out`` (the default
    # "raise" buffers it); every gather index is in range by construction.
    np.take(src, gather, axis=1, out=dst, mode="wrap")


def _interpret(
    ops: Sequence[TapeOp],
    buffers: List[np.ndarray],
    t: int,
    half: int,
    gathers: Mapping[int, np.ndarray],
) -> None:
    np_add, np_sub, np_mul = np.add, np.subtract, np.multiply
    for op in ops:
        kind = op.kind
        dst = buffers[op.dst]
        if kind == "add":
            np_add(buffers[op.a], buffers[op.b], out=dst)
        elif kind == "sub":
            np_sub(buffers[op.a], buffers[op.b], out=dst)
        elif kind == "mul":
            np_mul(buffers[op.a], buffers[op.b], out=dst)
        elif kind == "mul_add":
            np_mul(buffers[op.a], buffers[op.b], out=dst)
            np_add(dst, buffers[op.c], out=dst)
        elif kind == "mul_sub_l":
            np_mul(buffers[op.a], buffers[op.b], out=dst)
            np_sub(dst, buffers[op.c], out=dst)
        elif kind == "mul_sub_r":
            np_mul(buffers[op.a], buffers[op.b], out=dst)
            np_sub(buffers[op.c], dst, out=dst)
        elif kind == "rot":
            _rotate_into(dst, buffers[op.a], gathers[op.step])
        elif kind == "rot_add":
            _rotate_into(dst, buffers[op.a], gathers[op.step])
            np_add(dst, buffers[op.b], out=dst)
        elif kind == "rot_mul":
            _rotate_into(dst, buffers[op.a], gathers[op.step])
            np_mul(dst, buffers[op.b], out=dst)
        elif kind == "rot_mul_add":
            _rotate_into(dst, buffers[op.a], gathers[op.step])
            np_mul(dst, buffers[op.b], out=dst)
            np_add(dst, buffers[op.c], out=dst)
        elif kind == "neg":
            np.negative(buffers[op.a], out=dst)
        elif kind == "reduce":
            np.remainder(dst, t, out=dst)
            np_sub(dst, t, out=dst, where=dst > half)
        else:  # pragma: no cover - defensive
            raise CompilationError(f"unknown tape op kind {kind!r}")


def _interpret_profiled(
    ops: Sequence[TapeOp],
    buffers: List[np.ndarray],
    t: int,
    half: int,
    gathers: Mapping[int, np.ndarray],
    profile: TapeProfile,
    rows: int,
) -> None:
    """Like :func:`_interpret`, but samples ``perf_counter_ns`` per op.

    Delegates each op to :func:`_interpret` one at a time, so the executed
    numpy operations (and hence the outputs) are bit-identical to the
    unprofiled path by construction; only the clock samples and the
    per-opcode accumulation are extra.
    """
    counts: Dict[str, int] = {}
    elapsed: Dict[str, int] = {}
    clock = time.perf_counter_ns
    for op in ops:
        start = clock()
        _interpret((op,), buffers, t, half, gathers)
        duration = clock() - start
        kind = op.kind
        counts[kind] = counts.get(kind, 0) + 1
        elapsed[kind] = elapsed.get(kind, 0) + duration
    profile.observe(counts, elapsed, rows)
