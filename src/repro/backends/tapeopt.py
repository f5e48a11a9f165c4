"""Backend-compile stage: turn a CircuitProgram into an optimized tape.

This is the vector VM's optimizer.  :func:`compile_tape` runs a pipeline of
peephole passes over the SSA instruction list and emits a
:class:`~repro.backends.tape.CompiledTape`:

1. **Copy propagation** — ``ROTATE`` with an effective step of zero and
   ``OUTPUT`` markers are pure aliases; they are resolved away so aliases
   never materialise (the latent in-place aliasing hazard of the old
   interpreter cannot exist by construction).
2. **Constant/load hoisting + dedup** — identical ``LOAD_PLAIN`` constants
   collapse into one read-only constant-pool entry, identical ``LOAD_INPUT``
   layouts into one load, and identical pure subexpressions are value
   numbered (CSE).  Dead values left behind are dropped.  Constants and
   load templates stay content until the ops exist; they are then built
   only at the tape's live slots (:func:`~repro.backends.tape.live_slots`).
3. **Superinstruction fusion** — the dominant reduction chains fuse:
   ``mul``/``mul_plain`` feeding a single-use ``add``/``sub`` becomes
   ``mul_add``/``mul_sub_*``, and a single-use ``rotate`` feeding ``mul``,
   ``add`` or a fused ``mul_add`` folds into ``rot_mul``/``rot_add``/
   ``rot_mul_add``.
4. **Register-arena coloring** — SSA values are liveness-colored onto
   reusable buffer slots.  Elementwise ops may write in place over an
   operand slot (numpy ufuncs are exact-aliasing safe); rotations and the
   multi-step fused ops get a destination slot disjoint from their operands.
5. **Accounting replay** — the *original* instruction sequence is replayed
   once through :func:`~repro.backends.base.replay_accounting`; the
   resulting latency, operation counts and noise budgets are input
   independent and therefore float-for-float identical to metering each
   execution.

Reduction *placement* is not decided here — it depends on input magnitudes,
so :meth:`CompiledTape.plan_for` schedules it per bucketed input bound at
execution time (cached per tape).

The module also owns the process-wide compiled-tape memo
(:func:`get_compiled_tape`): tapes are keyed by circuit fingerprint and BFV
parameters, so the JobServer's coalesced batches — and any number of backend
instances — reuse compiled tapes across ticks.  :func:`tape_cache_stats`
exposes the memo's hit/miss/compile counters and size for smoke tests and
server telemetry.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backends.base import program_fingerprint, replay_accounting
from repro.backends.tape import (
    CompiledTape,
    TapeLoad,
    TapeOp,
    TapeOutput,
    live_slots,
)
from repro.compiler.circuit import CircuitProgram, Opcode
from repro.core.exceptions import CompilationError
from repro.fhe.params import BFVParameters

__all__ = [
    "compile_tape",
    "get_compiled_tape",
    "tape_cache_stats",
    "reset_tape_cache",
    "TapeVerificationError",
]


class TapeVerificationError(CompilationError):
    """The static tape verifier reported ERROR findings on a fresh compile.

    Carries the full :class:`~repro.analysis.AnalysisReport` so callers
    (CLI, server telemetry) can surface every finding, not just the first.
    """

    def __init__(self, name: str, report) -> None:
        self.report = report
        preview = "; ".join(f.render() for f in report.findings[:5])
        super().__init__(f"tape verification failed for {name!r}: {preview}")


@dataclass
class _Def:
    """One SSA value during optimization (mutable across passes)."""

    kind: str
    x: Optional[Tuple[str, int]] = None
    y: Optional[Tuple[str, int]] = None
    acc: Optional[Tuple[str, int]] = None
    step: int = 0
    load: int = -1


_BINARY_KINDS = {
    Opcode.ADD: "add",
    Opcode.SUB: "sub",
    Opcode.MUL: "mul",
    Opcode.ADD_PLAIN: "add",
    Opcode.SUB_PLAIN: "sub",
    Opcode.MUL_PLAIN: "mul",
}


# ---------------------------------------------------------------------------
# the optimization pipeline
# ---------------------------------------------------------------------------
def compile_tape(program: CircuitProgram, params: BFVParameters) -> CompiledTape:
    """Compile ``program`` into an optimized executable tape."""
    t = params.plain_modulus
    n = params.slot_count
    half = t // 2

    def centred(value: int) -> int:
        residue = int(value) % t
        return residue - t if residue > half else residue

    # Constants and loads stay content until the live slots are known:
    # ``(broadcast, centred values)`` per constant, ``(constant columns,
    # variable columns, const bound)`` per load.
    consts: List[Tuple[bool, List[int]]] = []
    const_bounds: List[int] = []
    const_index: Dict[object, int] = {}
    raw_loads: List[
        Tuple[List[Tuple[int, int]], List[Tuple[int, str]], int]
    ] = []
    values: List[_Def] = []
    ref_of: Dict[int, Tuple[str, int]] = {}
    numbering: Dict[object, int] = {}
    eliminated = Counter()

    def new_value(defn: _Def, key: object = None) -> Tuple[str, int]:
        vid = len(values)
        values.append(defn)
        if key is not None:
            numbering[key] = vid
        return ("v", vid)

    # -- pass 1+2: copy propagation, const/load dedup, value numbering ------
    for instruction in program.instructions:
        opcode = instruction.opcode
        dst = instruction.result
        if opcode is Opcode.LOAD_INPUT:
            key = ("load", instruction.layout)
            hit = numbering.get(key)
            if hit is not None:
                ref_of[dst] = ("v", hit)
                eliminated["dedup_loads"] += 1
                continue
            const_columns: List[Tuple[int, int]] = []
            var_columns: List[Tuple[int, str]] = []
            const_bound = 0
            for column, slot in enumerate(instruction.layout):
                if slot.constant is not None:
                    value = centred(slot.constant)
                    const_columns.append((column, value))
                    const_bound = max(const_bound, abs(value))
                else:
                    var_columns.append((column, slot.name))
            raw_loads.append((const_columns, var_columns, const_bound))
            ref_of[dst] = new_value(_Def("load", load=len(raw_loads) - 1), key)
        elif opcode is Opcode.LOAD_PLAIN:
            key = ("plain", instruction.name == "broadcast", instruction.values)
            index = const_index.get(key)
            if index is None:
                broadcast = instruction.name == "broadcast"
                raw = instruction.values[:1] if broadcast else instruction.values
                centred_values = [centred(v) for v in raw]
                index = len(consts)
                consts.append((broadcast, centred_values))
                const_bounds.append(max((abs(v) for v in centred_values), default=0))
                const_index[key] = index
            else:
                eliminated["dedup_consts"] += 1
            ref_of[dst] = ("c", index)
        elif opcode is Opcode.ROTATE:
            source = ref_of[instruction.operands[0]]
            step = instruction.step % n
            if step == 0:
                ref_of[dst] = source
                eliminated["aliases"] += 1
                continue
            key = ("rot", source, step)
            hit = numbering.get(key)
            if hit is not None:
                ref_of[dst] = ("v", hit)
                eliminated["cse"] += 1
            else:
                ref_of[dst] = new_value(_Def("rot", x=source, step=step), key)
        elif opcode is Opcode.OUTPUT:
            ref_of[dst] = ref_of[instruction.operands[0]]
            eliminated["aliases"] += 1
        elif opcode is Opcode.NEGATE:
            source = ref_of[instruction.operands[0]]
            key = ("neg", source)
            hit = numbering.get(key)
            if hit is not None:
                ref_of[dst] = ("v", hit)
                eliminated["cse"] += 1
            else:
                ref_of[dst] = new_value(_Def("neg", x=source), key)
        else:
            kind = _BINARY_KINDS.get(opcode)
            if kind is None:  # pragma: no cover - defensive
                raise CompilationError(f"unknown opcode {opcode}")
            lhs, rhs = instruction.operands
            x, y = ref_of[lhs], ref_of[rhs]
            if kind in ("add", "mul") and y < x:
                key = (kind, y, x)  # commutative: canonical operand order
            else:
                key = (kind, x, y)
            hit = numbering.get(key)
            if hit is not None:
                ref_of[dst] = ("v", hit)
                eliminated["cse"] += 1
            else:
                ref_of[dst] = new_value(_Def(kind, x=x, y=y), key)

    output_refs = [
        (name, ref_of[register], length, register)
        for register, name, length in program.outputs
    ]

    # -- dead-value elimination ---------------------------------------------
    reachable = [False] * len(values)
    stack = [ref[1] for _, ref, _, _ in output_refs if ref[0] == "v"]
    while stack:
        vid = stack.pop()
        if reachable[vid]:
            continue
        reachable[vid] = True
        defn = values[vid]
        for ref in (defn.x, defn.y, defn.acc):
            if ref is not None and ref[0] == "v" and not reachable[ref[1]]:
                stack.append(ref[1])
    eliminated["dead"] = sum(1 for flag in reachable if not flag)
    order = [vid for vid in range(len(values)) if reachable[vid]]

    # -- fusion passes -------------------------------------------------------
    output_vids = {ref[1] for _, ref, _, _ in output_refs if ref[0] == "v"}
    fused = Counter()

    def use_counts() -> Counter:
        counts: Counter = Counter()
        for vid in order:
            defn = values[vid]
            for ref in (defn.x, defn.y, defn.acc):
                if ref is not None and ref[0] == "v":
                    counts[ref[1]] += 1
        for _, ref, _, _ in output_refs:
            if ref[0] == "v":
                counts[ref[1]] += 1
        return counts

    # Pass A: mul feeding a single-use add/sub -> mul_add / mul_sub_*.
    # Pass B: single-use rotate folding into its consumer -> rot_*.
    for producer_kind, consumer_kinds in (
        ("mul", ("add", "sub")),
        ("rot", ("mul", "add", "mul_add")),
    ):
        counts = use_counts()
        consumed: set = set()
        for vid in order:
            defn = values[vid]
            if defn.kind not in consumer_kinds:
                continue
            for attr, other_attr in (("x", "y"), ("y", "x")):
                ref = getattr(defn, attr)
                if ref is None or ref[0] != "v":
                    continue
                pvid = ref[1]
                producer = values[pvid]
                if (
                    producer.kind == producer_kind
                    and counts[pvid] == 1
                    and pvid not in output_vids
                    and pvid not in consumed
                ):
                    other = getattr(defn, other_attr)
                    if producer_kind == "rot":
                        defn.kind = "rot_" + defn.kind
                        defn.x, defn.y, defn.step = producer.x, other, producer.step
                    else:
                        if defn.kind == "add":
                            defn.kind = "mul_add"
                        else:
                            defn.kind = "mul_sub_l" if attr == "x" else "mul_sub_r"
                        defn.x, defn.y, defn.acc = producer.x, producer.y, other
                    consumed.add(pvid)
                    fused[defn.kind] += 1
                    break
        order = [vid for vid in order if vid not in consumed]

    # -- register-arena coloring --------------------------------------------
    load_vids = [vid for vid in order if values[vid].kind == "load"]
    op_vids = [vid for vid in order if values[vid].kind != "load"]

    last_use: Dict[int, int] = {}
    for position, vid in enumerate(op_vids):
        defn = values[vid]
        for ref in (defn.x, defn.y, defn.acc):
            if ref is not None and ref[0] == "v":
                last_use[ref[1]] = position
    forever = len(op_vids) + 1
    for _, ref, _, _ in output_refs:
        if ref[0] == "v":
            last_use[ref[1]] = forever

    slot_of: Dict[int, int] = {}
    free_slots: List[int] = []
    slot_count = 0

    def allocate(forbidden: set) -> int:
        nonlocal slot_count
        for index in range(len(free_slots) - 1, -1, -1):
            if free_slots[index] not in forbidden:
                return free_slots.pop(index)
        slot = slot_count
        slot_count += 1
        return slot

    for vid in load_vids:
        slot_of[vid] = allocate(set())

    _NO_ALIAS_ALL = {"rot", "rot_add", "rot_mul", "rot_mul_add"}
    _NO_ALIAS_ACC = {"mul_add", "mul_sub_l", "mul_sub_r"}
    for position, vid in enumerate(op_vids):
        defn = values[vid]
        operand_vids = {
            ref[1]
            for ref in (defn.x, defn.y, defn.acc)
            if ref is not None and ref[0] == "v"
        }
        for operand in operand_vids:
            if last_use.get(operand) == position:
                free_slots.append(slot_of[operand])
        if defn.kind in _NO_ALIAS_ALL:
            forbidden = {slot_of[operand] for operand in operand_vids}
        elif defn.kind in _NO_ALIAS_ACC and defn.acc is not None and defn.acc[0] == "v":
            forbidden = {slot_of[defn.acc[1]]}
        else:
            forbidden = set()
        slot_of[vid] = allocate(forbidden)

    # -- compact the constant pool to what the final tape references --------
    used_consts = sorted(
        {
            ref[1]
            for vid in order
            for ref in (values[vid].x, values[vid].y, values[vid].acc)
            if ref is not None and ref[0] == "c"
        }
        | {ref[1] for _, ref, _, _ in output_refs if ref[0] == "c"}
    )
    const_remap = {old: new for new, old in enumerate(used_consts)}
    n_consts = len(used_consts)

    def buffer_of(ref: Optional[Tuple[str, int]]) -> int:
        if ref is None:
            return -1
        if ref[0] == "c":
            return const_remap[ref[1]]
        return n_consts + slot_of[ref[1]]

    ops = [
        TapeOp(
            values[vid].kind,
            n_consts + slot_of[vid],
            a=buffer_of(values[vid].x),
            b=buffer_of(values[vid].y),
            c=buffer_of(values[vid].acc),
            step=values[vid].step,
        )
        for vid in op_vids
    ]

    accounting, per_output = replay_accounting(program, params)
    outputs = [
        TapeOutput(
            name=name,
            buffer=buffer_of(ref),
            length=length,
            is_ciphertext=per_output[register][0],
            budget=per_output[register][1],
        )
        for name, ref, length, register in output_refs
    ]

    # -- materialize constants and loads at the live slots only -------------
    live = np.asarray(live_slots(ops, outputs, n), dtype=np.int64)
    position_of = {slot: position for position, slot in enumerate(live.tolist())}

    def at_live(columns) -> np.ndarray:
        array = np.zeros(len(live), dtype=np.int64)
        for column, value in columns:
            if column in position_of:
                array[position_of[column]] = value
        return array

    final_consts = [
        np.full(len(live), centred_values[0], dtype=np.int64)
        if broadcast
        else at_live(enumerate(centred_values))
        for broadcast, centred_values in (consts[old] for old in used_consts)
    ]
    tape_loads = []
    for vid in load_vids:
        const_columns, var_columns, const_bound = raw_loads[values[vid].load]
        tape_loads.append(
            TapeLoad(
                buffer=n_consts + slot_of[vid],
                template=at_live(const_columns),
                columns=tuple(
                    (position_of[column], name)
                    for column, name in var_columns
                    if column in position_of
                ),
                names=tuple(name for _, name in var_columns),
                const_bound=const_bound,
            )
        )

    compute_before = sum(
        1 for instruction in program.instructions if instruction.is_compute()
    )
    stats: Dict[str, object] = {
        "instructions": len(program.instructions),
        "compute_ops": compute_before,
        "tape_ops": len(ops),
        "tape_entries": len(ops) + len(tape_loads),
        "loads": len(tape_loads),
        "consts": n_consts,
        "fused": dict(fused),
        "fused_total": sum(fused.values()),
        "eliminated": {key: eliminated[key] for key in sorted(eliminated)},
        "arena_slots": slot_count,
    }
    return CompiledTape(
        params=params,
        live=live,
        consts=final_consts,
        const_bounds=[const_bounds[old] for old in used_consts],
        slot_count=slot_count,
        loads=tape_loads,
        ops=ops,
        outputs=outputs,
        accounting=accounting,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# the process-wide compiled-tape memo
# ---------------------------------------------------------------------------
_CACHE_CAPACITY = 64
_cache: "OrderedDict[Tuple[str, BFVParameters], CompiledTape]" = OrderedDict()
_cache_lock = threading.Lock()
_counters = {"hits": 0, "misses": 0, "compiles": 0, "verified": 0, "findings": 0}


def get_compiled_tape(
    program: CircuitProgram, params: BFVParameters, *, verify: bool = False
) -> CompiledTape:
    """The compiled tape for ``(program, params)``, memoized process-wide.

    Keyed by circuit content fingerprint (name independent) plus the frozen
    BFV parameters — the same identity the server's coalescer groups by, so
    coalesced batches hit the memo across ticks and across backend
    instances.  This lookup is the one fingerprint a scheduled job pays.

    ``verify=True`` runs the static tape verifier
    (:func:`repro.analysis.tape_check.verify_tape`) on every *fresh*
    compile — memo hits were verified when first built — raising
    :class:`TapeVerificationError` on any ERROR finding and folding the
    verified/finding counts into the memo counters (the server's telemetry
    sync turns those into ``analysis_findings``).
    """
    key = (program_fingerprint(program), params)
    with _cache_lock:
        tape = _cache.get(key)
        if tape is not None:
            _cache.move_to_end(key)
            _counters["hits"] += 1
            return tape
        _counters["misses"] += 1
    tape = compile_tape(program, params)
    if verify:
        from repro.analysis.tape_check import verify_tape

        report = verify_tape(program, tape)
        with _cache_lock:
            _counters["verified"] += 1
            _counters["findings"] += len(report.findings)
        if not report.ok:
            raise TapeVerificationError(program.name, report)
    with _cache_lock:
        _counters["compiles"] += 1
        _cache[key] = tape
        _cache.move_to_end(key)
        while len(_cache) > _CACHE_CAPACITY:
            _cache.popitem(last=False)
    return tape


def tape_cache_stats() -> Dict[str, int]:
    """Snapshot of the tape-memo counters (hits/misses/compiles/size)."""
    with _cache_lock:
        snapshot = dict(_counters)
        snapshot["size"] = len(_cache)
        return snapshot


def reset_tape_cache() -> None:
    """Clear the tape memo and its counters (tests and benchmarks)."""
    with _cache_lock:
        _cache.clear()
        for key in _counters:
            _counters[key] = 0
