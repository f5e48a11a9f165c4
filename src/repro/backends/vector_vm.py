"""The batched vector VM: compiled tapes serve B users in one sweep.

The circuit's SSA instruction list is first **backend-compiled** by
:mod:`repro.backends.tapeopt` into an optimized executable tape
(:class:`~repro.backends.tape.CompiledTape`): alias-free, superinstruction
fused, liveness-colored onto a fixed register arena, with all noise/latency
accounting replayed once at compile time.  The arena holds only the tape's
**live slots**: a backward slot-liveness pass from the outputs finds the
handful of the ``n`` slots any output depends on, so every buffer is
``(B, |live|)`` int64, constants and load templates hold only those slots,
and rotations are precomputed gathers over that compact index.  Executing a batch
is then a single pass of the tape's dispatch loop
(:func:`repro.backends.tape._interpret`) issuing in-place numpy ops over
the arena — no ciphertext objects, no per-instruction ledger calls.  With
ops this narrow, Python dispatch rather than numpy work dominates, which is
what batching amortizes.

Compiled tapes are memoized process-wide by circuit fingerprint + BFV
parameters (:func:`repro.backends.tapeopt.get_compiled_tape`), so the
JobServer's coalesced batches reuse tapes across ticks and across backend
instances.

Two properties keep the VM bit-compatible with the reference backend:

* **Congruence-preserving lazy reduction** — slot values are kept as signed
  int64 *centred* residues and only reduced modulo ``t`` when a tracked
  magnitude bound approaches the int64 range.  All intermediate values stay
  congruent mod ``t`` and the final decode is centred mod ``t``, so
  reduction *placement* (which the tape precomputes per input-magnitude
  bucket) can never change decoded outputs.
* **Shared accounting** — noise budgets and latency go through the same
  :class:`~repro.backends.base.NoiseLedger` /
  :class:`~repro.fhe.meter.ExecutionMeter` formulas in the same operation
  order as the reference evaluator.  Accounting is input independent, so
  the tape replays it once at compile time, float-for-float identical.

Simulated latency models the *circuit*, so every report in a batch carries
the same ``latency_ms`` as a single reference execution; the VM's win is
wall-clock throughput, measured by ``scripts/bench_backends.py``.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.backends.base import BaseBackend
from repro.backends.registry import register_backend
from repro.backends.tapeopt import get_compiled_tape
from repro.compiler.circuit import CircuitProgram
from repro.compiler.executor import ExecutionReport, Value
from repro.fhe.params import BFVParameters

__all__ = ["VectorVMBackend"]


@register_backend(
    "vector-vm",
    description=(
        "tape-compiled register VM: fused superinstructions over a "
        "liveness-colored arena, executing B input sets as stacked numpy rows"
    ),
    use_when="batched throughput: many users/trials of one circuit per tape pass",
)
class VectorVMBackend(BaseBackend):
    """Execute a circuit for a whole batch of input sets in one tape sweep."""

    name = "vector-vm"

    def __init__(self, verify: bool = False) -> None:
        #: Run the static tape verifier on every fresh tape compile; ERROR
        #: findings raise TapeVerificationError instead of executing a
        #: miscompiled tape.
        self.verify = bool(verify)

    def execute(
        self,
        program: CircuitProgram,
        inputs: Mapping[str, Value],
        params: Optional[BFVParameters] = None,
        context: Optional[object] = None,
    ) -> ExecutionReport:
        if params is None and context is not None:
            params = context.params
        report = self.execute_many(program, [inputs], params=params)[0]
        return report

    def execute_many(
        self,
        program: CircuitProgram,
        inputs_list: Sequence[Mapping[str, Value]],
        params: Optional[BFVParameters] = None,
    ) -> List[ExecutionReport]:
        if not inputs_list:
            return []
        if params is None:
            params = BFVParameters.default()
        tape = get_compiled_tape(program, params, verify=self.verify)
        return tape.execute_batch(inputs_list, backend_name=self.name)
