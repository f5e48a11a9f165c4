"""Execute lowered circuits through the pluggable execution-backend layer.

:func:`execute` and :func:`execute_many` are thin dispatchers over the
backend registry (:mod:`repro.backends`): the circuit runs on the named
:class:`~repro.backends.base.ExecutionBackend` — ``reference`` (the
SEAL-style evaluator, the default), ``vector-vm`` (batched tape VM) or
``cost-sim`` (accounting only) — and comes back as an
:class:`ExecutionReport` with

* the decrypted output values (meaningful slots only; empty for
  accounting-only backends),
* the simulated execution latency and per-operation counts,
* the consumed noise budget (initial minus the minimum remaining budget over
  the outputs), and
* whether the noise budget was exhausted (the circuit "failed to execute",
  as Coyote does on Sort-4 and two of the polynomial-tree benchmarks in the
  paper).

The ``REPRO_BACKEND`` environment variable overrides the default backend for
callers that do not pass ``backend=`` explicitly (used by ``make
bench-smoke`` to drive the existing benchmark harnesses through the vector
VM).

:func:`reference_output` computes the same outputs in plaintext, which the
tests use to verify end-to-end correctness of every compiled benchmark.  It
runs the compiled plaintext check of :mod:`repro.ir.plaintext`
(:func:`reference_check`): only the output slots' scalar ops, over exact
integers mod ``t``, equal to the full-vector
:func:`~repro.ir.evaluate.evaluate` by construction and by fuzz test.
Callers verifying many input sets of one expression — the job server keeps
one check per memoized circuit — compile it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.compiler.circuit import CircuitProgram
from repro.fhe.params import BFVParameters
from repro.ir.nodes import Expr
from repro.ir.plaintext import PlaintextCheck, compile_check

__all__ = [
    "ExecutionReport",
    "execute",
    "execute_many",
    "reference_output",
    "reference_check",
    "declared_outputs",
    "default_backend_name",
]

Value = Union[int, Sequence[int]]


def declared_outputs(
    program: CircuitProgram, outputs: Mapping[str, Sequence[int]]
) -> List[int]:
    """Concatenate execution ``outputs`` in the circuit's declaration order.

    Multi-output circuits must be verified on the concatenation of the
    outputs the circuit itself declares — not on whatever single entry dict
    iteration happens to yield first.  Shared by the experiment harness and
    the :mod:`repro.api` facade so the verification path cannot drift.
    """
    collected: List[int] = []
    for _, name, _ in program.outputs:
        collected.extend(outputs.get(name, []))
    return collected


@dataclass
class ExecutionReport:
    """Result of executing a circuit on one of the simulator backends."""

    outputs: Dict[str, List[int]] = field(default_factory=dict)
    latency_ms: float = 0.0
    operation_counts: Dict[str, int] = field(default_factory=dict)
    consumed_noise_budget: float = 0.0
    remaining_noise_budget: float = 0.0
    noise_budget_exhausted: bool = False
    encrypted_inputs: int = 0
    #: Registry name of the backend that produced this report.
    backend: str = "reference"
    #: Input sets executed together in the batch this report came from.
    batch_size: int = 1

    @property
    def succeeded(self) -> bool:
        """True when every output decrypted within the noise budget."""
        return not self.noise_budget_exhausted


def default_backend_name() -> str:
    """The backend used when callers pass ``backend=None``.

    ``REPRO_BACKEND`` overrides the built-in default (``reference``), which
    lets whole harnesses be rerun on another backend without touching code.
    """
    from repro.backends.registry import default_backend_name as _default

    return _default()


def execute(
    program: CircuitProgram,
    inputs: Mapping[str, Value],
    params: Optional[BFVParameters] = None,
    context: Optional[object] = None,
    backend: Union[str, None, object] = None,
) -> ExecutionReport:
    """Run ``program`` on the named execution backend with the given inputs.

    ``backend`` is a registry name (``reference``/``vector-vm``/``cost-sim``),
    a :class:`~repro.backends.registry.BackendSpec` or a live backend object;
    None uses :func:`default_backend_name`.  ``context`` (a pre-built
    :class:`~repro.fhe.evaluator.FHEContext`) is honoured by the reference
    backend; tape backends derive what they need from ``params``.
    """
    from repro.backends.registry import get_backend

    return get_backend(backend).execute(program, inputs, params=params, context=context)


def execute_many(
    program: CircuitProgram,
    inputs_list: Sequence[Mapping[str, Value]],
    params: Optional[BFVParameters] = None,
    backend: Union[str, None, object] = None,
) -> List[ExecutionReport]:
    """Run ``program`` once per input set, batched where the backend can.

    The vector VM executes the whole batch in one pass over its instruction
    tape; other backends fall back to sequential execution.  Reports come
    back in input order with ``batch_size`` set.
    """
    from repro.backends.registry import get_backend

    return get_backend(backend).execute_many(program, list(inputs_list), params=params)


def reference_output(
    expr: Expr,
    inputs: Mapping[str, Value],
    length: Optional[int] = None,
    slot_count: int = 64,
    plain_modulus: Optional[int] = None,
) -> List[int]:
    """Plaintext reference output of an IR expression (meaningful slots only).

    BFV computes over ``Z_t``, so the reference is reduced modulo the
    plaintext modulus and mapped to centred representatives — exactly what
    decrypting and decoding the compiled circuit yields.  ``plain_modulus``
    defaults to the paper's parameters; pass it explicitly for non-default
    ones.

    This is :func:`reference_check` compiled and run once; callers checking
    many input sets against one expression compile the check once instead.
    """
    return reference_check(
        expr, length=length, slot_count=slot_count, plain_modulus=plain_modulus
    ).run(inputs)


def reference_check(
    expr: Expr,
    length: Optional[int] = None,
    slot_count: int = 64,
    plain_modulus: Optional[int] = None,
) -> PlaintextCheck:
    """The compiled plaintext check behind :func:`reference_output`.

    Equal to centring ``evaluate(expr, ..., modulus=plain_modulus)[:length]``
    for every input set (:mod:`repro.ir.plaintext`), at the cost of the
    output slots' scalar ops only.
    """
    if plain_modulus is None:
        plain_modulus = BFVParameters.default().plain_modulus
    return compile_check(expr, modulus=plain_modulus, length=length, slot_count=slot_count)
