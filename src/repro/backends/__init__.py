"""Pluggable execution backends for lowered ciphertext circuits.

The execution counterpart of the compiler registry: circuits produced by any
compiler run on a named :class:`~repro.backends.base.ExecutionBackend`,

* ``reference`` — the SEAL-style :class:`~repro.fhe.evaluator.Evaluator`
  interpreter (bit-compatibility baseline);
* ``vector-vm`` — a tape-compiled register VM: circuits are backend-compiled
  (:mod:`repro.backends.tapeopt`) into fused, alias-free superinstruction
  tapes over a liveness-colored register arena, then executed for a whole
  batch of input sets as stacked numpy arrays in one in-place sweep.

Every backend decrypts real outputs.  A circuit's latency, operation counts
and noise without running it come from
:func:`~repro.backends.base.replay_accounting`.

Backends register through the same decorator/spec idiom as
``@register_compiler`` (:mod:`repro.backends.registry`), share per-execution
accounting through :class:`~repro.fhe.meter.ExecutionMeter` and
:class:`~repro.backends.base.NoiseLedger`, and are addressed by name from
``repro.execute(..., backend="vector-vm")``, the ``--backend`` CLI flag and
the :class:`~repro.service.execution.ExecutionService`.
"""

from repro.backends.base import (
    BaseBackend,
    ExecutionBackend,
    NoiseLedger,
    program_fingerprint,
)
from repro.backends.registry import (
    DEFAULT_BACKEND,
    BackendInfo,
    BackendSpec,
    available_backends,
    backend_info,
    build_backend,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.backends.tape import CompiledTape, TapeOp, TapePlan
from repro.backends.tapeopt import (
    compile_tape,
    get_compiled_tape,
    reset_tape_cache,
    tape_cache_stats,
)

__all__ = [
    "ExecutionBackend",
    "BaseBackend",
    "NoiseLedger",
    "program_fingerprint",
    "BackendInfo",
    "BackendSpec",
    "register_backend",
    "available_backends",
    "backend_info",
    "build_backend",
    "get_backend",
    "resolve_backend",
    "default_backend_name",
    "DEFAULT_BACKEND",
    "CompiledTape",
    "TapeOp",
    "TapePlan",
    "compile_tape",
    "get_compiled_tape",
    "tape_cache_stats",
    "reset_tape_cache",
]
