"""The cost-only simulator: noise/latency accounting without any crypto.

Walks the instruction tape running *only* the noise-budget and latency
models — no slot data is ever materialised, so a "run" costs a few
microseconds regardless of the ring dimension.  The report carries the same
latency, operation counts and noise figures as a reference execution (the
vector VM's own :func:`~repro.backends.base.replay_accounting` walk of the
:class:`~repro.backends.base.NoiseLedger` formulas) but an empty
``outputs`` dict, which is exactly what design-space exploration and RL
reward evaluation need: the question is "what would this circuit cost?",
not "what does it compute?".

Inputs are optional and ignored — the accounting of a BFV circuit is
input-independent.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.backends.base import BaseBackend, replay_accounting
from repro.backends.registry import register_backend
from repro.compiler.circuit import CircuitProgram
from repro.compiler.executor import ExecutionReport, Value
from repro.fhe.params import BFVParameters

__all__ = ["CostSimBackend"]


@register_backend(
    "cost-sim",
    description="no-crypto simulator running only the noise/latency models",
    use_when="design-space exploration and RL reward evaluation (no outputs)",
    produces_outputs=False,
)
class CostSimBackend(BaseBackend):
    """Account for a circuit without executing it."""

    name = "cost-sim"
    produces_outputs = False

    def execute(
        self,
        program: CircuitProgram,
        inputs: Optional[Mapping[str, Value]] = None,
        params: Optional[BFVParameters] = None,
        context: Optional[object] = None,
    ) -> ExecutionReport:
        if params is None and context is not None:
            params = context.params
        return self.execute_many(program, [inputs or {}], params=params)[0]

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
        # Accounting is input-independent: replay the models once per batch.
        accounting, _ = replay_accounting(program, params)
        return accounting.reports(len(inputs_list), self.name)
