"""End-to-end compilation pipeline (the CHEHAB driver).

:class:`Compiler` wires the stages together as a declarative
:class:`~repro.compiler.framework.PassPipeline`:

1. ``constant-fold`` — expression-level classic passes;
2. ``optimize`` — the TRS optimizer (any object exposing
   ``optimize(expr) -> RewriteResult``, i.e. the trained RL agent, the
   greedy/beam baselines or ``None`` for the unoptimized "Initial"
   configuration of Table 6);
3. ``lower`` — layout assignment and lowering to ciphertext instructions;
4. ``dce`` — circuit-level dead code elimination;
5. ``rotation-keys`` — rotation-key selection (Appendix B).

The returned :class:`CompilationReport` carries everything the experiment
harness needs — the optimized expression, the lowered circuit, its static
statistics, the measured compilation time, the rotation-key plan — plus the
:class:`~repro.compiler.framework.PipelineTrace` with per-stage wall-clock
times and cost snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.core.cost import CostModel
from repro.compiler.framework import (
    CompilationReport,
    PassPipeline,
    PipelineState,
    Stage,
    circuit_stage,
    expr_stage,
)
from repro.compiler.dsl import Program
from repro.compiler.lowering import LoweringOptions, lower
from repro.compiler.passes import constant_fold, dead_code_eliminate
from repro.fhe.params import BFVParameters
from repro.fhe.rotation_keys import select_rotation_keys
from repro.ir.nodes import Expr
from repro.trs.rewriter import GreedyRewriter, BeamSearchRewriter, RewriteResult, RewriteStep

__all__ = ["CompilerOptions", "CompilationReport", "Compiler", "default_pipeline"]


@dataclass
class CompilerOptions:
    """Configuration of one compilation run."""

    #: Either the name of a built-in optimizer ("greedy", "beam", "none") or
    #: any object with an ``optimize(expr) -> RewriteResult`` method (e.g. a
    #: trained :class:`repro.rl.agent.ChehabAgent`).
    optimizer: Union[str, object] = "greedy"
    #: Cost model used by the built-in optimizers.
    cost_model: CostModel = field(default_factory=CostModel)
    #: Transform input data layout on the client before encryption (Sec. 7.3).
    layout_before_encryption: bool = True
    #: Run the automatic rotation-key selection pass (Appendix B).  Disabled
    #: in the main comparison for parity with Coyote.
    select_rotation_keys: bool = False
    #: Upper bound on the number of generated Galois keys (default 2*log2 n).
    rotation_key_budget: Optional[int] = None
    #: Encryption parameters (only the slot count and noise budget matter to
    #: compilation; execution uses the same parameters).
    params: BFVParameters = field(default_factory=BFVParameters.default)
    #: Maximum rewrite steps for the built-in optimizers.
    max_rewrite_steps: int = 75


def _resolve_optimizer(options: CompilerOptions):
    optimizer = options.optimizer
    if optimizer is None or optimizer == "none":
        return None
    if isinstance(optimizer, str):
        if optimizer == "greedy":
            return GreedyRewriter(
                cost_model=options.cost_model,
                max_steps=options.max_rewrite_steps,
            )
        if optimizer == "beam":
            return BeamSearchRewriter(
                cost_model=options.cost_model,
                max_steps=min(options.max_rewrite_steps, 20),
            )
        raise ValueError(f"unknown optimizer {optimizer!r}")
    if not hasattr(optimizer, "optimize"):
        raise TypeError("optimizer must expose an optimize(expr) method")
    return optimizer


@dataclass(frozen=True)
class _OptimizeStage:
    """TRS optimization: records costs and the applied rewrite sequence."""

    options: CompilerOptions
    name: str = "optimize"
    kind: str = "expr"

    def run(self, state: PipelineState) -> None:
        from repro.ir.evaluate import output_arity

        cost_model = self.options.cost_model
        # The output arity of the folded-but-unoptimized expression drives
        # lowering; rewriting must not change what the program computes.
        state.metadata["output_arity"] = output_arity(state.expr)
        state.initial_cost = state.expr_cost(cost_model)
        optimizer = _resolve_optimizer(self.options)
        if optimizer is None:
            state.final_cost = state.initial_cost
            return
        result: RewriteResult = optimizer.optimize(state.expr)
        state.expr = constant_fold(result.optimized)
        state.rewrite_steps = list(result.steps)
        state.counters.update(getattr(result, "counters", {}))
        if state.expr is result.optimized and getattr(result, "cost_model", None) is cost_model:
            # The search already priced its output under this model.
            state.costed = (state.expr, cost_model, result.final_cost)
        state.final_cost = state.expr_cost(cost_model)


@dataclass(frozen=True)
class _LowerStage:
    """Lower the optimized expression to a ciphertext circuit."""

    options: CompilerOptions
    name: str = "lower"
    kind: str = "circuit"

    def run(self, state: PipelineState) -> None:
        from repro.ir.evaluate import output_arity

        lowering_options = LoweringOptions(
            layout_before_encryption=self.options.layout_before_encryption
        )
        length = state.metadata.get("output_arity")
        if length is None:
            length = output_arity(state.expr)
        state.circuit = lower(
            state.expr,
            name=state.name,
            options=lowering_options,
            output_length=int(length),
        )


@dataclass(frozen=True)
class _RotationKeyStage:
    """Select the Galois keys to generate for the circuit's rotations."""

    options: CompilerOptions
    name: str = "rotation-keys"
    kind: str = "circuit"

    def run(self, state: PipelineState) -> None:
        if not self.options.select_rotation_keys:
            return
        if state.circuit is None or not state.circuit.rotation_steps:
            return
        state.rotation_key_plan = select_rotation_keys(
            state.circuit.rotation_steps,
            slot_count=self.options.params.slot_count,
            beta=self.options.rotation_key_budget,
        )


def default_pipeline(options: Optional[CompilerOptions] = None) -> PassPipeline:
    """The declarative CHEHAB stage sequence for ``options``."""
    options = options if options is not None else CompilerOptions()
    stages: List[Stage] = [
        expr_stage("constant-fold", lambda expr, state: constant_fold(expr)),
        _OptimizeStage(options),
        _LowerStage(options),
        circuit_stage("dce", lambda circuit, state: dead_code_eliminate(circuit)),
        _RotationKeyStage(options),
    ]
    return PassPipeline(stages, cost_model=options.cost_model)


class Compiler:
    """The CHEHAB compiler driver (a declarative default pipeline)."""

    def __init__(self, options: Optional[CompilerOptions] = None) -> None:
        self.options = options if options is not None else CompilerOptions()

    @property
    def pipeline(self) -> PassPipeline:
        """The stage sequence this compiler runs."""
        return default_pipeline(self.options)

    # -- entry points --------------------------------------------------------------------
    def compile_program(self, program: Program) -> CompilationReport:
        """Compile a staged DSL program."""
        return self.compile_expression(program.output_expr, name=program.name)

    def compile_expression(
        self, expr: Expr, name: str = "circuit", *, verify: bool = False
    ) -> CompilationReport:
        """Compile a single IR expression."""
        return self.pipeline.compile(expr, name=name, verify=verify)
