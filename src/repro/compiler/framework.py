"""The pass-pipeline compilation framework.

Every compiler in the repo (the CHEHAB :class:`~repro.compiler.pipeline.Compiler`,
the Coyote-style vectorizer, the scalar and greedy-TRS baselines) is expressed
as a :class:`PassPipeline`: an ordered sequence of *named stages* that thread a
mutable :class:`PipelineState` from the source expression to the lowered
circuit.  Running a pipeline produces a :class:`PipelineTrace` — one
:class:`StageTrace` per stage with its wall-clock time and before/after cost
snapshots — which rides along on the :class:`CompilationReport`, so every
compiler in the comparison emits uniform, introspectable reports.

Two kinds of stage cover almost everything:

* an **expression pass** (:class:`ExprPass`) maps ``Expr -> Expr``
  (constant folding, the TRS optimizer);
* a **circuit pass** (:class:`CircuitPass`) maps
  ``CircuitProgram -> CircuitProgram`` (dead code elimination).

Stages that cross the expression/circuit boundary (lowering, rotation-key
selection, Coyote's layout search) implement the generic :class:`Stage`
protocol directly and mutate the state in place.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.compiler.circuit import CircuitProgram, CircuitStats
from repro.core.cost import CostModel
from repro.fhe.rotation_keys import RotationKeyPlan
from repro.ir.nodes import Expr
from repro.trs.rewriter import RewriteStep

__all__ = [
    "PipelineState",
    "Stage",
    "ExprPass",
    "CircuitPass",
    "expr_stage",
    "circuit_stage",
    "StageTrace",
    "PipelineTrace",
    "PassPipeline",
    "CompilationReport",
]


@dataclass
class PipelineState:
    """Mutable state threaded through the stages of one compilation."""

    name: str
    source_expr: Expr
    #: The current expression; expression passes rewrite this field.
    expr: Expr
    #: The lowered circuit; None until a lowering stage produces it.
    circuit: Optional[CircuitProgram] = None
    rewrite_steps: List[RewriteStep] = field(default_factory=list)
    initial_cost: float = 0.0
    final_cost: float = 0.0
    rotation_key_plan: Optional[RotationKeyPlan] = None
    #: Free-form scratch space for stages that need to pass values forward
    #: (e.g. the pre-optimization output arity consumed by lowering).
    metadata: Dict[str, object] = field(default_factory=dict)
    #: Integer work counters of the running stage; :meth:`PassPipeline.run`
    #: resets them before each stage and moves them onto its trace.
    counters: Dict[str, int] = field(default_factory=dict)
    #: ``(expr, model, cost)`` of the last expression costed (see
    #: :meth:`expr_cost`).
    costed: Optional[Tuple[Expr, CostModel, float]] = None

    def expr_cost(self, model: CostModel) -> float:
        """``model.cost(self.expr)``, computed once per expression and model.

        Expressions are never edited in place, so the same expression
        object under the same model object has the same cost.
        """
        costed = self.costed
        if costed is None or costed[0] is not self.expr or costed[1] is not model:
            costed = self.costed = (self.expr, model, model.cost(self.expr))
        return costed[2]


@runtime_checkable
class Stage(Protocol):
    """One named step of a pipeline; mutates the state in place.

    A stage that changes the expression or the circuit assigns a new value
    to ``state.expr``/``state.circuit``; it never edits the old one, whose
    cost snapshot the pipeline keeps.
    """

    name: str
    #: "expr" or "circuit" — which representation the stage operates on.
    kind: str

    def run(self, state: PipelineState) -> None: ...


class ExprPass(Protocol):
    """An expression-to-expression transformation."""

    def __call__(self, expr: Expr, state: PipelineState) -> Expr: ...


class CircuitPass(Protocol):
    """A circuit-to-circuit transformation."""

    def __call__(self, circuit: CircuitProgram, state: PipelineState) -> CircuitProgram: ...


@dataclass(frozen=True)
class _ExprStage:
    name: str
    fn: Callable[[Expr, PipelineState], Expr]
    kind: str = "expr"

    def run(self, state: PipelineState) -> None:
        state.expr = self.fn(state.expr, state)


@dataclass(frozen=True)
class _CircuitStage:
    name: str
    fn: Callable[[CircuitProgram, PipelineState], CircuitProgram]
    kind: str = "circuit"

    def run(self, state: PipelineState) -> None:
        if state.circuit is None:
            raise ValueError(
                f"circuit pass {self.name!r} ran before any lowering stage"
            )
        state.circuit = self.fn(state.circuit, state)


def expr_stage(name: str, fn: ExprPass) -> Stage:
    """Wrap an :class:`ExprPass` into a named pipeline stage."""
    return _ExprStage(name=name, fn=fn)


def circuit_stage(name: str, fn: CircuitPass) -> Stage:
    """Wrap a :class:`CircuitPass` into a named pipeline stage."""
    return _CircuitStage(name=name, fn=fn)


@dataclass(frozen=True)
class StageTrace:
    """Timing and cost accounting of one executed stage."""

    name: str
    kind: str
    wall_time_s: float
    #: Analytical expression cost before/after while the state holds an
    #: expression; circuit compute-operation count once lowered.
    cost_before: float
    cost_after: float
    #: Structural-validation findings recorded after this stage (only
    #: populated by ``compile(verify=True)``; empty means checked-and-clean
    #: or not checked — consult the report's ``analysis`` for which).
    findings: tuple = ()
    #: ``(name, value)`` work counters the stage reported (``optimize``:
    #: nodes walked, memo misses and candidate cost evaluations;
    #: ``vectorize-search``: layout and lane candidates scored).  Empty for
    #: stages that report none.
    counters: Tuple[Tuple[str, int], ...] = ()

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "wall_time_s": self.wall_time_s,
            "cost_before": self.cost_before,
            "cost_after": self.cost_after,
        }
        if self.counters:
            payload["counters"] = dict(self.counters)
        if self.findings:
            payload["findings"] = [f.as_dict() for f in self.findings]
        return payload


@dataclass
class PipelineTrace:
    """Per-stage record of one pipeline run."""

    stages: List[StageTrace] = field(default_factory=list)
    #: Merged structural-validation report across all stages; None unless
    #: the pipeline ran with ``verify=True``.
    analysis: Optional[object] = None

    @property
    def total_time_s(self) -> float:
        return sum(stage.wall_time_s for stage in self.stages)

    @property
    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def stage(self, name: str) -> StageTrace:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no stage named {name!r} in this trace")

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "total_time_s": self.total_time_s,
            "stages": [stage.as_dict() for stage in self.stages],
        }
        if self.analysis is not None:
            payload["analysis"] = self.analysis.as_dict()
        return payload


class PassPipeline:
    """An ordered sequence of named stages with per-stage tracing.

    ``run`` executes the stages against a prepared state and returns the
    trace; ``compile`` is the full entry point used by the compilers — it
    builds the state, runs the pipeline and assembles the
    :class:`CompilationReport` (trace attached, ``compile_time_s`` measured
    over the whole run so the per-stage times sum to ≈ the total).
    """

    def __init__(self, stages: Iterable[Stage], cost_model: Optional[CostModel] = None) -> None:
        self.stages: List[Stage] = list(stages)
        seen = set()
        for stage in self.stages:
            if stage.name in seen:
                raise ValueError(f"duplicate stage name {stage.name!r}")
            seen.add(stage.name)
        self.cost_model = cost_model if cost_model is not None else CostModel()

    @property
    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def _snapshot(self, state: PipelineState) -> Tuple[float, Optional[CircuitStats]]:
        """The state's cost and, once lowered, its circuit statistics."""
        if state.circuit is not None:
            stats = state.circuit.stats()
            return float(stats.total_operations), stats
        return float(state.expr_cost(self.cost_model)), None

    def run(self, state: PipelineState, *, verify: bool = False) -> PipelineTrace:
        """Execute every stage in order; returns the per-stage trace.

        With ``verify=True`` the structural validators of
        :mod:`repro.analysis.pipeline_check` run after every stage; each
        stage's findings land on its :class:`StageTrace` (naming the stage
        that broke an invariant) and the merged report on the trace.
        """
        return self._run(state, verify=verify)[0]

    def _run(
        self, state: PipelineState, *, verify: bool
    ) -> Tuple[PipelineTrace, Optional[CircuitStats]]:
        """:meth:`run`, also returning the final circuit's statistics.

        A snapshot is taken only when a stage replaced ``state.expr`` or
        ``state.circuit``: stages build new values rather than edit them in
        place, so the same objects have the same cost.
        """
        analysis = None
        validate = None
        if verify:
            from repro.analysis import AnalysisReport
            from repro.analysis.pipeline_check import validate_state

            analysis = AnalysisReport()
            validate = validate_state
        trace = PipelineTrace(analysis=analysis)
        snapshot, stats = self._snapshot(state)
        seen = (state.expr, state.circuit)
        for stage in self.stages:
            state.counters = {}
            start = time.perf_counter()
            stage.run(state)
            after = snapshot
            if state.expr is not seen[0] or state.circuit is not seen[1]:
                after, stats = self._snapshot(state)
                seen = (state.expr, state.circuit)
            elapsed = time.perf_counter() - start
            findings: tuple = ()
            if validate is not None:
                stage_report = validate(state, stage_name=stage.name)
                findings = tuple(stage_report.findings)
                analysis.merge(stage_report)
            trace.stages.append(
                StageTrace(
                    name=stage.name,
                    kind=getattr(stage, "kind", "expr"),
                    wall_time_s=elapsed,
                    cost_before=snapshot,
                    cost_after=after,
                    findings=findings,
                    counters=tuple(state.counters.items()),
                )
            )
            snapshot = after
        return trace, stats

    def compile(
        self, expr: Expr, name: str = "circuit", *, verify: bool = False
    ) -> "CompilationReport":
        """Run the pipeline on ``expr`` and assemble the report.

        ``verify=True`` additionally validates the expression/circuit after
        every stage and attaches the merged findings to the report's
        ``analysis``.
        """
        start = time.perf_counter()
        state = PipelineState(name=name, source_expr=expr, expr=expr)
        trace, stats = self._run(state, verify=verify)
        if state.circuit is None:
            raise ValueError(
                f"pipeline {self.stage_names} produced no circuit for {name!r}"
            )
        elapsed = time.perf_counter() - start
        return CompilationReport(
            name=name,
            source_expr=expr,
            optimized_expr=state.expr,
            circuit=state.circuit,
            stats=stats,
            compile_time_s=elapsed,
            rewrite_steps=list(state.rewrite_steps),
            initial_cost=state.initial_cost,
            final_cost=state.final_cost,
            rotation_key_plan=state.rotation_key_plan,
            trace=trace,
            analysis=trace.analysis,
        )


@dataclass
class CompilationReport:
    """Everything produced by one compilation."""

    name: str
    source_expr: Expr
    optimized_expr: Expr
    circuit: CircuitProgram
    stats: CircuitStats
    compile_time_s: float
    rewrite_steps: List[RewriteStep] = field(default_factory=list)
    initial_cost: float = 0.0
    final_cost: float = 0.0
    rotation_key_plan: Optional[RotationKeyPlan] = None
    #: Per-stage timing/cost trace of the pipeline that produced the report.
    trace: Optional[PipelineTrace] = None
    #: Merged static-analysis report of the per-stage validators; None
    #: unless compiled with ``verify=True``.
    analysis: Optional[object] = None

    @property
    def cost_improvement(self) -> float:
        """Fractional reduction of the analytical cost achieved by rewriting."""
        if self.initial_cost <= 0:
            return 0.0
        return max(0.0, (self.initial_cost - self.final_cost) / self.initial_cost)

    def as_dict(self) -> Dict[str, object]:
        """Machine-readable summary (the CLI/telemetry surface).

        The ``findings`` block is always present: ``checked`` says whether
        the per-stage validators ran, so "no findings" is distinguishable
        from "never looked".
        """
        checked = self.analysis is not None
        return {
            "name": self.name,
            "compile_time_s": self.compile_time_s,
            "initial_cost": self.initial_cost,
            "final_cost": self.final_cost,
            "cost_improvement": self.cost_improvement,
            "stats": self.stats.as_dict(),
            "trace": self.trace.as_dict() if self.trace is not None else None,
            "findings": {
                "checked": checked,
                "ok": self.analysis.ok if checked else None,
                "counts": self.analysis.counts() if checked else None,
                "items": (
                    [f.as_dict() for f in self.analysis.findings]
                    if checked
                    else []
                ),
            },
        }

    def seal_code(self) -> str:
        """SEAL-style C++ for the compiled circuit."""
        from repro.compiler.codegen import generate_seal_code

        return generate_seal_code(self.circuit)
