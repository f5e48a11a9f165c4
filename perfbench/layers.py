"""Per-layer tracing shims for the traced run (``--trace 1``).

The program is not changed.  :class:`LayerTracer` wraps public functions of
each layer where their caller looks them up (a class attribute, or a module
global read at call time), records a span or a count around each call, and
puts every original back on :meth:`LayerTracer.uninstall`.  Spans stay in
memory; the rollup turns them into the per-layer metrics.

Layer -> the end-to-end metric it should move, and on which workload:

* ``service``, ``compiler``, ``trs``, ``rl`` -> ``cold-compile``
  ``job_p50_ms`` / ``jobs_per_s`` (``rl`` -> ``job_p90_ms``); about zero on
  the ``serve-*`` workloads, where compiles are memoized;
* ``backends`` tape compile and memo -> ``cold-compile``; ``execute_many``
  -> ``serve-wide`` ``jobs_per_s`` (less on ``serve-small`` ``job_p50_ms``);
* ``fhe`` (the server's per-job plaintext check) -> ``serve-small``
  ``jobs_per_s``;
* ``server`` -> ``serve-small`` ``job_p50_ms``; batch width and circuit
  memo -> ``serve-wide`` ``jobs_per_s``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import repro.backends.tapeopt as tapeopt
import repro.ir.analysis as ir_analysis
import repro.server.server as server_module
from repro.backends.vector_vm import VectorVMBackend
from repro.rl.agent import ChehabAgent
from repro.server.server import JobServer
from repro.server.store import JobStore
from repro.service.execution import ExecutionService
from repro.service.service import CompilationService
from repro.trs.rule import FunctionRule, PatternRule


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, start: float, parent: Optional["Span"]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        #: Summed duration of the direct child spans.
        self.child_s = 0.0


class LayerTracer:
    """Installs the shims, keeps spans and counts, and rolls them up."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[Span] = []
        self._originals: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _enter(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None)
        self._stack.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
        self.spans.append(span)

    def _patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _span(self, owner: object, attr: str, name: str) -> None:
        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                self.counts[name + ".calls"] += 1
                span = self._enter(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._exit(span)

            return wrapper

        self._patch(owner, attr, make)

    # -- install / uninstall -------------------------------------------------
    def install(self) -> None:
        tracer = self
        self._span(JobServer, "submit", "server.submit")
        self._span(JobServer, "tick", "server.tick")
        self._span(JobServer, "result", "server.result")
        for attr in ("append", "append_record", "append_records"):
            self._span(JobStore, attr, "server.store")
        self._span(server_module, "coalesce", "server.coalesce")
        self._span(ExecutionService, "run_jobs", "server.run_jobs")
        self._span(server_module, "reference_output", "fhe.reference_output")
        self._span(tapeopt, "compile_tape", "backends.tape_compile")
        self._span(ChehabAgent, "optimize", "rl.optimize")

        def execute_many(original: Callable) -> Callable:
            def wrapper(backend, program, inputs_list, *args, **kwargs):
                tracer.counts["backends.execute_many.rows"] += len(inputs_list)
                tracer.counts["backends.execute_many.calls"] += 1
                span = tracer._enter("backends.execute_many")
                try:
                    return original(backend, program, inputs_list, *args, **kwargs)
                finally:
                    tracer._exit(span)

            return wrapper

        self._patch(VectorVMBackend, "execute_many", execute_many)

        def compile_expression(original: Callable) -> Callable:
            def wrapper(service, expr, *args, **kwargs):
                hits = service.cache.stats.hits
                tracer.counts["service.compile.calls"] += 1
                span = tracer._enter("service.compile")
                try:
                    report = original(service, expr, *args, **kwargs)
                finally:
                    tracer._exit(span)
                if service.cache.stats.hits > hits:
                    tracer.counts["service.cache.hits"] += 1
                return report

            return wrapper

        self._patch(CompilationService, "compile_expression", compile_expression)

        def find(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                tracer.counts["trs.rule_find.calls"] += 1
                return original(*args, **kwargs)

            return wrapper

        self._patch(PatternRule, "find", find)
        self._patch(FunctionRule, "find", find)

        def iter_subexpressions(original: Callable) -> Callable:
            def wrapper(expr):
                counts = tracer.counts
                counts["trs.subexpr_walks"] += 1
                visits = 0
                try:
                    for item in original(expr):
                        visits += 1
                        yield item
                finally:
                    counts["trs.subexpr_visits"] += visits

            return wrapper

        self._patch(ir_analysis, "iter_subexpressions", iter_subexpressions)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- rollup --------------------------------------------------------------
    def busy_s(self, name: str) -> float:
        """Summed duration of ``name`` spans not nested in another ``name``."""
        total = 0.0
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent is not None and parent.name != name:
                parent = parent.parent
            if parent is None:
                total += span.end - span.start
        return total

    def covered_s(self) -> float:
        """Wall time covered by root spans (they never overlap: one thread)."""
        return sum(span.end - span.start for span in self.spans if span.parent is None)

    def rollup(self, wall_s: float, counters: Dict[str, float]) -> Dict[str, float]:
        """The span and count metrics; inapplicable ratios read 0.

        ``counters`` are the server's telemetry counter deltas over the
        traced window.
        """
        counts = self.counts

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        rows = counts["backends.execute_many.rows"]
        execute_s = self.busy_s("backends.execute_many")
        metrics: Dict[str, float] = {
            "service.compile.calls": counts["service.compile.calls"],
            "service.compile.busy_s": self.busy_s("service.compile"),
            "service.cache.hit_ratio": ratio(
                counts["service.cache.hits"], counts["service.compile.calls"]
            ),
        }
        metrics.update(
            {
                "trs.rule_find.calls": counts["trs.rule_find.calls"],
                "trs.subexpr_walks": counts["trs.subexpr_walks"],
                "trs.subexpr_visits": counts["trs.subexpr_visits"],
                "rl.optimize.calls": counts["rl.optimize.calls"],
                "rl.optimize.busy_s": self.busy_s("rl.optimize"),
                "backends.tape_compile.calls": counts["backends.tape_compile.calls"],
                "backends.tape_compile.busy_s": self.busy_s("backends.tape_compile"),
                "backends.tape_memo.hit_ratio": ratio(
                    counters.get("tape_cache_hits", 0.0),
                    counters.get("tape_cache_hits", 0.0) + counters.get("tape_compiles", 0.0),
                ),
                "backends.execute_many.calls": counts["backends.execute_many.calls"],
                "backends.execute_many.rows": rows,
                "backends.execute_many.busy_s": execute_s,
                "backends.execute_many.us_per_row": ratio(execute_s * 1e6, rows),
                "fhe.reference_output.calls": counts["fhe.reference_output.calls"],
                "fhe.reference_output.busy_s": self.busy_s("fhe.reference_output"),
                "server.submit.busy_s": self.busy_s("server.submit"),
                "server.store.busy_s": self.busy_s("server.store"),
                "server.coalesce.busy_s": self.busy_s("server.coalesce"),
                "server.run_jobs.busy_s": self.busy_s("server.run_jobs"),
                "server.result.busy_s": self.busy_s("server.result"),
                "server.tick.calls": counts["server.tick.calls"],
                "server.tick.self_s": sum(
                    span.end - span.start - span.child_s
                    for span in self.spans
                    if span.name == "server.tick"
                ),
                "server.jobs_per_batch": ratio(
                    counters.get("executions_total", 0.0), counters.get("batches_total", 0.0)
                ),
                "server.circuit_memo.hit_ratio": ratio(
                    counters.get("circuit_memo_hits", 0.0),
                    counters.get("circuit_memo_hits", 0.0)
                    + counters.get("circuit_memo_misses", 0.0),
                ),
                "trace.coverage": ratio(self.covered_s(), wall_s),
            }
        )
        return {name: float(value) for name, value in metrics.items()}

