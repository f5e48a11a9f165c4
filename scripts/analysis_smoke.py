#!/usr/bin/env python
"""CI smoke: the static-analysis stack end to end.

Exercises every layer the ``repro.analysis`` package ships:

* ``repro lint`` semantics over the installed package — the concurrency /
  determinism / hygiene lint must come back with zero findings;
* ``repro analyze`` semantics on two representative workloads (a
  rotation-heavy reduction and a fusion-heavy kernel), both compilers,
  pipeline validators plus the full tape verifier — zero findings;
* the seeded mutation harness on one workload: every injected defect
  (operand swap, dropped reduction, extended lifetime, illegal fusion,
  dropped live slot) must be detected, proving the verifier is
  load-bearing rather than vacuously green.

Exits non-zero (with a one-line reason) on any violation.
"""

from __future__ import annotations

import os
import sys

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )

from repro import api
from repro.analysis.mutate import DEFECT_CLASSES, run_mutation_harness
from repro.backends.tapeopt import compile_tape
from repro.fhe.params import BFVParameters
from repro.workloads import build_workload

WORKLOADS = ("dot-product", "l2-distance")
COMPILERS = ("greedy", "coyote")


def fail(reason: str) -> None:
    print(f"FAIL: {reason}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    # 1. codebase lint
    report, files_checked = api.lint()
    if files_checked <= 0:
        fail("lint walked zero files")
    if not report.ok:
        fail(
            f"lint found {report.errors} error(s): "
            + "; ".join(f.render() for f in report.findings[:3])
        )
    print(f"lint: clean across {files_checked} files")

    # 2. analyze two workloads under both compilers
    for workload_name in WORKLOADS:
        workload = build_workload(workload_name)
        for compiler in COMPILERS:
            _, analysis = api.analyze(
                workload.source, compiler, name=workload.name
            )
            if not analysis.ok or analysis.findings:
                fail(
                    f"{workload_name}/{compiler}: "
                    + "; ".join(f.render() for f in analysis.findings[:3])
                )
            print(
                f"analyze: {workload_name}/{compiler} clean "
                f"({len(analysis.checkers_run)} checkers)"
            )

    # 3. mutation harness: every injected defect must be caught.  The case
    # mix guarantees every class has a site: l2-distance (ordered subs),
    # tree-ensemble (scheduled reduces at the large bucket), and a
    # shared-product kernel (multi-consumer multiply for illegal fusion,
    # overlapping lifetimes for the clobber mutant).
    params = BFVParameters.default(1024)
    cases = []
    sources = [
        build_workload("l2-distance").source,
        build_workload("tree-ensemble").source,
        "(+ (+ (* a b) c) (* (* a b) d))",
    ]
    for source in sources:
        compiled = api.compile(source, "greedy")
        cases.append((compiled.circuit, compile_tape(compiled.circuit, params)))
    result = run_mutation_harness(cases, seed=7, per_class=2)
    for line in result.summary_lines():
        print(f"mutations: {line}")
    if len(result.classes_exercised) < len(DEFECT_CLASSES):
        fail(
            "mutation harness exercised only "
            + ", ".join(result.classes_exercised)
        )
    if not result.all_detected:
        fail("mutation harness: an injected defect went undetected")

    print("analysis smoke OK")


if __name__ == "__main__":
    main()
