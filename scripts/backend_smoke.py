#!/usr/bin/env python
"""CI smoke: run the same circuit on both execution backends and diff.

Compiles a handful of kernels, executes each on ``reference`` and
``vector-vm`` and checks the backend-parity invariants CI cares about:

* vector-vm outputs are bit-identical to reference outputs (single and
  batched execution);
* both backends report identical latency, operation counts and noise
  accounting;
* a 3-row vector-vm ``execute_many`` of one input set gives three reports,
  each with the reference run's outputs and accounting;
* the tape optimizer actually engages: fused-superinstruction count > 0 on
  a rotation-heavy kernel, and the process-wide compiled-tape memo hits on
  the second execution of the same circuit.

Exits non-zero (with a one-line reason) on any violation.
"""

from __future__ import annotations

import argparse
import os
import sys

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )

from repro.backends.tapeopt import get_compiled_tape, reset_tape_cache, tape_cache_stats
from repro.compiler import build_compiler, execute, execute_many
from repro.fhe.params import BFVParameters
from repro.kernels.registry import benchmark_by_name

KERNELS = ("dot_product_8", "matrix_multiply_3x3", "box_blur_3x3", "sort_3")
#: Rotation-heavy kernel on which peephole fusion must demonstrably engage.
FUSION_KERNEL = "dot_product_8"
#: Report fields every backend must agree on exactly.
ACCOUNTING = (
    "latency_ms",
    "operation_counts",
    "consumed_noise_budget",
    "remaining_noise_budget",
    "noise_budget_exhausted",
    "encrypted_inputs",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--compiler", default="greedy")
    parser.add_argument("--degree", type=int, default=4096)
    parser.add_argument("--batch", type=int, default=8)
    args = parser.parse_args()

    params = BFVParameters.default(args.degree)
    compiler = build_compiler(args.compiler)
    reset_tape_cache()
    for name in KERNELS:
        benchmark = benchmark_by_name(name)
        circuit = compiler.compile_expression(benchmark.expression(), name=name).circuit
        inputs = [benchmark.sample_inputs(seed=seed) for seed in range(args.batch)]

        reference = [execute(circuit, item, params=params, backend="reference") for item in inputs]
        vm = execute_many(circuit, inputs, params=params, backend="vector-vm")
        vm_many = execute_many(circuit, [inputs[0]] * 3, params=params, backend="vector-vm")

        if name == FUSION_KERNEL:
            stats = get_compiled_tape(circuit, params).stats
            if int(stats["fused_total"]) <= 0:
                print(
                    f"FAIL: tape optimizer fused nothing on rotation-heavy "
                    f"{name} (stats: {stats})",
                    file=sys.stderr,
                )
                return 1
            hits_before = tape_cache_stats()["hits"]
            execute_many(circuit, inputs, params=params, backend="vector-vm")
            hits_after = tape_cache_stats()["hits"]
            if hits_after <= hits_before:
                print(
                    f"FAIL: second execution of {name} did not hit the "
                    f"compiled-tape memo ({tape_cache_stats()})",
                    file=sys.stderr,
                )
                return 1

        for index, (ref, batched) in enumerate(zip(reference, vm)):
            if ref.outputs != batched.outputs:
                print(
                    f"FAIL: {name}[{index}] outputs differ: reference {ref.outputs} "
                    f"vs vector-vm {batched.outputs}",
                    file=sys.stderr,
                )
                return 1
        head = reference[0]
        for metric in ACCOUNTING:
            if getattr(head, metric) != getattr(vm[0], metric):
                print(
                    f"FAIL: {name} vector-vm {metric} diverges: "
                    f"{getattr(head, metric)!r} vs {getattr(vm[0], metric)!r}",
                    file=sys.stderr,
                )
                return 1
        if len(vm_many) != 3 or any(
            report.batch_size != 3
            or report.outputs != head.outputs
            or any(getattr(report, metric) != getattr(head, metric) for metric in ACCOUNTING)
            for report in vm_many
        ):
            print(
                f"FAIL: {name} vector-vm execute_many on 3 rows diverges from "
                f"reference: {vm_many!r} vs {head!r}",
                file=sys.stderr,
            )
            return 1
        print(
            f"{name:20s} OK  ({args.batch} input sets, "
            f"{head.latency_ms:.1f} ms simulated, "
            f"{head.consumed_noise_budget:.1f} bits consumed)"
        )
    cache = tape_cache_stats()
    print(
        f"backend smoke OK (tape memo: {cache['compiles']} compiles, "
        f"{cache['hits']} hits)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
