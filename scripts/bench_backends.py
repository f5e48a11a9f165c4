#!/usr/bin/env python
"""Throughput benchmark of the execution backends (emits BENCH_backends.json).

For every kernel of the Coyote suite (and optionally others), compiles the
circuit once and measures wall-clock execution time per batch size for

* ``reference`` — B sequential runs through the SEAL-style evaluator, and
* ``vector-vm`` — one batched pass over the optimized compiled tape
  (fused superinstructions + register arena),

verifying along the way that the vector VM's outputs are bit-identical to
the reference backend's.  The JSON artifact records
wall-clock per (kernel, backend, batch size), per-kernel tape statistics
(instructions before/after optimization, fused superinstruction counts,
arena peak buffers, live slot width) and per-kernel plus geometric-mean
speedups, so future changes can track the throughput trajectory;
``--check`` exits non-zero when the geomean vector-vm speedup at the
largest batch size falls below ``--min-speedup``.  The bar is 150x since
the VM runs each tape over its live slots only; it was 11x for full-width
tapes and 5x for the legacy per-instruction interpreter.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from _bench_common import write_bench_json

from repro.backends.tapeopt import get_compiled_tape
from repro.compiler import build_compiler, execute, execute_many
from repro.experiments.harness import geometric_mean
from repro.fhe.params import BFVParameters
from repro.kernels.registry import benchmark_suite

BACKENDS = ("reference", "vector-vm")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", default="coyote", help="kernel suite to benchmark")
    parser.add_argument(
        "--compiler", default="initial", help="compiler producing the circuits"
    )
    parser.add_argument(
        "--degree", type=int, default=16384, help="polynomial modulus degree n"
    )
    parser.add_argument(
        "--batch-sizes", default="1,8,32,64", help="comma-separated batch sizes"
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing")
    parser.add_argument("--out", default="BENCH_backends.json", help="output JSON path")
    parser.add_argument(
        "--check", action="store_true", help="fail unless the speedup bar is met"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=150.0,
        help="required geomean vector-vm speedup at the largest batch size",
    )
    args = parser.parse_args()

    batch_sizes = sorted(int(size) for size in args.batch_sizes.split(","))
    params = BFVParameters.default(args.degree)
    kernels = [b for b in benchmark_suite() if b.suite == args.suite]
    if not kernels:
        print(f"FAIL: no kernels in suite {args.suite!r}", file=sys.stderr)
        return 1
    compiler = build_compiler(args.compiler)

    results = []
    for benchmark in kernels:
        report = compiler.compile_expression(benchmark.expression(), name=benchmark.name)
        circuit = report.circuit
        tape = get_compiled_tape(circuit, params)
        tape_stats = tape.stats
        row = {
            "kernel": benchmark.name,
            "instructions": len(circuit.instructions),
            "tape": {
                "compute_ops": tape_stats["compute_ops"],
                "tape_ops": tape_stats["tape_ops"],
                "tape_entries": tape_stats["tape_entries"],
                "fused": tape_stats["fused"],
                "fused_total": tape_stats["fused_total"],
                "eliminated": tape_stats["eliminated"],
                "arena_slots": tape_stats["arena_slots"],
                "live_slots": len(tape.live),
            },
            "wall_s": {backend: {} for backend in BACKENDS},
            "speedup_vs_reference": {},
        }
        for batch in batch_sizes:
            inputs = [benchmark.sample_inputs(seed=seed) for seed in range(batch)]
            timings = {}
            outputs = {}
            for backend in BACKENDS:
                best = math.inf
                for _ in range(args.repeats):
                    start = time.perf_counter()
                    if backend == "reference":
                        reports = [
                            execute(circuit, item, params=params, backend=backend)
                            for item in inputs
                        ]
                    else:
                        reports = execute_many(
                            circuit, inputs, params=params, backend=backend
                        )
                    best = min(best, time.perf_counter() - start)
                timings[backend] = best
                outputs[backend] = [r.outputs for r in reports]
                row["wall_s"][backend][str(batch)] = best
            if outputs["reference"] != outputs["vector-vm"]:
                print(
                    f"FAIL: vector-vm outputs differ from reference on "
                    f"{benchmark.name} at B={batch}",
                    file=sys.stderr,
                )
                return 1
            row["speedup_vs_reference"][str(batch)] = (
                timings["reference"] / timings["vector-vm"]
            )
        results.append(row)
        speedups = ", ".join(
            f"B={batch}: {row['speedup_vs_reference'][str(batch)]:.1f}x"
            for batch in batch_sizes
        )
        print(
            f"{benchmark.name:24s} {len(circuit.instructions):4d} instr -> "
            f"{row['tape']['tape_ops']:4d} ops ({row['tape']['fused_total']:3d} fused, "
            f"{row['tape']['arena_slots']:2d} slots x {row['tape']['live_slots']} "
            f"live)   {speedups}"
        )

    largest = str(batch_sizes[-1])
    geomean = {
        str(batch): geometric_mean(
            [row["speedup_vs_reference"][str(batch)] for row in results]
        )
        for batch in batch_sizes
    }
    payload = {
        "suite": args.suite,
        "compiler": args.compiler,
        "poly_modulus_degree": args.degree,
        "batch_sizes": batch_sizes,
        "repeats": args.repeats,
        "outputs_bit_identical": True,
        "kernels": results,
        "geomean_vector_vm_speedup": geomean,
    }
    write_bench_json(args.out, payload)
    print(
        f"geomean vector-vm speedup at B={largest}: {geomean[largest]:.2f}x "
        f"(n={args.degree}, {args.suite} suite, {args.compiler} compiler) -> {args.out}"
    )

    if args.check and geomean[largest] < args.min_speedup:
        print(
            f"FAIL: geomean speedup {geomean[largest]:.2f}x at B={largest} "
            f"is below the required {args.min_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
