"""Differential fuzz test: the narrowed vector VM against ``reference``.

The vector VM runs every tape over its live slots only.  This test draws
seeded circuits from both expression generators — uniform random trees and
the motif corpus — compiles each with every search strategy (``coyote`` is
the rotation-heavy case: its layouts scatter values across slots and gather
them back with rotations), runs each at B=1 and B=5, and requires outputs
bit-identical and accounting float-identical to the reference backend.  The
B=5 batch carries one row of ±2**70 inputs, which selects the largest
reduction bucket.
"""

from __future__ import annotations

import random

import pytest

from repro import api
from repro.backends.tapeopt import get_compiled_tape
from repro.compiler.executor import execute, execute_many
from repro.datagen import RandomExpressionGenerator, SyntheticKernelGenerator
from repro.fhe.params import BFVParameters

PARAMS = BFVParameters.default(1024)
SEED = 20261017
COMPILERS = ("initial", "greedy", "beam", "coyote")
ACCOUNTING_FIELDS = (
    "latency_ms",
    "operation_counts",
    "encrypted_inputs",
    "consumed_noise_budget",
    "remaining_noise_budget",
    "noise_budget_exhausted",
)


def _expressions():
    random_exprs = RandomExpressionGenerator(
        max_depth=4, max_vector_size=4, num_variables=6, seed=SEED
    ).generate_many(10)
    motif_exprs = SyntheticKernelGenerator(seed=SEED, max_size=4).generate_many(10)
    return [("random", e) for e in random_exprs] + [("motif", e) for e in motif_exprs]


CASES = [
    (f"{origin}{index}-{compiler}", expr, compiler)
    for index, (origin, expr) in enumerate(_expressions())
    for compiler in COMPILERS
]


def _batches(names, seed):
    rng = random.Random(seed)
    row = lambda: {name: rng.randint(-7, 7) for name in names}  # noqa: E731
    huge = {
        name: (2**70 if index % 2 == 0 else -(2**70))
        for index, name in enumerate(names)
    }
    return [[row()], [row(), row(), huge, row(), row()]]


@pytest.mark.parametrize(
    "expr,compiler", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_vector_vm_matches_reference(expr, compiler):
    program = api.compile(expr, compiler=compiler).circuit
    tape = get_compiled_tape(program, PARAMS)
    width = len(tape.live)
    assert width < PARAMS.slot_count
    for array in tape.consts + [load.template for load in tape.loads]:
        assert array.shape == (width,)
    for inputs_list in _batches(program.scalar_inputs, SEED):
        expected = [
            execute(program, inputs, params=PARAMS, backend="reference")
            for inputs in inputs_list
        ]
        got = execute_many(program, inputs_list, params=PARAMS, backend="vector-vm")
        assert len(got) == len(expected)
        for row, (ref, vm) in enumerate(zip(expected, got)):
            assert vm.outputs == ref.outputs, f"row {row} outputs diverge"
            for field in ACCOUNTING_FIELDS:
                assert getattr(vm, field) == getattr(ref, field), (
                    f"row {row} {field} diverges"
                )
