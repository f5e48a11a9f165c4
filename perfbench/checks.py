"""Checks on a finished window: outputs, per-circuit accounting, determinism.

None of these run inside the measured window, and none of them trusts the
program under test: expected outputs come from evaluating each job's source
s-expression in plaintext with :func:`repro.ir.evaluate.evaluate`, not from
the server's ``correct`` flag, the compiler or the backend.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Tuple

from repro.fhe.params import BFVParameters
from repro.ir.evaluate import evaluate, output_arity

from workloads import Kernel, Sample

Circuit = Tuple[str, str]  # (kernel, compiler)


def expected_output(kernel: Kernel, input_index: int, plain_modulus: int) -> List[int]:
    """The kernel's meaningful output slots, centred in ``Z_t`` as BFV decodes."""
    arity = output_arity(kernel.expr)
    slots = evaluate(
        kernel.expr,
        kernel.inputs[input_index],
        slot_count=max(64, arity + 8),
        modulus=plain_modulus,
    )
    half = plain_modulus // 2
    return [value - plain_modulus if value > half else value for value in slots[:arity]]


def wrong_outputs(samples: List[Sample], kernels: Dict[str, Kernel]) -> List[str]:
    """One message per completed job whose outputs differ from plaintext."""
    plain_modulus = BFVParameters.default().plain_modulus
    expected: Dict[Tuple[str, int], List[int]] = {}
    wrong = []
    for sample in samples:
        if sample.result is None:
            continue
        key = (sample.kernel, sample.input_index)
        if key not in expected:
            expected[key] = expected_output(kernels[sample.kernel], sample.input_index, plain_modulus)
        # One job is one input set, so its result holds one output vector.
        if sample.result.get("outputs") != [expected[key]]:
            wrong.append(
                f"{sample.kernel}/{sample.compiler} input {sample.input_index}: "
                f"got {sample.result.get('outputs')} expected {expected[key]}"
            )
    return wrong


def circuit_accounting(samples: List[Sample]) -> Tuple[Dict[Circuit, Tuple[float, float]], List[str]]:
    """``{circuit: (latency_ms, consumed noise)}`` and any disagreements.

    Every job of one circuit must report the same simulated latency and
    noise; a job that disagrees is reported, not averaged away.
    """
    accounting: Dict[Circuit, Tuple[float, float]] = {}
    problems = []
    for sample in samples:
        if sample.result is None:
            continue
        circuit = (sample.kernel, sample.compiler)
        row = (
            float(sample.result["latency_ms"]),
            float(sample.result["consumed_noise_budget"]),
        )
        seen = accounting.setdefault(circuit, row)
        if seen != row:
            problems.append(f"{circuit[0]}/{circuit[1]}: {row} vs {seen}")
    return accounting, problems


def compare_accounting(
    first: Dict[Circuit, Tuple[float, float]], second: Dict[Circuit, Tuple[float, float]]
) -> List[str]:
    """Circuits whose accounting differs between two windows of one run."""
    return [
        f"{kernel}/{compiler}: {first[(kernel, compiler)]} vs {row}"
        for (kernel, compiler), row in sorted(second.items())
        if (kernel, compiler) in first and first[(kernel, compiler)] != row
    ]


def code_digest(source_root: str) -> str:
    """A digest of every Python file of the program under test."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(source_root):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, source_root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_repeat(state_dir: str, key: str, fingerprint: Dict[str, object]) -> List[str]:
    """Compare ``fingerprint`` with an earlier run under the same ``key``.

    The key names the code digest, workload, seed and trace mode, so two
    runs that share it must agree exactly.  The first run records its
    fingerprint; later runs report every field that differs.
    """
    path = os.path.join(state_dir, f"{key}.json")
    canonical = json.loads(json.dumps(fingerprint, sort_keys=True))
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            earlier = json.load(handle)
        return [
            f"{name}: {earlier.get(name)} then {canonical.get(name)}"
            for name in sorted(set(earlier) | set(canonical))
            if earlier.get(name) != canonical.get(name)
        ]
    os.makedirs(state_dir, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(canonical, handle, sort_keys=True)
    os.replace(tmp, path)
    return []
