#!/usr/bin/env python
"""Golden compile traces: every compiler's output, pinned.

Compiles the benchmark suite with ``greedy``, ``coyote`` and ``chehab-rl``
(the registry's default agent: 512 PPO timesteps over 64 expressions,
seed 0), plus ``beam`` on the twelve small serving kernels, and records for
each case:

* the rewrite steps as ``(rule_name, location_index)`` pairs;
* the optimized expression as an s-expression;
* the lowered circuit's instruction stream and outputs;
* the circuit statistics and the analytical initial/final costs;
* every pipeline stage's ``cost_before``/``cost_after`` snapshot;
* for ``coyote``, the ``vectorize-search`` work counters (layout and lane
  candidates scored);
* for the rewriters, the ``optimize`` stage's ``memo_misses`` and, for the
  deterministic searches (``greedy``, ``beam``), its ``cost_evals``.
  ``nodes_walked`` is left out: it measures how the search walks, not what
  it computes.

The fixture also stores a digest of the policy parameters of every agent
perfbench's ``cold-compile`` trains (the default configuration with seeds
0, 1 and 2), so a change to the rewriter or to ``repro.nn`` that altered RL
training would show too.

Usage::

    python scripts/compile_golden.py --write   # regenerate the fixture
    python scripts/compile_golden.py --check   # exit 1 on any difference

Only a change that means to alter compiler output should rewrite the
fixture; a speed-up must leave ``--check`` passing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict, List

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )

from repro.compiler.registry import build_compiler
from repro.experiments.harness import make_default_agent
from repro.ir.parser import parse
from repro.ir.printer import to_sexpr
from repro.kernels.registry import benchmark_by_name, benchmark_suite

FIXTURE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests",
    "data",
    "compile_golden.json",
)

#: The chehab-rl configuration (the registry's default agent).
RL_OPTIONS = {"train_timesteps": 512, "dataset_size": 64, "seed": 0}
#: Agent seeds whose trained weights are pinned (``cold-compile`` trains each).
AGENT_SEEDS = (0, 1, 2)
SUITE_COMPILERS = ("greedy", "coyote", "chehab-rl")
#: Beam search is slow on the large kernels; it is pinned on these only.
BEAM_KERNELS = (
    "dot_product_4",
    "dot_product_8",
    "max_3",
    "max_4",
    "sort_3",
    "hamming_distance_4",
    "l2_distance_4",
    "box_blur_3x3",
    "linear_regression_4",
    "gx_3x3",
    "roberts_cross_3x3",
    "matrix_multiply_3x3",
)
#: Beam search is slow on the deep trees; the other compilers are pinned on them.
DEEP_TREE_COMPILERS = ("greedy", "coyote", "chehab-rl")
#: The ``optimize`` counters pinned per compiler.
OPTIMIZE_COUNTERS = {
    "greedy": ("memo_misses", "cost_evals"),
    "beam": ("memo_misses", "cost_evals"),
    "chehab-rl": ("memo_misses",),
}


def _instruction_text(instruction) -> str:
    parts = [f"%{instruction.result}={instruction.opcode.name}"]
    if instruction.operands:
        parts.append("(" + ",".join(str(int(op)) for op in instruction.operands) + ")")
    if instruction.step:
        parts.append(f"step={int(instruction.step)}")
    if instruction.name is not None:
        parts.append(f"name={instruction.name}")
    if instruction.layout:
        parts.append(
            "layout="
            + "|".join(
                slot.name if slot.name is not None else f"#{int(slot.constant)}"
                for slot in instruction.layout
            )
        )
    if instruction.values:
        parts.append("values=" + ",".join(str(int(v)) for v in instruction.values))
    return " ".join(parts)


def _record(report, compiler: str) -> Dict[str, object]:
    circuit = report.circuit
    record: Dict[str, object] = {
        "steps": [[step.rule_name, int(step.location_index)] for step in report.rewrite_steps],
        "optimized": to_sexpr(report.optimized_expr),
        "instructions": [_instruction_text(ins) for ins in circuit.instructions],
        "outputs": [[int(reg), name, int(length)] for reg, name, length in circuit.outputs],
        "stats": report.stats.as_dict(),
        "stage_costs": [
            f"{stage.name} {float(stage.cost_before)!r} -> {float(stage.cost_after)!r}"
            for stage in report.trace.stages
        ],
        "initial_cost": repr(float(report.initial_cost)),
        "final_cost": repr(float(report.final_cost)),
    }
    if compiler == "coyote":
        record["counters"] = dict(report.trace.stage("vectorize-search").counters)
    if compiler in OPTIMIZE_COUNTERS:
        counters = dict(report.trace.stage("optimize").counters)
        record["optimize_counters"] = {
            name: counters[name] for name in OPTIMIZE_COUNTERS[compiler]
        }
    return record


def policy_digest(agent) -> str:
    """SHA-256 over the agent's parameters, in name order."""
    digest = hashlib.sha256()
    for name, value in sorted(agent.policy.state_dict().items()):
        digest.update(name.encode())
        digest.update(str(value.dtype).encode())
        digest.update(repr(value.shape).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def _cases() -> List[tuple]:
    cases = []
    for benchmark in benchmark_suite(include_deep_trees=False):
        for compiler in SUITE_COMPILERS:
            cases.append((benchmark, compiler))
    for name in BEAM_KERNELS:
        cases.append((benchmark_by_name(name), "beam"))
    shallow = {benchmark.name for benchmark in benchmark_suite(include_deep_trees=False)}
    for benchmark in benchmark_suite():
        if benchmark.name not in shallow:
            for compiler in DEEP_TREE_COMPILERS:
                cases.append((benchmark, compiler))
    return cases


def generate() -> Dict[str, object]:
    """Compile every case and return the fixture payload."""
    compilers = {
        "greedy": build_compiler("greedy"),
        "coyote": build_compiler("coyote"),
        "chehab-rl": build_compiler("chehab-rl", **RL_OPTIONS),
        "beam": build_compiler("beam"),
    }
    cases: Dict[str, object] = {}
    for benchmark, compiler in _cases():
        # Round-trip through the text form, as a job's source does.
        expr = parse(to_sexpr(benchmark.expression()))
        report = compilers[compiler].compile_expression(expr, name=benchmark.name)
        cases[f"{compiler}/{benchmark.name}"] = _record(report, compiler)
    return {
        "policy_digests": {
            str(seed): policy_digest(make_default_agent(**dict(RL_OPTIONS, seed=seed)))
            for seed in AGENT_SEEDS
        },
        "cases": cases,
    }


def compare(expected: Dict[str, object], actual: Dict[str, object]) -> List[str]:
    """Human-readable differences between two fixture payloads."""
    problems: List[str] = []
    for seed, digest in sorted(expected["policy_digests"].items()):
        if actual["policy_digests"].get(seed) != digest:
            problems.append(f"policy_digests[{seed}]: the seed-{seed} agent's parameters changed")
    expected_cases, actual_cases = expected["cases"], actual["cases"]
    for key in sorted(set(expected_cases) | set(actual_cases)):
        if key not in actual_cases:
            problems.append(f"{key}: missing")
            continue
        if key not in expected_cases:
            problems.append(f"{key}: not in the fixture")
            continue
        for field, want in expected_cases[key].items():
            got = actual_cases[key].get(field)
            if got != want:
                problems.append(f"{key}: {field} differs")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="regenerate the fixture")
    mode.add_argument("--check", action="store_true", help="compare against the fixture")
    args = parser.parse_args(argv)
    payload = generate()
    if args.write:
        os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
        with open(FIXTURE, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(payload['cases'])} cases to {FIXTURE}")
        return 0
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    problems = compare(expected, payload)
    for problem in problems[:40]:
        print(problem)
    if problems:
        print(f"golden check FAILED: {len(problems)} difference(s)")
        return 1
    print(f"golden check OK: {len(payload['cases'])} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
