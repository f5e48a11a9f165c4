#!/usr/bin/env python3
"""Benchmark of the compile -> tape VM -> job server path.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no shims installed.
``--trace 1`` runs the same untraced window, then installs the per-layer
shims (:mod:`layers`) and runs a second, traced window with the same seed;
it reports the per-layer metrics.  Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(HERE, ".state")

STAGES = ("constant-fold", "optimize", "vectorize-search", "lower", "dce", "rotation-keys")


def geomean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def jobs_per_s(window, ok: int, per_slice: bool) -> float:
    """Jobs per reference second, scaled by the share that were correct.

    ``per_slice`` takes the median slice (warm workloads, whose slices are
    alike); otherwise all jobs over the summed reference time (cold-compile,
    whose slices compile different pairs).
    """
    if per_slice:
        rate = statistics.median(window.slice_rates())
    else:
        rate = len(window.samples) / sum(s.ref_s for s in window.slices)
    return rate * ok / len(window.samples)


def end_to_end(workload, setups: List[float], window, accounting, ok: int, attempted: int, rss_mb: float):
    deciles = statistics.quantiles(window.ref_latencies_ms(), n=10)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "jobs_per_s": metric(jobs_per_s(window, ok, workload.slice_median), "1/ref_s"),
        "job_p50_ms": metric(deciles[4], "ref_ms"),
        "job_p90_ms": metric(deciles[8], "ref_ms"),
        "fhe_latency_ms_geomean": metric(
            geomean([latency for latency, _ in accounting.values()]), "sim_ms"
        ),
        "noise_consumed_geomean": metric(
            geomean([noise for _, noise in accounting.values()]), "bits"
        ),
        "ok_frac": metric(ok / attempted, "frac"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def compiler_metrics(reports, accounting, compilers: Sequence[str]) -> Dict[str, float]:
    """Compiler-layer metrics from the untraced window's compilation reports.

    ``reports`` maps ``(kernel, compiler)`` to the report the server cached;
    it is empty on the warm workloads, where nothing compiles in the window.
    """
    stage_s = {stage: 0.0 for stage in STAGES}
    rewrites = 0
    per_compiler: Dict[str, Dict[str, List[float]]] = {
        name: {"compile": [], "latency": [], "noise": []} for name in compilers
    }
    for (kernel, compiler), report in reports.items():
        rewrites += len(report.rewrite_steps)
        for stage in report.trace.stages:
            stage_s[stage.name] = stage_s.get(stage.name, 0.0) + stage.wall_time_s
        latency, noise = accounting[(kernel, compiler)]
        rows = per_compiler[compiler]
        rows["compile"].append(report.compile_time_s * 1000.0)
        rows["latency"].append(latency)
        rows["noise"].append(noise)
    metrics = {f"compiler.stage.{stage}.busy_s": stage_s[stage] for stage in STAGES}
    for name, rows in per_compiler.items():
        metrics[f"compiler.{name}.compile_ms_geomean"] = geomean(rows["compile"])
        metrics[f"compiler.{name}.fhe_latency_ms_geomean"] = geomean(rows["latency"])
        metrics[f"compiler.{name}.noise_geomean"] = geomean(rows["noise"])
    for what, base in (("compile", "compile_ms"), ("fhe_latency", "fhe_latency_ms"), ("noise", "noise")):
        rl = metrics[f"compiler.chehab-rl.{base}_geomean"]
        coyote = metrics[f"compiler.coyote.{base}_geomean"]
        metrics[f"compiler.rl_vs_coyote.{what}_ratio"] = coyote / rl if rl else 0.0
    metrics["trs.rewrites_applied"] = float(rewrites)
    return metrics


def print_headline(reports, accounting, metrics: Dict[str, float]) -> None:
    """The paper-headline table: one row per (kernel, compiler) pair."""
    print(f"{'kernel':26s} {'compiler':10s} {'compile_ms':>11s} {'fhe_sim_ms':>11s} {'noise':>7s}")
    for (kernel, compiler), report in sorted(reports.items()):
        latency, noise = accounting[(kernel, compiler)]
        print(
            f"{kernel:26s} {compiler:10s} {report.compile_time_s * 1000.0:11.2f} "
            f"{latency:11.1f} {noise:7.1f}"
        )
    for what, base, label in (
        ("compile", "compile_ms", "compile time"),
        ("fhe_latency", "fhe_latency_ms", "FHE latency"),
        ("noise", "noise", "consumed noise"),
    ):
        print(
            f"rl_vs_coyote {label}: {metrics[f'compiler.rl_vs_coyote.{what}_ratio']:.3f}x "
            f"(coyote geomean {metrics[f'compiler.coyote.{base}_geomean']:.3f} / "
            f"chehab-rl geomean {metrics[f'compiler.chehab-rl.{base}_geomean']:.3f})"
        )


def check_window(workload, window) -> Tuple[dict, int, List[str]]:
    """``(accounting, ok jobs, problems)`` for one window."""
    from checks import circuit_accounting, wrong_outputs

    accounting, problems = circuit_accounting(window.samples)
    errors = [f"{s.kernel}/{s.compiler}: {s.error}" for s in window.samples if s.error]
    wrong = wrong_outputs(window.samples, workload.kernels)
    ok = len(window.samples) - len(errors) - len(wrong)
    return accounting, ok, problems + errors + wrong


def run(args: argparse.Namespace) -> Dict[str, object]:
    from checks import check_repeat, code_digest, compare_accounting
    from workloads import COMPILERS, WORKLOADS, peak_rss_mb

    workload = WORKLOADS[args.workload](args.seed)
    setups = workload.setup()
    rss_mb = peak_rss_mb()
    window = workload.window(args.seconds)
    if workload.rss_after_window:
        rss_mb = peak_rss_mb()
    accounting, ok, problems = check_window(workload, window)
    attempted = len(window.samples)
    failed = attempted - ok
    reports = getattr(workload, "reports", {})
    compiled = compiler_metrics(reports, accounting, COMPILERS)
    fingerprint: Dict[str, object] = {
        "accounting": {f"{k}/{c}": list(row) for (k, c), row in accounting.items()}
    }

    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
        try:
            traced = workload.window(args.seconds)
        finally:
            tracer.uninstall()
        traced_accounting, traced_ok, traced_problems = check_window(workload, traced)
        problems += traced_problems
        problems += [
            "traced window disagrees: " + line
            for line in compare_accounting(accounting, traced_accounting)
        ]
        attempted += len(traced.samples)
        failed += len(traced.samples) - traced_ok
        layer = tracer.rollup(traced.work_s, traced.counters)
        layer.update(compiled)
        layer["trace.overhead"] = jobs_per_s(window, ok, workload.slice_median) / jobs_per_s(
            traced, traced_ok, workload.slice_median
        )
        layer["host.probe_ms"] = 1000.0 * statistics.median(s.probe_s for s in window.slices)
        layer["host.wall_jobs_per_s"] = ok / window.work_s
        fingerprint["counts"] = {
            name: value for name, value in layer.items() if name.startswith("trs.")
        }
        metrics = {name: metric(value, unit_of(name)) for name, value in sorted(layer.items())}
    else:
        metrics = end_to_end(workload, setups, window, accounting, ok, attempted, rss_mb)

    if reports:
        print_headline(reports, accounting, compiled)
    key = f"{code_digest(SOURCE)}-{args.workload}-seed{args.seed}-trace{args.trace}"
    problems += ["not deterministic: " + line for line in check_repeat(STATE_DIR, key, fingerprint)]
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name == "host.probe_ms":
        return "ms"
    if name == "host.wall_jobs_per_s":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("compile_ms_geomean"):
        return "ms"
    if name.endswith("fhe_latency_ms_geomean"):
        return "sim_ms"
    if name.endswith("noise_geomean"):
        return "bits"
    if name.endswith("us_per_row"):
        return "us"
    if name.endswith((".calls", ".rows", "_walks", "_visits", "_applied")):
        return "count"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: no program source under {SOURCE}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
