"""``python -m repro`` — the command-line front end of the compilation API.

Subcommands:

* ``compile``  — compile one or more s-expression sources and print the
  circuit statistics and per-stage pipeline trace (optionally the SEAL C++);
* ``run``      — compile, execute on a simulated BFV backend and verify
  against the plaintext reference;
* ``run-batch`` — compile once, execute a whole batch of input sets on a
  backend (the vector VM serves the batch in one tape pass) and verify each;
* ``list-compilers`` — show every registered compiler configuration;
* ``list-backends``  — show every registered execution backend;
* ``workloads``      — list the registered end-to-end workloads, or run one
  (``workloads dot-product``) as a verified batch on its defaults;
* ``bench-workloads`` — benchmark the workloads on both backends (direct vs
  server path, bit-identical) plus a mixed-traffic coalescing pass;
* ``serve``   — run the job-orchestration server over a ``--state-dir``
  (persistent queue; coalesces queued executions sharing a circuit);
* ``submit``  — queue a compile/execute job into a ``--state-dir`` (picked
  up by the serving process, or by a later ``serve --drain``);
* ``jobs``    — list the jobs of a ``--state-dir`` with their status
  (``--status`` accepts a comma-separated list, e.g. ``shed,failed``);
* ``metrics`` — print the server's latest telemetry snapshot; ``--watch``
  re-reads it on an interval and ``--delta`` shows rates between snapshots
  (both keyed off the snapshot sequence number);
* ``trace``   — work with the span traces of a ``--trace`` serving run:
  ``trace export`` writes a Chrome/Perfetto-loadable trace JSON and
  ``trace report`` prints the per-stage latency/self-time rollup;
* ``top``     — live ops console over the metrics snapshot: queue depth,
  SLO compliance, coalescing rate and per-stage p50/p99;
* ``study``   — seeded, resumable ablation studies: ``study run`` executes
  a baseline + one-component-off matrix with replicates, either on the job
  server (``--kind server``) or over the paper's kernels under one compiler
  configuration (``--kind suite``: Figs. 8, 9, 12 and Table 1),
  ``study resume`` finishes an interrupted study without re-running
  finished replicates, ``study report`` re-analyses a study directory and
  ``study components`` lists each kind's ablatable components.

Sources are s-expressions in the paper's textual IR, e.g.::

    python -m repro compile "(* (+ a b) (+ c d))" --compiler greedy
    python -m repro run "(+ (* a b) c)" --inputs a=2,b=3,c=4
    python -m repro run "(+ (* a b) c)" --backend vector-vm
    python -m repro run-batch "(* (+ a b) (+ c d))" --batch 32 --backend vector-vm
    python -m repro compile @kernel.sexp --compiler coyote --cache-dir .cache
    python -m repro list-compilers
    python -m repro submit "(+ (* a b) c)" --state-dir .state --seed 3
    python -m repro serve --state-dir .state --drain
    python -m repro jobs --state-dir .state --status shed,failed
    python -m repro metrics --state-dir .state
    python -m repro metrics --state-dir .state --watch --interval 2
    python -m repro serve --state-dir .state --drain --trace
    python -m repro trace report --state-dir .state
    python -m repro trace export --state-dir .state --out trace.json
    python -m repro top --state-dir .state --watch
    python -m repro study components
    python -m repro study run --study-dir .study --replicates 3
    python -m repro study run --study-dir .fig12 --kind suite --components rl-policy
    python -m repro study resume --study-dir .study
    python -m repro study report --study-dir .study

``@path`` reads a source from a file and ``-`` from stdin.  ``--option
key=value`` forwards factory options to the registry (values are parsed as
Python literals when possible).
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from typing import Dict, List, Optional

from repro import api
from repro.compiler.pipeline import CompilationReport


def _read_source(token: str) -> str:
    if token == "-":
        return sys.stdin.read()
    if token.startswith("@"):
        with open(token[1:], "r", encoding="utf-8") as handle:
            return handle.read()
    return token


def _parse_value(text: str) -> object:
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        pass
    # Accept shell-style booleans: `--option select_rotation_keys=false`
    # must not silently become the truthy string "false".
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    return text


def _parse_options(pairs: Optional[List[str]]) -> Dict[str, object]:
    options: Dict[str, object] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"--option expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        options[key.strip()] = _parse_value(value.strip())
    return options


def _parse_inputs(specs: Optional[List[str]]) -> Optional[Dict[str, int]]:
    if not specs:
        return None
    inputs: Dict[str, int] = {}
    for spec in specs:
        for pair in spec.split(","):
            pair = pair.strip()
            if not pair:
                continue
            if "=" not in pair:
                raise SystemExit(f"--inputs expects name=int pairs, got {pair!r}")
            key, _, value = pair.partition("=")
            inputs[key.strip()] = int(value)
    return inputs


def _print_report(report: CompilationReport, emit_seal: bool) -> None:
    print(f"circuit {report.name!r}")
    print(f"  compile time : {report.compile_time_s * 1000.0:.2f} ms")
    print(
        f"  cost         : {report.initial_cost:.1f} -> {report.final_cost:.1f}"
        f" ({report.cost_improvement:.0%} reduction)"
    )
    if report.rewrite_steps:
        print(f"  rewrites     : {len(report.rewrite_steps)} step(s)")
    print("  stats        :", json.dumps(report.stats.as_dict()))
    if report.trace is not None:
        print("  pipeline     :")
        for stage in report.trace.stages:
            counters = "".join(
                f"  {name}={value}" for name, value in sorted(stage.counters)
            )
            print(
                f"    {stage.name:<18} {stage.wall_time_s * 1000.0:9.3f} ms"
                f"   cost {stage.cost_before:.1f} -> {stage.cost_after:.1f}{counters}"
            )
    if emit_seal:
        print("  SEAL C++     :")
        for line in report.seal_code().splitlines():
            print(f"    {line}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--compiler", default="greedy", help="registry name (see list-compilers)")
    parser.add_argument(
        "--option",
        action="append",
        metavar="KEY=VALUE",
        help="compiler factory option (repeatable)",
    )
    parser.add_argument("--cache-dir", default=None, help="directory for the on-disk cache tier")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__.split("\n\n")[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    compile_parser = subparsers.add_parser(
        "compile", help="compile s-expression sources and print stats + trace"
    )
    compile_parser.add_argument(
        "sources", nargs="+", help="s-expression, @file, or - for stdin"
    )
    compile_parser.add_argument("--name", default=None, help="circuit name (single source)")
    compile_parser.add_argument(
        "--emit-seal", action="store_true", help="print the generated SEAL-style C++"
    )
    compile_parser.add_argument(
        "--json", action="store_true", help="emit the machine-readable report(s)"
    )
    compile_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool workers for a multi-source batch",
    )
    _add_common(compile_parser)

    run_parser = subparsers.add_parser(
        "run", help="compile, execute on the BFV simulator and verify"
    )
    run_parser.add_argument("source", help="s-expression, @file, or - for stdin")
    run_parser.add_argument(
        "--inputs",
        action="append",
        metavar="a=1,b=2",
        help="program inputs (repeatable; default: seeded random values)",
    )
    run_parser.add_argument("--seed", type=int, default=0, help="seed for generated inputs")
    run_parser.add_argument(
        "--input-range",
        type=int,
        default=7,
        help="generated inputs are uniform over [0, input-range]",
    )
    run_parser.add_argument("--name", default=None, help="circuit name")
    run_parser.add_argument(
        "--backend",
        default=None,
        help="execution backend (see list-backends; default: reference)",
    )
    _add_common(run_parser)

    batch_parser = subparsers.add_parser(
        "run-batch", help="compile once, execute a batch of input sets and verify each"
    )
    batch_parser.add_argument("source", help="s-expression, @file, or - for stdin")
    batch_parser.add_argument(
        "--batch", type=int, default=8, help="input sets to execute (seeded)"
    )
    batch_parser.add_argument("--seed", type=int, default=0, help="base seed for generated inputs")
    batch_parser.add_argument(
        "--input-range",
        type=int,
        default=7,
        help="generated inputs are uniform over [0, input-range]",
    )
    batch_parser.add_argument("--name", default=None, help="circuit name")
    batch_parser.add_argument(
        "--backend",
        default="vector-vm",
        help="execution backend (see list-backends; default: vector-vm)",
    )
    _add_common(batch_parser)

    subparsers.add_parser("list-compilers", help="show registered compiler configurations")
    subparsers.add_parser("list-backends", help="show registered execution backends")

    workloads_parser = subparsers.add_parser(
        "workloads", help="list registered workloads, or run one as a verified batch"
    )
    workloads_parser.add_argument(
        "name", nargs="?", default=None, help="workload to run (omit to list all)"
    )
    workloads_parser.add_argument(
        "--batch", type=int, default=8, help="input sets to execute"
    )
    workloads_parser.add_argument("--seed", type=int, default=0, help="base input seed")
    workloads_parser.add_argument(
        "--compiler", default=None, help="override the workload's default compiler"
    )
    workloads_parser.add_argument(
        "--backend", default=None, help="override the workload's default backend"
    )
    workloads_parser.add_argument(
        "--option",
        action="append",
        metavar="KEY=VALUE",
        help="workload factory option (repeatable), e.g. size=16",
    )

    tape_parser = subparsers.add_parser(
        "tape",
        help="dump the vector VM's optimized executable tape for a kernel",
    )
    tape_parser.add_argument(
        "source",
        help="workload name, kernel name (see workloads / bench suites), "
        "s-expression, @file, or - for stdin",
    )
    tape_parser.add_argument(
        "--compiler",
        default=None,
        help="compiler producing the circuit (default: the workload's, else greedy)",
    )
    tape_parser.add_argument(
        "--degree", type=int, default=1024, help="polynomial modulus degree n"
    )
    tape_parser.add_argument(
        "--input-range",
        type=int,
        default=7,
        help="input magnitude bound selecting the reduction plan",
    )

    analyze_parser = subparsers.add_parser(
        "analyze",
        help="statically verify a kernel: pipeline invariants + tape safety",
    )
    analyze_parser.add_argument(
        "source",
        nargs="?",
        default=None,
        help="workload name, kernel name, s-expression, @file or -; "
        "omitted = sweep every registered workload",
    )
    analyze_parser.add_argument(
        "--compiler",
        default=None,
        help="compiler producing the circuit (default: the workload's, else greedy)",
    )
    analyze_parser.add_argument(
        "--degree", type=int, default=1024, help="polynomial modulus degree n"
    )
    analyze_parser.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="concurrency/hygiene lint over the repro sources",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    lint_parser.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )

    bench_workloads_parser = subparsers.add_parser(
        "bench-workloads",
        help="benchmark the workloads: direct vs server path + mixed traffic",
    )
    bench_workloads_parser.add_argument(
        "--batch", type=int, default=16, help="input sets per workload row"
    )
    bench_workloads_parser.add_argument(
        "--traffic-jobs", type=int, default=60, help="jobs in the mixed-traffic pass"
    )
    bench_workloads_parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="open-loop arrival rate in jobs/s (default: burst)",
    )
    bench_workloads_parser.add_argument("--seed", type=int, default=0)
    bench_workloads_parser.add_argument(
        "--out", default=None, help="also write the JSON payload to this path"
    )

    serve_parser = subparsers.add_parser(
        "serve", help="run the job-orchestration server over a state directory"
    )
    serve_parser.add_argument(
        "--state-dir", required=True, help="directory of the persistent job store"
    )
    serve_parser.add_argument(
        "--backend", default=None, help="default execution backend for jobs"
    )
    serve_parser.add_argument("--compiler", default="greedy", help="default compiler for jobs")
    serve_parser.add_argument(
        "--poll-interval", type=float, default=0.05, help="store poll cadence (seconds)"
    )
    serve_parser.add_argument(
        "--drain",
        action="store_true",
        help="process everything currently queued, then exit (CI mode)",
    )
    serve_parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="stop serving after this many seconds (default: until interrupted)",
    )
    serve_parser.add_argument("--cache-dir", default=None, help="compilation disk-cache directory")
    serve_parser.add_argument(
        "--queue-capacity",
        type=int,
        default=None,
        help="bound the queue; overflowing jobs are shed (default: unbounded)",
    )
    serve_parser.add_argument(
        "--per-priority-capacity",
        type=int,
        default=None,
        help="bound each priority level separately (per-class backpressure)",
    )
    serve_parser.add_argument(
        "--aging-interval",
        type=float,
        default=None,
        help="seconds of waiting that raise a job's effective priority by one",
    )
    serve_parser.add_argument(
        "--admission",
        choices=("off", "shed"),
        default="off",
        help="admission control against the --slo wait budgets",
    )
    serve_parser.add_argument(
        "--slo",
        action="append",
        metavar="PRIO=WAIT[:RUN]",
        help="per-priority latency budget in seconds (repeatable), e.g. 1=0.5:2",
    )
    serve_parser.add_argument(
        "--trace",
        action="store_true",
        help="record end-to-end spans to traces.jsonl (see `repro trace`)",
    )

    submit_parser = subparsers.add_parser(
        "submit", help="queue a compile/execute job into a state directory"
    )
    submit_parser.add_argument("source", help="s-expression, @file, or - for stdin")
    submit_parser.add_argument(
        "--state-dir", required=True, help="directory of the persistent job store"
    )
    submit_parser.add_argument(
        "--kind", choices=("execute", "compile"), default="execute", help="job kind"
    )
    submit_parser.add_argument(
        "--inputs",
        action="append",
        metavar="a=1,b=2",
        help="program inputs (repeatable; default: seeded random values)",
    )
    submit_parser.add_argument("--seed", type=int, default=0, help="seed for generated inputs")
    submit_parser.add_argument(
        "--input-range",
        type=int,
        default=7,
        help="generated inputs are uniform over [0, input-range]",
    )
    submit_parser.add_argument(
        "--compiler", default=None, help="compiler registry name (default: server default)"
    )
    submit_parser.add_argument(
        "--backend", default=None, help="execution backend (default: server default)"
    )
    submit_parser.add_argument("--priority", type=int, default=0, help="higher runs earlier")
    submit_parser.add_argument(
        "--max-retries", type=int, default=0, help="re-run attempts after a failure"
    )
    submit_parser.add_argument("--name", default=None, help="job/circuit name")
    submit_parser.add_argument(
        "--option",
        action="append",
        metavar="KEY=VALUE",
        help="compiler factory option (repeatable)",
    )
    submit_parser.add_argument(
        "--wait",
        action="store_true",
        help="block until the serving process completes the job, then print it",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=60.0, help="--wait timeout in seconds"
    )

    jobs_parser = subparsers.add_parser(
        "jobs", help="list the jobs of a state directory with their status"
    )
    jobs_parser.add_argument(
        "--state-dir", required=True, help="directory of the persistent job store"
    )
    jobs_parser.add_argument(
        "--status",
        default=None,
        help="only show jobs in these statuses (comma-separated, e.g. shed,failed)",
    )

    metrics_parser = subparsers.add_parser(
        "metrics", help="print the server's latest telemetry snapshot"
    )
    metrics_parser.add_argument(
        "--state-dir", required=True, help="directory of the persistent job store"
    )
    metrics_parser.add_argument(
        "--watch",
        action="store_true",
        help="re-read the snapshot on an interval; prints only when the "
        "sequence number advances (Ctrl-C to stop)",
    )
    metrics_parser.add_argument(
        "--delta",
        action="store_true",
        help="with --watch: print counter deltas and rates between snapshots "
        "instead of the raw payload",
    )
    metrics_parser.add_argument(
        "--interval", type=float, default=1.0, help="--watch poll cadence in seconds"
    )
    metrics_parser.add_argument(
        "--count",
        type=int,
        default=None,
        help="with --watch: exit after this many updates (default: until Ctrl-C)",
    )

    trace_parser = subparsers.add_parser(
        "trace", help="export or summarize the span traces of a --trace serving run"
    )
    trace_subparsers = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_export = trace_subparsers.add_parser(
        "export", help="write a Chrome trace-event JSON (chrome://tracing, Perfetto)"
    )
    trace_export.add_argument(
        "--state-dir", required=True, help="directory of the persistent job store"
    )
    trace_export.add_argument(
        "--out", default=None, help="output path (default: <state-dir>/trace.json)"
    )
    trace_report = trace_subparsers.add_parser(
        "report", help="per-stage latency rollup with self-time attribution"
    )
    trace_report.add_argument(
        "--state-dir", required=True, help="directory of the persistent job store"
    )

    top_parser = subparsers.add_parser(
        "top", help="ops console over the metrics snapshot (queue, SLOs, stages)"
    )
    top_parser.add_argument(
        "--state-dir", required=True, help="directory of the persistent job store"
    )
    top_parser.add_argument(
        "--watch", action="store_true", help="refresh on an interval (Ctrl-C to stop)"
    )
    top_parser.add_argument(
        "--interval", type=float, default=1.0, help="--watch refresh cadence in seconds"
    )
    top_parser.add_argument(
        "--count",
        type=int,
        default=None,
        help="with --watch: exit after this many refreshes",
    )

    study_parser = subparsers.add_parser(
        "study", help="run, resume and analyse seeded ablation studies"
    )
    study_subparsers = study_parser.add_subparsers(dest="study_command", required=True)

    def _add_study_analysis(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--resamples", type=int, default=2000, help="bootstrap resamples for the CIs"
        )
        sub.add_argument("--out", default=None, help="also write the report JSON here")

    study_run = study_subparsers.add_parser(
        "run", help="execute a baseline + one-component-off matrix with replicates"
    )
    study_run.add_argument(
        "--study-dir", required=True, help="directory for study state and per-run servers"
    )
    study_run.add_argument("--name", default="system-ablation", help="study name")
    study_run.add_argument(
        "--kind",
        choices=("server", "suite"),
        default="server",
        help="server: job-server runs; suite: compile+execute the kernels",
    )
    study_run.add_argument(
        "--components",
        default=None,
        help="comma-separated component names (default: the kind's default matrix)",
    )
    study_run.add_argument(
        "--workloads",
        default=None,
        help=(
            "comma-separated workload registry names cycled across jobs "
            "(server) or kernel names (suite); default: the kind's default"
        ),
    )
    study_run.add_argument(
        "--replicates", type=int, default=3, help="runs per condition (≥3 for CIs)"
    )
    study_run.add_argument(
        "--jobs-per-replicate", type=int, default=8, help="jobs submitted per server run"
    )
    study_run.add_argument("--seed", type=int, default=0, help="study root seed")
    study_run.add_argument(
        "--max-runs",
        type=int,
        default=None,
        help="execute at most this many pending runs (resume later for the rest)",
    )
    _add_study_analysis(study_run)

    study_resume = study_subparsers.add_parser(
        "resume", help="finish an interrupted study, skipping recorded replicates"
    )
    study_resume.add_argument(
        "--study-dir", required=True, help="directory of the interrupted study"
    )
    study_resume.add_argument(
        "--max-runs", type=int, default=None, help="cap pending runs this invocation"
    )
    _add_study_analysis(study_resume)

    study_report_parser = study_subparsers.add_parser(
        "report", help="re-analyse a study directory without executing anything"
    )
    study_report_parser.add_argument(
        "--study-dir", required=True, help="directory of the recorded study"
    )
    _add_study_analysis(study_report_parser)

    study_subparsers.add_parser(
        "components", help="list each study kind's ablatable components"
    )
    return parser


def _print_study_report(report: Dict[str, object]) -> None:
    primary = report["primary_metric"]
    print(f"study        : {report['study']} ({report['runs_recorded']} runs recorded)")
    print(f"primary      : {primary}")
    for summary in report["conditions"]:
        stats = summary["metrics"].get(primary, {})
        print(
            f"  {summary['condition']:<20} {primary} = {stats.get('mean', 0.0):9.3f}"
            f" ± {stats.get('std', 0.0):7.3f}  (n={stats.get('n', 0)})"
        )
    print("ranking      : (importance = fraction of baseline lost when removed)")
    for row in report["ranking"]:
        print(
            f"  #{row['rank']} {row['component']:<20} importance {row['importance']:+.3f}"
            f"  CI [{row['ci_low']:+.3f}, {row['ci_high']:+.3f}]"
            f"  ({row['ablated_replicates']} replicate(s))"
        )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list-compilers":
        rows = api.list_compilers()
        width = max(len(row["name"]) for row in rows)
        for row in rows:
            print(f"{row['name']:<{width}}  {row['description']}")
            if row["paper_config"]:
                print(f"{'':<{width}}  ({row['paper_config']})")
        return 0

    if args.command == "list-backends":
        rows = api.list_backends()
        width = max(len(row["name"]) for row in rows)
        for row in rows:
            print(f"{row['name']:<{width}}  {row['description']}")
            if row["use_when"]:
                print(f"{'':<{width}}  (use when: {row['use_when']})")
        return 0

    if args.command == "workloads":
        if args.name is None:
            rows = api.list_workloads()
            width = max(len(row["name"]) for row in rows)
            for row in rows:
                defaults = f"[{row['suite']}] {row['compiler']} / {row['backend']}"
                print(f"{row['name']:<{width}}  {defaults:<34} {row['description']}")
            return 0
        outcome = api.run_workload(
            args.name,
            batch=args.batch,
            seed=args.seed,
            compiler=args.compiler,
            backend=args.backend,
            **_parse_options(args.option),
        )
        batch = outcome.outcome
        _print_report(batch.report, emit_seal=False)
        print("  workload     :", outcome.workload.name, f"({outcome.workload.suite})")
        print("  backend      :", batch.backend)
        print(f"  batch size   : {batch.batch_size}")
        print(f"  exec wall    : {batch.wall_time_s * 1000.0:.2f} ms "
              f"({batch.throughput_per_s:.0f} input sets/s)")
        print("  verified     :", "OK" if batch.all_correct else "MISMATCH")
        print("  oracle       :", "OK" if outcome.oracle_correct else "MISMATCH")
        return 0 if batch.all_correct and outcome.oracle_correct else 1

    if args.command == "tape":
        from repro.backends.tapeopt import get_compiled_tape
        from repro.fhe.params import BFVParameters
        from repro.workloads import available_workloads, build_workload

        source = args.source
        compiler = args.compiler
        name = None
        if source in available_workloads():
            workload = build_workload(source)
            source = workload.source
            compiler = compiler or workload.compiler
            name = workload.name
        else:
            from repro.kernels.registry import benchmark_suite

            match = next((b for b in benchmark_suite() if b.name == source), None)
            if match is not None:
                source = match.expression()
                name = match.name
            else:
                source = _read_source(source)
        report = api.compile(source, compiler or "greedy", name=name)
        params = BFVParameters.default(args.degree)
        tape = get_compiled_tape(report.circuit, params)
        print(f"kernel: {report.name} ({report.circuit.name}), n={args.degree}")
        print(tape.render(input_bound=args.input_range))
        return 0

    if args.command == "analyze":
        from repro.workloads import available_workloads, build_workload

        def _resolve(token: str):
            """(source, compiler, name) for a workload/kernel/s-expr token."""
            if token in available_workloads():
                workload = build_workload(token)
                return workload.source, args.compiler or workload.compiler, workload.name
            from repro.kernels.registry import benchmark_suite

            match = next((b for b in benchmark_suite() if b.name == token), None)
            if match is not None:
                return match.expression(), args.compiler, match.name
            return _read_source(token), args.compiler, None

        targets = [args.source] if args.source else sorted(available_workloads())
        payload = []
        failed = False
        for token in targets:
            source, compiler, name = _resolve(token)
            _, analysis = api.analyze(
                source,
                compiler or "greedy",
                name=name,
                degree=args.degree,
            )
            failed = failed or not analysis.ok
            if args.json:
                entry = analysis.as_dict()
                entry["target"] = token
                payload.append(entry)
            else:
                for line in analysis.summary_lines():
                    print(f"{token}: {line}")
                for finding in analysis.findings:
                    print(f"  {finding.render()}")
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if failed else 0

    if args.command == "lint":
        report, files_checked = api.lint(args.paths or None)
        if args.json:
            payload = report.as_dict()
            payload["files_checked"] = files_checked
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for finding in report.findings:
                print(finding.render())
            for line in report.summary_lines():
                print(line)
            print(f"files checked: {files_checked}")
        return 0 if report.ok else 1

    if args.command == "bench-workloads":
        from repro.workloads.traffic import (
            benchmark_problems,
            benchmark_workloads,
            summarize_benchmark,
        )

        payload = benchmark_workloads(
            batch=args.batch,
            traffic_jobs=args.traffic_jobs,
            rate=args.rate,
            seed=args.seed,
        )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        for line in summarize_benchmark(payload):
            print(line)
        problems = benchmark_problems(payload)
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1 if problems else 0

    if args.command == "serve":
        slo = None
        if args.slo:
            from repro.server.telemetry import SLOPolicy

            wait_budgets, run_budgets = {}, {}
            for spec in args.slo:
                key, _, budgets = spec.partition("=")
                wait_part, _, run_part = budgets.partition(":")
                wait_budgets[int(key)] = float(wait_part)
                if run_part:
                    run_budgets[int(key)] = float(run_part)
            slo = SLOPolicy.from_budgets(wait_budgets, run_budgets)
        server = api.serve(
            args.state_dir,
            backend=args.backend,
            compiler=args.compiler,
            cache_dir=args.cache_dir,
            poll_interval=args.poll_interval,
            queue_capacity=args.queue_capacity,
            per_priority_capacity=args.per_priority_capacity,
            aging_interval_s=args.aging_interval,
            slo=slo,
            admission=args.admission,
            tracing=args.trace,
            start=False,
        )
        try:
            if args.drain:
                processed = server.drain()
                print(f"drained {processed} job(s)")
            else:
                import time as _time

                server.start()
                print(
                    f"serving jobs from {args.state_dir} "
                    f"(backend default: {server.default_backend}) — Ctrl-C to stop"
                )
                deadline = (
                    _time.monotonic() + args.max_seconds
                    if args.max_seconds is not None
                    else None
                )
                try:
                    while deadline is None or _time.monotonic() < deadline:
                        _time.sleep(min(args.poll_interval, 0.25))
                except KeyboardInterrupt:
                    pass
        finally:
            server.close()
        counters = server.telemetry.snapshot()["counters"]
        print("telemetry    :", json.dumps(counters, sort_keys=True))
        return 0

    if args.command == "submit":
        job_id = api.submit(
            _read_source(args.source),
            _parse_inputs(args.inputs),
            args.compiler,
            kind=args.kind,
            backend=args.backend,
            seed=args.seed,
            input_range=args.input_range,
            priority=args.priority,
            max_retries=args.max_retries,
            name=args.name,
            state_dir=args.state_dir,
            **_parse_options(args.option),
        )
        print(job_id)
        if args.wait:
            payload = api.result(job_id, state_dir=args.state_dir, timeout=args.timeout)
            print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    if args.command == "jobs":
        from repro.server.store import JobStore

        jobs = sorted(
            JobStore(args.state_dir).replay().values(),
            key=lambda job: job.submitted_at,
        )
        if args.status:
            wanted = {part.strip() for part in args.status.split(",") if part.strip()}
            jobs = [job for job in jobs if job.status.value in wanted]
        for job in jobs:
            row = job.summary()
            print(
                f"{row['id']}  {row['status']:<9}  {row['kind']:<7} "
                f"attempts={row['attempts']}"
                + (f"  batch={row['coalesced_batch']}" if "coalesced_batch" in row else "")
                + (f"  error={row['error']!r}" if "error" in row else "")
            )
        print(f"{len(jobs)} job(s)")
        return 0

    if args.command == "metrics":
        import os as _os
        import time as _time

        from repro.obs.console import read_snapshot, render_delta, snapshot_delta
        from repro.server.store import JobStore

        path = JobStore(args.state_dir).metrics_path
        if not _os.path.exists(path):
            print(f"no metrics snapshot at {path} (has the server run?)", file=sys.stderr)
            return 1
        if not args.watch:
            with open(path, "r", encoding="utf-8") as handle:
                print(handle.read().rstrip())
            return 0
        previous = None
        updates = 0
        try:
            while args.count is None or updates < args.count:
                snapshot = read_snapshot(path)
                if snapshot is not None:
                    meta = snapshot.get("meta", {})
                    # Only print when the writer advanced; the sequence number
                    # makes re-reads of the same snapshot cheap to skip (pid +
                    # wall time disambiguate a restarted server whose fresh
                    # sequence collides with the old one).
                    stamp = (
                        meta.get("pid"),
                        meta.get("sequence", -1),
                        meta.get("wall_time"),
                    )
                    last_meta = previous.get("meta", {}) if previous is not None else None
                    last = (
                        (
                            last_meta.get("pid"),
                            last_meta.get("sequence", -1),
                            last_meta.get("wall_time"),
                        )
                        if last_meta is not None
                        else None
                    )
                    if last is None or stamp != last:
                        if args.delta and previous is not None:
                            print(render_delta(snapshot_delta(previous, snapshot)))
                        elif not args.delta:
                            print(json.dumps(snapshot, indent=2, sort_keys=True))
                        previous = snapshot
                        updates += 1
                _time.sleep(args.interval)
        except KeyboardInterrupt:
            pass
        return 0

    if args.command == "trace":
        import os as _os

        from repro.obs.export import (
            export_chrome_trace,
            render_stage_report,
            stage_rollup,
        )
        from repro.obs.trace import load_spans
        from repro.server.store import JobStore

        path = JobStore(args.state_dir).trace_path
        if not _os.path.exists(path):
            print(
                f"no trace at {path} (serve with --trace to record spans)",
                file=sys.stderr,
            )
            return 1
        spans = load_spans(path)
        if not spans:
            print(f"trace at {path} holds no spans", file=sys.stderr)
            return 1
        if args.trace_command == "export":
            out = args.out or _os.path.join(args.state_dir, "trace.json")
            events = export_chrome_trace(spans, out)
            print(f"wrote {events} event(s) from {len(spans)} span(s) to {out}")
            print("open in chrome://tracing or https://ui.perfetto.dev")
            return 0
        # report: server-path attribution over stage/tick spans, then the
        # per-job lifecycle view (queue_wait / run) from the job mirrors.
        print(render_stage_report(stage_rollup(spans)))
        job_rollup = stage_rollup(spans, cats=("job",))
        if job_rollup["stages"]:
            print()
            print("job lifecycle (per-job spans, overlapping — not wall-time shares):")
            print(render_stage_report(job_rollup))
        return 0

    if args.command == "top":
        import os as _os
        import time as _time

        from repro.obs.console import read_snapshot, render_top
        from repro.server.store import JobStore

        path = JobStore(args.state_dir).metrics_path
        if not _os.path.exists(path):
            print(f"no metrics snapshot at {path} (has the server run?)", file=sys.stderr)
            return 1
        previous = None
        refreshes = 0
        try:
            while True:
                snapshot = read_snapshot(path)
                if snapshot is None:
                    print(f"unreadable snapshot at {path}", file=sys.stderr)
                    return 1
                if args.watch:
                    # ANSI clear + home, like watch(1); plain print otherwise.
                    sys.stdout.write("\x1b[2J\x1b[H")
                print(render_top(snapshot, previous, source=args.state_dir))
                sys.stdout.flush()
                refreshes += 1
                if not args.watch or (args.count is not None and refreshes >= args.count):
                    break
                previous = snapshot
                _time.sleep(args.interval)
        except KeyboardInterrupt:
            pass
        return 0

    if args.command == "study":
        if args.study_command == "components":
            rows = sorted(api.list_components(), key=lambda row: row["kind"])
            width = max(len(row["name"]) for row in rows)
            for row in rows:
                marker = " " if row["default"] else "*"
                print(f"{row['kind']:<6} {row['name']:<{width}} {marker} {row['description']}")
            print("(* = not in the kind's default matrix; opt in via --components)")
            return 0

        def _progress(run, record):
            metrics = record.get("metrics", {})
            if "throughput_jobs_per_s" in metrics:
                value = f"throughput={metrics['throughput_jobs_per_s']:8.2f} jobs/s"
            else:
                value = f"latency={metrics['execution_latency_ms_geomean']:8.2f} ms (geomean)"
            print(f"  ran {run.run_id:<28} seed={run.seed:<12} {value}")

        def _names(text):
            names = [part.strip() for part in (text or "").split(",") if part.strip()]
            return names or None

        try:
            if args.study_command == "run":
                report = api.run_study(
                    args.study_dir,
                    name=args.name,
                    kind=args.kind,
                    components=_names(args.components),
                    workloads=_names(args.workloads),
                    replicates=args.replicates,
                    jobs_per_replicate=args.jobs_per_replicate,
                    seed=args.seed,
                    max_runs=args.max_runs,
                    resamples=args.resamples,
                    progress=_progress,
                )
            else:  # resume, or report: a resume that executes nothing
                report = api.run_study(
                    args.study_dir,
                    resume=True,
                    max_runs=args.max_runs if args.study_command == "resume" else 0,
                    resamples=args.resamples,
                    progress=_progress,
                )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

        _print_study_report(report)
        progress = report.get("progress")
        if progress is not None and not progress["complete"]:
            remaining = len(progress["remaining"])
            print(f"incomplete   : {remaining} run(s) pending — `study resume` to finish")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
        return 0

    options = _parse_options(args.option)

    if args.command == "compile":
        sources = [_read_source(token) for token in args.sources]
        if len(sources) == 1:
            report = api.compile(
                sources[0],
                args.compiler,
                name=args.name,
                cache_dir=args.cache_dir,
                **options,
            )
            if args.json:
                print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
            else:
                _print_report(report, args.emit_seal)
        else:
            batch = api.compile_batch(
                sources,
                args.compiler,
                workers=args.workers,
                cache_dir=args.cache_dir,
                **options,
            )
            if args.json:
                payload = {
                    "reports": [report.as_dict() for report in batch.reports],
                    "batch": batch.as_dict(),
                }
                print(json.dumps(payload, indent=2, sort_keys=True))
                return 0
            for report in batch.reports:
                _print_report(report, args.emit_seal)
            print("batch        :", json.dumps(batch.as_dict()))
        return 0

    if args.command == "run":
        outcome = api.execute(
            _read_source(args.source),
            _parse_inputs(args.inputs),
            args.compiler,
            backend=args.backend,
            seed=args.seed,
            input_range=args.input_range,
            name=args.name,
            cache_dir=args.cache_dir,
            **options,
        )
        _print_report(outcome.report, emit_seal=False)
        print("  backend      :", outcome.backend)
        print("  inputs       :", json.dumps(outcome.inputs))
        print("  outputs      :", outcome.outputs)
        print("  reference    :", outcome.reference)
        print(f"  latency      : {outcome.execution.latency_ms:.2f} ms")
        print(f"  noise budget : {outcome.execution.consumed_noise_budget:.1f} bits consumed")
        print("  verified     :", "OK" if outcome.correct else "MISMATCH")
        return 0 if outcome.correct else 1

    if args.command == "run-batch":
        batch = api.execute_batch(
            _read_source(args.source),
            batch=args.batch,
            backend=args.backend,
            seed=args.seed,
            input_range=args.input_range,
            name=args.name,
            compiler=args.compiler,
            cache_dir=args.cache_dir,
            **options,
        )
        _print_report(batch.report, emit_seal=False)
        correct = sum(
            1 for out, ref in zip(batch.outputs, batch.references) if out == ref
        )
        print("  backend      :", batch.backend)
        print(f"  batch size   : {batch.batch_size}")
        print(f"  exec wall    : {batch.wall_time_s * 1000.0:.2f} ms "
              f"({batch.throughput_per_s:.0f} input sets/s)")
        if batch.executions:
            execution = batch.executions[0]
            print(f"  latency      : {execution.latency_ms:.2f} ms per input set (simulated)")
            print(f"  noise budget : {execution.consumed_noise_budget:.1f} bits consumed")
        print(f"  verified     : {correct}/{batch.batch_size} OK")
        return 0 if batch.all_correct else 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `python -m repro ... | head`
        sys.exit(0)
