PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test benchmarks smoke lint golden analyze bench-smoke bench-backends bench-server bench-workloads bench-overload bench-ablation docs-check all

# Tier-1 test suite (tests/ + benchmarks/ collected from the repo root).
test:
	$(PYTHON) -m pytest -x -q

# Regenerate the paper's figure/table series at reproduction scale.
benchmarks:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Fast CI smoke: tier-1 tests, a 2-worker compilation-service run (the
# compile process pool; execution runs serially and has no workers), the
# three-backend execution parity diff, the job-orchestration server
# (mixed compile+execute workload, coalescing asserted via telemetry), the
# workload suite (mixed traffic over a persistent state dir, bit-identical
# to the direct api path), the overload hardening (bounded queue sheds
# under a burst while completing and accounting for every job), the
# study engine (interrupted ablation study resumes without re-running
# finished replicates), the tracing pipeline (mixed burst with tracing
# on: connected per-job traces, Perfetto-loadable export, stage report)
# and the static-analysis stack (lint clean, two workloads verify clean,
# the mutation harness detects every injected defect).
smoke:
	$(PYTHON) -m pytest tests -x -q
	$(PYTHON) scripts/service_smoke.py --workers 2
	$(PYTHON) scripts/backend_smoke.py
	$(PYTHON) scripts/server_smoke.py
	$(PYTHON) scripts/workload_smoke.py
	$(PYTHON) scripts/overload_smoke.py
	$(PYTHON) scripts/study_smoke.py
	$(PYTHON) scripts/trace_smoke.py
	$(PYTHON) scripts/analysis_smoke.py

# Concurrency/determinism/hygiene lint over src/repro (non-zero on ERROR).
lint:
	$(PYTHON) -m repro lint

# Every compiler's rewrite steps, circuits and stats, and the trained
# agent, against the committed golden traces (non-zero on any difference).
golden:
	$(PYTHON) scripts/compile_golden.py --check

# Static verification sweep: pipeline validators + tape verifier over
# every registered workload (non-zero on any ERROR finding).
analyze:
	$(PYTHON) -m repro analyze

# Fig. 5 execution-time series driven through the batched vector VM.
bench-smoke:
	REPRO_BACKEND=vector-vm $(PYTHON) -m pytest benchmarks/test_fig5_execution_time.py --benchmark-only -s

# Backend throughput trajectory (rewrites BENCH_backends.json).
bench-backends:
	$(PYTHON) scripts/bench_backends.py --check

# Coalesced-server throughput vs one-at-a-time api.execute (rewrites
# BENCH_server.json; the acceptance bar is 3x).
bench-server:
	$(PYTHON) scripts/bench_server.py --check

# Workload suite: every registered workload on both backends, direct vs
# server path bit-identical, plus a mixed-traffic coalescing pass
# (rewrites BENCH_workloads.json).
bench-workloads:
	$(PYTHON) scripts/bench_workloads.py --check

# Goodput under overload: hardened (bounded queue + SLOs + admission)
# vs unbounded server at 0.5x/1x/2x measured capacity (rewrites
# BENCH_overload.json; the bar is hardened 2x goodput within 15% of peak
# with the top-priority p99 wait inside its SLO budget).
bench-overload:
	$(PYTHON) scripts/bench_overload.py --check

# System-ablation study: baseline + one-component-off matrix with
# bootstrap-CI importance ranking (rewrites BENCH_ablation.json; the bar
# is a complete study with >= 3 replicates per condition).
bench-ablation:
	$(PYTHON) scripts/bench_ablation.py --check

# Fail when README / architecture code snippets no longer execute.
docs-check:
	$(PYTHON) scripts/check_docs.py README.md docs/ARCHITECTURE.md

all: test docs-check
