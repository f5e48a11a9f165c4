"""repro -- a reproduction of "CHEHAB RL: Learning to Optimize Fully
Homomorphic Encryption Computations" (ASPLOS 2026).

The package is organised around the paper's system:

* :mod:`repro.ir` -- the CHEHAB expression IR, analyses and tokenizers.
* :mod:`repro.fhe` -- a BFV-style FHE simulator (batching, noise budget,
  latency model, rotation keys) standing in for Microsoft SEAL.
* :mod:`repro.core` -- the FHE-aware analytical cost model and configuration.
* :mod:`repro.trs` -- the term rewriting system (84 rules + END).
* :mod:`repro.compiler` -- the embedded DSL, classic passes, TRS-driven
  vectorizer, lowering to ciphertext instructions and code generation.
* :mod:`repro.nn` -- a numpy autograd engine with Transformer/GRU layers.
* :mod:`repro.rl` -- the MDP environment, hierarchical policy and PPO trainer.
* :mod:`repro.datagen` -- random and motif-based ("LLM-like") dataset
  generators with ICI deduplication.
* :mod:`repro.baselines` -- the Coyote-style vectorizer and greedy-TRS
  baselines.
* :mod:`repro.kernels` -- the Porcupine/Coyote/polynomial-tree benchmark
  kernels.
* :mod:`repro.experiments` -- harnesses regenerating every table and figure
  of the paper's evaluation.
* :mod:`repro.backends` -- pluggable execution backends: the SEAL-style
  reference interpreter, a batched vector VM executing many input sets per
  tape pass, and a no-crypto cost simulator, behind one registry.
* :mod:`repro.service` -- the parallel, cached compilation service (a
  content-addressed compilation cache plus cost-aware parallel batch
  compilation) and the batched execution service, which runs jobs serially
  in input order.
* :mod:`repro.server` -- the job-orchestration server: a persistent
  priority job queue (JSONL store under a state directory), a batch
  coalescer grouping queued executions that share a circuit fingerprint
  into single backend batches, and a telemetry registry with JSON
  snapshots.
* :mod:`repro.workloads` -- the workload registry (the paper's kernel
  suites, tree ensembles and an IR-lowered NN layer as registered
  end-to-end scenarios with input samplers and expected-output oracles)
  plus the mixed-traffic load generator driving weighted, prioritised
  workload mixes through the server and the direct facade path.
* :mod:`repro.studies` -- the study engine: declarative ablation studies
  over registered system components (compiler, backend, coalescer, cache
  tiers, scheduler, admission control), executed resumably on per-run job
  servers and analysed into ranked importance scores with bootstrap
  confidence intervals.
* :mod:`repro.analysis` -- static verification: the tape verifier
  (register-arena safety, reduction-schedule bounds, symbolic circuit
  equivalence), per-stage pipeline validators, a codebase
  concurrency/determinism lint and the seeded mutation harness that
  proves the verifier catches injected optimizer defects.
* :mod:`repro.api` -- the unified facade: ``repro.compile(source,
  compiler="greedy")``, ``repro.execute(..., backend="vector-vm")``,
  ``repro.execute_batch(...)``, ``repro.submit(...)`` /
  ``repro.result(...)`` / ``repro.serve(...)``, ``repro.list_compilers()``,
  ``repro.list_backends()`` (also exposed as the ``python -m repro`` CLI).
"""

__version__ = "0.10.0"

#: Facade names re-exported lazily from :mod:`repro.api` so that
#: ``import repro`` stays cheap and circular imports (the cache stamps
#: ``repro.__version__`` into its keys) stay impossible.
_API_EXPORTS = (
    "compile",
    "compile_batch",
    "analyze",
    "lint",
    "execute",
    "execute_batch",
    "list_compilers",
    "describe_compiler",
    "list_backends",
    "describe_backend",
    "run_workload",
    "list_workloads",
    "run_study",
    "list_components",
    "sample_named_inputs",
    "derive_batch_seeds",
    "make_service",
    "to_expression",
    "RunOutcome",
    "BatchRunOutcome",
    "serve",
    "submit",
    "status",
    "result",
    "default_server",
    "shutdown_default_server",
)

__all__ = ["__version__", *_API_EXPORTS]


def __getattr__(name):
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_API_EXPORTS))
