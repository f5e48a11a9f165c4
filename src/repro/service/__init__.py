"""Parallel, cached compilation service (the serving layer).

This package turns the single-expression compiler pipeline into a batch
service suitable for experiment harnesses and, eventually, online serving:

* :mod:`repro.service.cache` — a content-addressed compilation cache keyed
  by a canonical hash of ``(expression, compiler configuration)``, with an
  in-memory LRU tier and an optional on-disk tier.
* :mod:`repro.service.scheduler` — cost-aware largest-first bin packing of
  compilation jobs across workers, weighted by the analytical cost model.
* :mod:`repro.service.service` — :class:`CompilationService`, the facade
  combining both, with a serial fallback that keeps results deterministic.
* :mod:`repro.service.execution` — :class:`ExecutionService`, the batched
  execution counterpart: jobs run on any registered execution backend under
  LPT scheduling weighted by each circuit's static analytical latency times
  its number of input sets.
"""

from repro.service.cache import (
    CacheStats,
    CompilationCache,
    cache_key,
    compiler_fingerprint,
)
from repro.service.execution import (
    ExecutionBatchReport,
    ExecutionJob,
    ExecutionRecord,
    ExecutionService,
)
from repro.service.scheduler import WorkerPlan, makespan, partition_jobs
from repro.service.service import (
    BatchReport,
    CompilationJob,
    CompilationService,
    JobRecord,
)

__all__ = [
    "ExecutionBatchReport",
    "ExecutionJob",
    "ExecutionRecord",
    "ExecutionService",
    "CacheStats",
    "CompilationCache",
    "cache_key",
    "compiler_fingerprint",
    "WorkerPlan",
    "partition_jobs",
    "makespan",
    "BatchReport",
    "CompilationJob",
    "CompilationService",
    "JobRecord",
]
