"""Study specifications and the run-matrix generator.

A :class:`StudySpec` declares *what* to study — which components to ablate,
which workloads to drive through the server, how many replicates — and
:func:`generate_runs` expands it into the full deterministic run matrix:
one ``baseline`` condition plus one condition per component, times
``replicates`` runs each.

Replicate seeding follows the repo-wide :func:`numpy.random.SeedSequence`
contract (the same scheme ``api.derive_batch_seeds`` uses for batch items):
the study seed spawns one child sequence per condition, each condition
spawns one grandchild per replicate, and every run seed is drawn from its
own grandchild.  Spawned sequences are statistically independent by
construction, so no two runs anywhere in the matrix sample the same input
stream — which is what makes cross-condition metric deltas attributable to
the configuration rather than to shared inputs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.studies.components import default_components, get_component

__all__ = ["RunConfig", "StudySpec", "RunSpec", "generate_runs", "condition_seeds"]

#: The condition name of the everything-on configuration.
BASELINE = "baseline"


@dataclass(frozen=True)
class RunConfig:
    """The server/service knobs one study run is executed under.

    ``None`` for ``compiler``/``backend`` means *each workload's registered
    default* — the baseline exercises the optimizing compiler and vector VM
    the workloads declare, and ablations override per run, not per job.
    """

    compiler: Optional[str] = None
    backend: Optional[str] = None
    coalesce: bool = True
    cache_capacity: int = 512
    admission: str = "off"
    #: End-to-end span tracing (:mod:`repro.obs`).  Off by default so the
    #: default matrix measures the production configuration; the ``tracing``
    #: component flips it on in its baseline to price the tracing overhead.
    tracing: bool = False

    def with_overrides(self, overrides: Mapping[str, object]) -> "RunConfig":
        """A copy with ``overrides`` applied; unknown keys are an error."""
        known = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise KeyError(f"unknown RunConfig fields: {', '.join(unknown)}")
        return dataclasses.replace(self, **dict(overrides))

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "RunConfig":
        return cls().with_overrides(record)


@dataclass(frozen=True)
class StudySpec:
    """Everything needed to (re)generate a study's run matrix."""

    name: str = "system-ablation"
    #: Component names to ablate; empty selects every default component.
    components: Tuple[str, ...] = ()
    #: Workload registry names driven through the server each run.
    workloads: Tuple[str, ...] = ("dot-product", "max-tree")
    #: Runs per condition; ≥3 gives the bootstrap something to resample.
    replicates: int = 3
    #: Jobs submitted per run (cycled over ``workloads`` and ``priorities``).
    jobs_per_replicate: int = 8
    seed: int = 0
    base_config: RunConfig = field(default_factory=RunConfig)
    primary_metric: str = "throughput_jobs_per_s"
    #: Job priorities cycled across submissions (reuses the server's
    #: priority queue exactly as production traffic does).
    priorities: Tuple[int, ...] = (0, 1)
    #: Unrecorded throwaway runs executed before the first recorded run of
    #: each session.  A cold process inflates whichever condition runs
    #: first (imports, allocator, JIT-warm numpy paths); warm-up runs soak
    #: that up so it lands on no condition's ledger.
    warmup_runs: int = 1

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.jobs_per_replicate < 1:
            raise ValueError("jobs_per_replicate must be at least 1")
        if not self.workloads:
            raise ValueError("a study needs at least one workload")
        if not self.priorities:
            raise ValueError("a study needs at least one priority")

    def component_names(self) -> List[str]:
        """The resolved component list (default matrix when empty)."""
        names = list(self.components) if self.components else default_components()
        for name in names:
            get_component(name)  # raises on unknown names
        return names

    def baseline_config(self) -> RunConfig:
        """``base_config`` plus every selected component's baseline overrides."""
        config = self.base_config
        for name in self.component_names():
            config = config.with_overrides(get_component(name).baseline)
        return config

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "components": self.component_names(),
            "workloads": list(self.workloads),
            "replicates": self.replicates,
            "jobs_per_replicate": self.jobs_per_replicate,
            "seed": self.seed,
            "base_config": self.base_config.as_dict(),
            "primary_metric": self.primary_metric,
            "priorities": list(self.priorities),
            "warmup_runs": self.warmup_runs,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "StudySpec":
        return cls(
            name=str(record.get("name", "system-ablation")),
            components=tuple(record.get("components", ())),
            workloads=tuple(record.get("workloads", ("dot-product", "max-tree"))),
            replicates=int(record.get("replicates", 3)),
            jobs_per_replicate=int(record.get("jobs_per_replicate", 8)),
            seed=int(record.get("seed", 0)),
            base_config=RunConfig.from_dict(record.get("base_config", {})),
            primary_metric=str(record.get("primary_metric", "throughput_jobs_per_s")),
            priorities=tuple(record.get("priorities", (0, 1))),
            warmup_runs=int(record.get("warmup_runs", 1)),
        )


@dataclass(frozen=True)
class RunSpec:
    """One cell of the run matrix: a condition, replicate and seed."""

    run_id: str
    condition: str
    replicate: int
    seed: int
    config: RunConfig

    def as_dict(self) -> Dict[str, object]:
        return {
            "run_id": self.run_id,
            "condition": self.condition,
            "replicate": self.replicate,
            "seed": self.seed,
            "config": self.config.as_dict(),
        }


def condition_seeds(study_seed: int, conditions: Sequence[str], replicates: int) -> Dict[str, List[int]]:
    """Per-condition replicate seeds via two-level ``SeedSequence.spawn``.

    Condition order matters (it indexes the first spawn level), which is why
    :func:`generate_runs` always puts ``baseline`` first and components in
    spec order — the same spec yields the same seeds on every invocation,
    including after a resume.
    """
    roots = np.random.SeedSequence(study_seed).spawn(len(conditions))
    seeds: Dict[str, List[int]] = {}
    for condition, root in zip(conditions, roots):
        children = root.spawn(replicates)
        seeds[condition] = [
            int(child.generate_state(1, np.uint32)[0]) for child in children
        ]
    return seeds


def generate_runs(spec: StudySpec) -> List[RunSpec]:
    """Expand ``spec`` into its full deterministic run matrix.

    One ``baseline`` condition plus one single-delta condition per component,
    each with ``spec.replicates`` independently seeded runs.  The matrix is
    ordered *replicate-major* (replicate 0 of every condition, then
    replicate 1, …): runs execute in matrix order, so condition-major order
    would hand whichever condition runs first the whole cost of a cold
    process and bias every importance score.  Interleaving spreads that
    drift evenly across conditions.
    """
    names = spec.component_names()
    conditions = [BASELINE] + names
    baseline = spec.baseline_config()
    configs: Dict[str, RunConfig] = {BASELINE: baseline}
    for name in names:
        configs[name] = baseline.with_overrides(get_component(name).ablated)
    seeds = condition_seeds(spec.seed, conditions, spec.replicates)
    runs: List[RunSpec] = []
    for replicate in range(spec.replicates):
        for condition in conditions:
            runs.append(
                RunSpec(
                    run_id=f"{condition}/r{replicate}",
                    condition=condition,
                    replicate=replicate,
                    seed=seeds[condition][replicate],
                    config=configs[condition],
                )
            )
    return runs
