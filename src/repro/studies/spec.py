"""Study specifications and the run-matrix generator.

A :class:`StudySpec` declares *what* to study — which components to ablate,
what each run drives, how many replicates — and :func:`generate_runs`
expands it into the full deterministic run matrix: one ``baseline``
condition plus one condition per component, times ``replicates`` runs each.

A study's *kind* selects what one run executes: a ``server`` run drives
jobs through a fresh job server under a :class:`RunConfig`; a ``suite`` run
compiles and executes kernels under a :class:`SuiteConfig`.

Server replicate seeding follows the repo-wide
:func:`numpy.random.SeedSequence` contract (the same scheme
``api.derive_batch_seeds`` uses for batch items): the study seed spawns one
child sequence per condition, each condition spawns one grandchild per
replicate, and every run seed is drawn from its own grandchild, so no two
runs anywhere in the matrix sample the same input stream.

Suite runs are *paired* instead: replicate *r* of every condition trains
its agent with seed *r* on input seed 0, so the two sides of a contrast
share a seed and replicate 0 is the single run the figures report.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.studies.components import default_components, get_component

__all__ = ["RunConfig", "SuiteConfig", "StudySpec", "RunSpec", "generate_runs", "condition_seeds", "KINDS"]

#: The condition name of the everything-on configuration.
BASELINE = "baseline"


class _Config:
    """Override and JSON round-trip shared by the run configurations."""

    def with_overrides(self, overrides: Mapping[str, object]):
        """A copy with ``overrides`` applied; unknown keys are an error."""
        known = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise KeyError(f"unknown {type(self).__name__} fields: {', '.join(unknown)}")
        return dataclasses.replace(self, **dict(overrides))

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, record: Mapping[str, object]):
        return cls().with_overrides(record)


@dataclass(frozen=True)
class RunConfig(_Config):
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


#: The paper's default ``(ops, depth, mult_depth)`` cost weights.
DEFAULT_COST_WEIGHTS = (1.0, 1.0, 1.0)


@dataclass(frozen=True)
class SuiteConfig(_Config):
    """The compiler configuration one suite run compiles its kernels under.

    ``chehab-rl`` trains its agent from the training fields and the
    replicate's seed; other compilers ignore them.  ``cost_weights`` weighs
    a non-learning compiler's cost model (paper Table 1).
    """

    compiler: str = "chehab-rl"
    train_timesteps: int = 512
    dataset_size: int = 64
    use_terminal_reward: bool = True
    use_random_data: bool = False
    cost_weights: Tuple[float, float, float] = DEFAULT_COST_WEIGHTS

    def __post_init__(self) -> None:
        weights = tuple(float(weight) for weight in self.cost_weights)
        object.__setattr__(self, "cost_weights", weights)
        if self.compiler == "chehab-rl" and weights != DEFAULT_COST_WEIGHTS:
            raise ValueError(
                "chehab-rl trains under the default cost weights; vary "
                "cost_weights on a non-learning compiler"
            )


@dataclass(frozen=True)
class _Kind:
    """A study kind's run configuration class and defaults."""

    config: type
    workloads: Tuple[str, ...]
    primary_metric: str


#: Study kinds by name (the suite default is Fig. 12's kernel list).
KINDS: Dict[str, _Kind] = {
    "server": _Kind(RunConfig, ("dot-product", "max-tree"), "throughput_jobs_per_s"),
    "suite": _Kind(
        SuiteConfig,
        ("dot_product_8", "l2_distance_8", "linear_regression_8", "gx_3x3", "box_blur_3x3", "max_4"),
        "execution_latency_ms_geomean",
    ),
}


@dataclass(frozen=True)
class StudySpec:
    """Everything needed to (re)generate a study's run matrix.

    ``None`` for ``workloads``, ``base_config`` or ``primary_metric`` selects
    the kind's default.  ``jobs_per_replicate``, ``priorities`` and
    ``warmup_runs`` shape server runs only.
    """

    name: str = "system-ablation"
    #: Component names to ablate; empty selects the kind's default matrix.
    components: Tuple[str, ...] = ()
    #: Registered workloads (server) or kernel names (suite) each run drives.
    workloads: Optional[Tuple[str, ...]] = None
    #: Runs per condition; ≥3 gives the bootstrap something to resample.
    replicates: int = 3
    #: Jobs submitted per run (cycled over ``workloads`` and ``priorities``).
    jobs_per_replicate: int = 8
    seed: int = 0
    base_config: Union[RunConfig, SuiteConfig, None] = None
    primary_metric: Optional[str] = None
    #: Job priorities cycled across submissions (reuses the server's
    #: priority queue exactly as production traffic does).
    priorities: Tuple[int, ...] = (0, 1)
    #: Unrecorded throwaway runs executed before the first recorded run of
    #: each session.  A cold process inflates whichever condition runs
    #: first (imports, allocator, JIT-warm numpy paths); warm-up runs soak
    #: that up so it lands on no condition's ledger.
    warmup_runs: int = 1
    #: What one run executes: ``server`` or ``suite`` (see :data:`KINDS`).
    kind: str = "server"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown study kind {self.kind!r}; known: {', '.join(sorted(KINDS))}"
            )
        kind = KINDS[self.kind]
        for name, default in (
            ("workloads", kind.workloads),
            ("base_config", kind.config()),
            ("primary_metric", kind.primary_metric),
        ):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        object.__setattr__(self, "workloads", tuple(self.workloads))
        if not isinstance(self.base_config, kind.config):
            raise TypeError(
                f"a {self.kind} study runs under a {kind.config.__name__}, "
                f"not a {type(self.base_config).__name__}"
            )
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.jobs_per_replicate < 1:
            raise ValueError("jobs_per_replicate must be at least 1")
        if not self.workloads:
            raise ValueError("a study needs at least one workload")
        if not self.priorities:
            raise ValueError("a study needs at least one priority")

    def component_names(self) -> List[str]:
        """The resolved component list (the kind's default matrix when empty)."""
        names = list(self.components) if self.components else default_components(self.kind)
        for name in names:
            component = get_component(name)  # raises on unknown names
            if component.kind != self.kind:
                raise ValueError(f"component {name!r} ablates {component.kind} runs, not {self.kind} runs")
        return names

    def baseline_config(self) -> Union[RunConfig, SuiteConfig]:
        """``base_config`` plus every selected component's baseline overrides;
        components that need different values for one field conflict."""
        merged: Dict[str, Tuple[str, object]] = {}
        for name in self.component_names():
            for key, value in get_component(name).baseline.items():
                owner, wanted = merged.setdefault(key, (name, value))
                if wanted != value:
                    raise ValueError(
                        f"components {owner!r} and {name!r} need different "
                        f"baseline {key} ({wanted!r} vs {value!r}); study "
                        "them separately"
                    )
        return self.base_config.with_overrides(
            {key: value for key, (_, value) in merged.items()}
        )

    def as_dict(self) -> Dict[str, object]:
        record = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        record.update(
            components=self.component_names(),
            workloads=list(self.workloads),
            priorities=list(self.priorities),
            base_config=self.base_config.as_dict(),
        )
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "StudySpec":
        """Parse :meth:`as_dict` output; no kind means a server study."""
        fields = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in record.items()
        }
        kind = str(fields.pop("kind", "server"))
        if kind not in KINDS:
            raise ValueError(f"unknown study kind {kind!r}")
        config = KINDS[kind].config.from_dict(fields.pop("base_config", {}))
        return cls(kind=kind, base_config=config, **fields)


@dataclass(frozen=True)
class RunSpec:
    """One cell of the run matrix: a condition, replicate and seed."""

    run_id: str
    condition: str
    replicate: int
    seed: int
    config: Union[RunConfig, SuiteConfig]

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
    each with ``spec.replicates`` runs: independently seeded for server
    studies, paired (replicate *r* has seed *r*) for suite studies.  The
    matrix is ordered *replicate-major* (replicate 0 of every condition, then
    replicate 1, …): runs execute in matrix order, so condition-major order
    would hand whichever condition runs first the whole cost of a cold
    process and bias every importance score.  Interleaving spreads that
    drift evenly across conditions.
    """
    names = spec.component_names()
    conditions = [BASELINE] + names
    baseline = spec.baseline_config()
    configs = {BASELINE: baseline}
    for name in names:
        configs[name] = baseline.with_overrides(get_component(name).ablated)
    if spec.kind == "suite":
        seeds = {condition: list(range(spec.replicates)) for condition in conditions}
    else:
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
