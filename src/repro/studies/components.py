"""The component registry of the study engine.

A :class:`Component` names one toggleable piece of the system together with
the configuration delta that switches it *off*.  A study then runs one
baseline (everything on) plus one condition per component (exactly that
component off) and prices each component by the metric difference, the
:mod:`repro.studies.analysis` importance score.

Each component belongs to one study kind (:data:`repro.studies.spec.KINDS`):

* ``server`` components are pieces of the serving stack — the optimizing
  compiler, the batched vector backend, the fingerprint coalescer, the
  compilation-cache tier, tracing, admission control — toggled through a
  :class:`~repro.studies.spec.RunConfig`;
* ``suite`` components are the paper's RL contrasts — the learned policy
  against greedy rewriting (Fig. 12), the terminal reward (Fig. 9), the
  training data (Fig. 8) and the cost weights (Table 1) — toggled through a
  :class:`~repro.studies.spec.SuiteConfig`.

Components are registered with :func:`register_component`, mirroring the
``@register_compiler`` / ``@register_backend`` / ``@register_workload``
idiom used everywhere else in the repo, so downstream code can declare new
ablatable subsystems without touching the engine:

* ``ablated`` — configuration field overrides that disable the component
  (applied on top of the study baseline);
* ``baseline`` — overrides the component needs merged into the *baseline*
  configuration for its ablation to be meaningful (e.g. admission control is
  off by default, so its component switches it on in the baseline and off in
  its own condition).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

__all__ = [
    "Component",
    "register_component",
    "get_component",
    "available_components",
    "default_components",
]


@dataclass(frozen=True)
class Component:
    """One toggleable system component a study can ablate."""

    name: str
    description: str
    #: Configuration overrides that switch the component OFF.
    ablated: Mapping[str, object] = field(default_factory=dict)
    #: Configuration overrides required in the BASELINE for this component to be
    #: on in the first place (empty for components that default to on).
    baseline: Mapping[str, object] = field(default_factory=dict)
    #: Whether the component belongs in the default study matrix.  Noisy or
    #: situational components (admission control sheds jobs, skewing every
    #: throughput row) register with ``default=False`` and are opted into
    #: explicitly.
    default: bool = True
    #: The study kind whose runs this component's overrides configure.
    kind: str = "server"

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "ablated": dict(self.ablated),
            "baseline": dict(self.baseline),
            "default": self.default,
        }


_COMPONENTS: Dict[str, Component] = {}


def register_component(component: Component) -> Component:
    """Register ``component``; later registrations replace earlier ones."""
    _COMPONENTS[component.name] = component
    return component


def get_component(name: str) -> Component:
    """The registered component called ``name``."""
    try:
        return _COMPONENTS[name]
    except KeyError:
        known = ", ".join(sorted(_COMPONENTS)) or "<none>"
        raise KeyError(f"unknown component {name!r}; registered: {known}") from None


def available_components() -> List[str]:
    """Sorted names of every registered component."""
    return sorted(_COMPONENTS)


def default_components(kind: str = "server") -> List[str]:
    """Sorted names of the components in ``kind``'s default study matrix."""
    return sorted(
        name
        for name, comp in _COMPONENTS.items()
        if comp.default and comp.kind == kind
    )


# ---------------------------------------------------------------------------
# built-in server components — the subsystems this repo's perf claims rest on
# ---------------------------------------------------------------------------
register_component(
    Component(
        name="compiler-opt",
        description=(
            "Optimizing compiler pipeline: ablated runs lower every circuit "
            "with the unoptimized 'initial' compiler instead of the "
            "workload's optimizing default."
        ),
        ablated={"compiler": "initial"},
    )
)

register_component(
    Component(
        name="vector-backend",
        description=(
            "Batched vector VM: ablated runs execute on the scalar "
            "'reference' interpreter, one input set at a time."
        ),
        ablated={"backend": "reference"},
    )
)

register_component(
    Component(
        name="coalescing",
        description=(
            "Fingerprint batch coalescer: ablated runs execute every job as "
            "its own backend batch, as if the coalescer never existed."
        ),
        ablated={"coalesce": False},
    )
)

register_component(
    Component(
        name="compile-cache",
        description=(
            "Compilation caching tier: ablated runs disable the "
            "content-addressed CompilationCache (capacity=0), which also "
            "turns off the server's hot-path circuit memo, so every repeat "
            "pays a full compile."
        ),
        ablated={"cache_capacity": 0},
    )
)

register_component(
    Component(
        name="tracing",
        description=(
            "End-to-end span tracing (repro.obs): on in this component's "
            "baseline (tracing=True), off in its ablated condition — the "
            "importance score is therefore the throughput cost of leaving "
            "tracing enabled.  Excluded from the default matrix so the "
            "production rows stay untraced."
        ),
        ablated={"tracing": False},
        baseline={"tracing": True},
        default=False,
    )
)

register_component(
    Component(
        name="admission-control",
        description=(
            "Cost-aware admission control: on in this component's baseline "
            "(admission='shed'), off in its ablated condition.  Excluded "
            "from the default matrix because shedding changes the completed-"
            "job population of every other row."
        ),
        ablated={"admission": "off"},
        baseline={"admission": "shed"},
        default=False,
    )
)


# ---------------------------------------------------------------------------
# built-in suite components — the paper's Sec. 7.6 contrasts on a chehab-rl
# baseline, and Table 1's cost weights on a greedy one (opt-in: the two
# baselines conflict)
# ---------------------------------------------------------------------------
for _name, _description, _ablated in (
    ("rl-policy", "The learned rewriting policy (paper Fig. 12): ablated runs "
     "compile with the greedy TRS rewriter, the original CHEHAB.", {"compiler": "greedy"}),
    ("terminal-reward", "The terminal reward term (paper Fig. 9): ablated runs "
     "train the agent on the step reward alone.", {"use_terminal_reward": False}),
    ("realistic-data", "LLM-style motif training data (paper Fig. 8): ablated "
     "runs train the agent on random expressions.", {"use_random_data": True}),
):
    register_component(
        Component(
            name=_name,
            description=_description,
            ablated=_ablated,
            baseline={"compiler": "chehab-rl"},
            kind="suite",
        )
    )

for _weights in ((1.0, 50.0, 50.0), (1.0, 100.0, 100.0), (1.0, 150.0, 150.0)):
    register_component(
        Component(
            name="weights-{:g}-{:g}-{:g}".format(*_weights),
            description=(
                "Cost weights ({:g}, {:g}, {:g}) (paper Table 1): ablated runs "
                "descend the reweighted cost instead of the default (1, 1, 1)."
            ).format(*_weights),
            ablated={"cost_weights": _weights},
            baseline={"compiler": "greedy"},
            default=False,
            kind="suite",
        )
    )
del _name, _description, _ablated, _weights
