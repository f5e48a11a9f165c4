"""Study orchestration: seeded, resumable ablations of the system and the paper.

One engine runs both kinds of study.  :mod:`repro.studies.components`
names the toggleable components, :mod:`repro.studies.spec` expands a study
into a seeded run matrix, :mod:`repro.studies.runner` executes it
(resumably) and :mod:`repro.studies.analysis` turns the records into ranked
importance scores with bootstrap confidence intervals.  A ``server`` study
runs each replicate on its own :class:`~repro.server.server.JobServer`; a
``suite`` study compiles and executes a kernel list under one compiler
configuration (:mod:`repro.studies.suite`), which is how the paper's RL
ablations (Figs. 8, 9, 12 and Table 1) run.

The supported entry points are :func:`repro.api.run_study`,
:func:`repro.api.list_components` and the ``python -m repro study``
CLI group.
"""

from repro.studies.analysis import (
    bootstrap_ci,
    component_importance,
    condition_summary,
    rank_components,
    study_report,
)
from repro.studies.components import (
    Component,
    available_components,
    default_components,
    get_component,
    register_component,
)
from repro.studies.runner import (
    StudyProgress,
    StudyRunner,
    load_study_spec,
)
from repro.studies.spec import (
    BASELINE,
    KINDS,
    RunConfig,
    RunSpec,
    StudySpec,
    SuiteConfig,
    condition_seeds,
    generate_runs,
)

__all__ = [
    "BASELINE",
    "Component",
    "KINDS",
    "RunConfig",
    "RunSpec",
    "StudyProgress",
    "StudyRunner",
    "StudySpec",
    "SuiteConfig",
    "available_components",
    "bootstrap_ci",
    "component_importance",
    "condition_seeds",
    "condition_summary",
    "default_components",
    "generate_runs",
    "get_component",
    "load_study_spec",
    "rank_components",
    "register_component",
    "study_report",
]
