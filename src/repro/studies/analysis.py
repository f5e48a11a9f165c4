"""Importance analysis over finished study records.

Each component's *importance* is the relative change of the study's primary
metric when that component is switched off:

``importance = (baseline_mean − ablated_mean) / baseline_mean``

for higher-is-better metrics (throughput), with the sign flipped for
lower-is-better ones (latencies) — so positive importance always means
*removing the component makes the system worse*, and the magnitude is the
fraction of the baseline metric the component is worth.

Uncertainty comes from a seeded nonparametric bootstrap: baseline and
ablated replicate values are resampled with replacement independently,
the importance recomputed per resample, and the CI read off the percentile
interval.  With the recommended ≥3 replicates the interval is wide but
honest; more replicates tighten it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.studies.spec import BASELINE

__all__ = [
    "bootstrap_ci",
    "condition_summary",
    "component_importance",
    "rank_components",
    "study_report",
]

#: Metrics where smaller is better — importance signs flip for these (a
#: per-kernel ``execution_latency_ms/<kernel>`` follows its prefix).
LOWER_IS_BETTER = frozenset(
    {
        "execution_latency_ms",
        "execution_latency_ms_geomean",
        "consumed_noise_budget_geomean",
        "final_cost_geomean",
        "mean_wait_s",
        "mean_run_s",
        "p50_run_s",
        "p99_run_s",
        "p50_wait_s",
        "p99_wait_s",
        "mean_latency_ms",
        "jobs_failed",
        "jobs_shed",
        "cache_misses",
    }
)


def _metric_values(
    records: Iterable[Mapping[str, object]], condition: str, metric: str
) -> List[float]:
    values: List[float] = []
    for record in records:
        if record.get("type") != "run" or record.get("condition") != condition:
            continue
        metrics = record.get("metrics") or {}
        value = metrics.get(metric)
        if isinstance(value, (int, float)):
            values.append(float(value))
    return values


def _importance(baseline_mean: float, ablated_mean: float, metric: str) -> float:
    if baseline_mean == 0.0:
        return 0.0
    score = (baseline_mean - ablated_mean) / abs(baseline_mean)
    return -score if metric.partition("/")[0] in LOWER_IS_BETTER else score


def bootstrap_ci(
    baseline: Sequence[float],
    ablated: Sequence[float],
    metric: str,
    *,
    seed: int = 0,
    resamples: int = 2000,
    alpha: float = 0.05,
) -> Tuple[float, float]:
    """Percentile-bootstrap CI of the importance score.

    Baseline and ablated replicates are resampled independently (they are
    independent runs) and the importance recomputed per resample.
    """
    if not baseline or not ablated:
        return (0.0, 0.0)
    rng = np.random.default_rng(seed)
    base = np.asarray(baseline, dtype=float)
    abl = np.asarray(ablated, dtype=float)
    scores = np.empty(resamples, dtype=float)
    for i in range(resamples):
        b = base[rng.integers(0, len(base), size=len(base))]
        a = abl[rng.integers(0, len(abl), size=len(abl))]
        scores[i] = _importance(float(b.mean()), float(a.mean()), metric)
    low, high = np.quantile(scores, [alpha / 2.0, 1.0 - alpha / 2.0])
    return (float(low), float(high))


def condition_summary(
    records: Iterable[Mapping[str, object]], condition: str, metrics: Sequence[str]
) -> Dict[str, object]:
    """Per-metric mean/std/n for one condition's replicates."""
    records = list(records)
    summary: Dict[str, object] = {"condition": condition}
    table: Dict[str, Dict[str, float]] = {}
    for metric in metrics:
        values = _metric_values(records, condition, metric)
        if values:
            arr = np.asarray(values, dtype=float)
            table[metric] = {
                "mean": float(arr.mean()),
                "std": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
                "n": len(values),
            }
        else:
            table[metric] = {"mean": 0.0, "std": 0.0, "n": 0}
    summary["metrics"] = table
    return summary


def component_importance(
    records: Iterable[Mapping[str, object]],
    components: Sequence[str],
    *,
    metric: str,
    seed: int = 0,
    resamples: int = 2000,
) -> List[Dict[str, object]]:
    """One importance row per component, in the given component order."""
    records = list(records)
    baseline = _metric_values(records, BASELINE, metric)
    baseline_mean = float(np.mean(baseline)) if baseline else 0.0
    rows: List[Dict[str, object]] = []
    for index, component in enumerate(components):
        ablated = _metric_values(records, component, metric)
        ablated_mean = float(np.mean(ablated)) if ablated else 0.0
        low, high = bootstrap_ci(
            baseline, ablated, metric, seed=seed + index, resamples=resamples
        )
        rows.append(
            {
                "component": component,
                "metric": metric,
                "baseline_mean": baseline_mean,
                "ablated_mean": ablated_mean,
                "delta": ablated_mean - baseline_mean,
                # No recorded replicates on either side means no evidence,
                # not a total loss — report zero importance, zero-width CI.
                "importance": (
                    _importance(baseline_mean, ablated_mean, metric)
                    if baseline and ablated
                    else 0.0
                ),
                "ci_low": low,
                "ci_high": high,
                "baseline_replicates": len(baseline),
                "ablated_replicates": len(ablated),
            }
        )
    return rows


def rank_components(rows: Iterable[Mapping[str, object]]) -> List[Dict[str, object]]:
    """Importance rows sorted most-important-first (by |importance|)."""
    ranked = sorted(rows, key=lambda row: abs(float(row["importance"])), reverse=True)
    return [dict(row, rank=index + 1) for index, row in enumerate(ranked)]


def study_report(
    spec_record: Mapping[str, object],
    records: Iterable[Mapping[str, object]],
    *,
    seed: int = 0,
    resamples: int = 2000,
    metrics: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """The full analysis payload the CLI/bench script emit.

    ``spec_record`` is the dict form of a :class:`~repro.studies.spec.StudySpec`
    (what the study log's header pins); ``records`` are its run records.
    """
    records = list(records)
    components = [str(name) for name in spec_record.get("components", [])]
    primary = str(spec_record.get("primary_metric", "throughput_jobs_per_s"))
    if metrics is None:
        seen: Dict[str, None] = {}
        for record in records:
            if record.get("type") == "run":
                for name in record.get("metrics") or {}:
                    seen.setdefault(str(name), None)
        metrics = sorted(seen)
    conditions = [BASELINE] + components
    importance = component_importance(
        records, components, metric=primary, seed=seed, resamples=resamples
    )
    run_count = sum(1 for record in records if record.get("type") == "run")
    return {
        "study": spec_record.get("name", "study"),
        "spec": dict(spec_record),
        "primary_metric": primary,
        "runs_recorded": run_count,
        "conditions": [
            condition_summary(records, condition, metrics) for condition in conditions
        ],
        "importance": importance,
        "ranking": rank_components(importance),
    }
