"""Tests for the study engine: specs, matrix, resumable runner, analysis.

The kill/resume acceptance test is here: a study interrupted mid-matrix
(``max_runs`` stands in for the kill, plus a genuinely torn log tail) must
resume to completion executing exactly the missing replicates — never
re-running a finished one.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.studies import (
    BASELINE,
    Component,
    RunConfig,
    StudyRunner,
    StudySpec,
    available_components,
    bootstrap_ci,
    component_importance,
    condition_seeds,
    condition_summary,
    default_components,
    generate_runs,
    get_component,
    load_study_spec,
    rank_components,
    study_report,
)

# A deliberately tiny spec: 1 component, 1 workload, 2 replicates, 2 jobs —
# the runner tests boot real JobServers, so every extra cell costs seconds.
TINY = StudySpec(
    name="tiny",
    components=("coalescing",),
    workloads=("dot-product",),
    replicates=2,
    jobs_per_replicate=2,
    warmup_runs=0,
)


def _run_record(condition, metrics, replicate=0):
    return {
        "type": "run",
        "status": "completed",
        "condition": condition,
        "run_id": f"{condition}/r{replicate}",
        "replicate": replicate,
        "metrics": metrics,
    }


class TestComponents:
    def test_registry_contents(self):
        names = available_components()
        assert names == sorted(names)
        for expected in (
            "compiler-opt",
            "vector-backend",
            "coalescing",
            "compile-cache",
            "tracing",
            "admission-control",
        ):
            assert expected in names
        assert "measured-scheduler" not in names

    def test_default_excludes_non_default(self):
        defaults = default_components()
        assert "admission-control" not in defaults  # opt-in component
        assert set(defaults) < set(available_components())

    def test_unknown_component_raises_with_known_list(self):
        with pytest.raises(KeyError, match="coalescing"):
            get_component("no-such-component")

    def test_as_dict_round_trips_fields(self):
        component = get_component("compile-cache")
        assert isinstance(component, Component)
        payload = component.as_dict()
        assert payload["name"] == "compile-cache"
        assert payload["ablated"] == {"cache_capacity": 0, "memoize_circuits": False}


class TestRunConfig:
    def test_with_overrides_rejects_unknown_keys(self):
        with pytest.raises(KeyError, match="not_a_knob"):
            RunConfig().with_overrides({"not_a_knob": 1})

    def test_dict_round_trip(self):
        config = RunConfig(coalesce=False, cache_capacity=7, backend="reference")
        assert RunConfig.from_dict(config.as_dict()) == config


class TestStudySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            StudySpec(replicates=0)
        with pytest.raises(ValueError):
            StudySpec(jobs_per_replicate=0)
        with pytest.raises(ValueError):
            StudySpec(workloads=())
        with pytest.raises(ValueError):
            StudySpec(priorities=())

    def test_empty_components_resolve_to_defaults(self):
        assert StudySpec().component_names() == default_components()

    def test_unknown_component_rejected(self):
        with pytest.raises(KeyError):
            StudySpec(components=("bogus",)).component_names()

    def test_baseline_config_merges_component_baselines(self):
        # admission-control's baseline turns admission on; selecting it must
        # flow into the baseline condition, not just the ablated one.
        spec = StudySpec(components=("admission-control",))
        assert spec.baseline_config().admission == "shed"
        assert StudySpec(components=("coalescing",)).baseline_config().admission == "off"

    def test_dict_round_trip(self):
        spec = StudySpec(
            components=("coalescing", "compile-cache"),
            workloads=("dot-product",),
            replicates=4,
            seed=9,
            warmup_runs=2,
            base_config=RunConfig(admission="shed", tracing=True),
        )
        clone = StudySpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert clone.as_dict() == spec.as_dict()
        # The execution worker count is no longer a run knob; a ledger that
        # still records one is rejected instead of silently ignored.
        with pytest.raises(TypeError, match="workers"):
            RunConfig(workers=3)
        with pytest.raises(KeyError, match="workers"):
            RunConfig.from_dict({"workers": 3})
        record = spec.as_dict()
        record["base_config"] = dict(record["base_config"], workers=3)
        with pytest.raises(KeyError, match="workers"):
            StudySpec.from_dict(record)


class TestRunMatrix:
    def test_shape_and_uniqueness(self):
        spec = StudySpec(components=("coalescing", "compile-cache"), replicates=3)
        runs = generate_runs(spec)
        assert len(runs) == (1 + 2) * 3
        run_ids = [run.run_id for run in runs]
        assert len(set(run_ids)) == len(run_ids)
        seeds = [run.seed for run in runs]
        assert len(set(seeds)) == len(seeds)

    def test_replicate_major_order(self):
        """Conditions interleave: condition-major order would hand the first
        condition the whole process-warm-up cost and bias every score."""
        spec = StudySpec(components=("coalescing", "compile-cache"), replicates=2)
        order = [(run.replicate, run.condition) for run in generate_runs(spec)]
        assert order == [
            (0, BASELINE),
            (0, "coalescing"),
            (0, "compile-cache"),
            (1, BASELINE),
            (1, "coalescing"),
            (1, "compile-cache"),
        ]

    def test_single_delta_conditions(self):
        spec = StudySpec(components=("coalescing",))
        runs = generate_runs(spec)
        baseline = next(r for r in runs if r.condition == BASELINE)
        ablated = next(r for r in runs if r.condition == "coalescing")
        changed = {
            f.name
            for f in dataclasses.fields(RunConfig)
            if getattr(baseline.config, f.name) != getattr(ablated.config, f.name)
        }
        assert changed == set(get_component("coalescing").ablated)

    def test_condition_seeds_deterministic(self):
        conditions = [BASELINE, "a", "b"]
        assert condition_seeds(7, conditions, 3) == condition_seeds(7, conditions, 3)
        assert condition_seeds(7, conditions, 3) != condition_seeds(8, conditions, 3)


class TestStudyRunner:
    def test_interrupt_then_resume_executes_exactly_the_missing_runs(self, tmp_path):
        """The acceptance test: kill mid-study, resume, nothing re-runs."""
        study_dir = str(tmp_path / "study")
        matrix = [run.run_id for run in generate_runs(TINY)]

        first = StudyRunner(TINY, study_dir).run(max_runs=2)  # the "kill"
        assert not first.complete
        assert len(first.executed) == 2
        assert first.remaining == matrix[2:]
        log_before = open(os.path.join(study_dir, "study.jsonl")).read()

        second = StudyRunner(TINY, study_dir).run()
        assert second.complete
        assert second.skipped == first.executed  # finished replicates skipped
        assert second.executed == first.remaining  # only the missing ran
        # The resumed log extends, never rewrites, the interrupted one.
        log_after = open(os.path.join(study_dir, "study.jsonl")).read()
        assert log_after.startswith(log_before)
        # Every matrix cell recorded exactly once.
        recorded = [
            record["run_id"]
            for record in StudyRunner(TINY, study_dir).load_records()
            if record.get("type") == "run"
        ]
        assert sorted(recorded) == sorted(matrix)
        assert len(recorded) == len(matrix)

    def test_resume_tolerates_torn_tail(self, tmp_path):
        study_dir = str(tmp_path / "study")
        StudyRunner(TINY, study_dir).run(max_runs=1)
        log_path = os.path.join(study_dir, "study.jsonl")
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "run", "run_id": "baseline/r1", "status"')  # torn
        runner = StudyRunner(TINY, study_dir)
        assert len(runner.completed_runs()) == 1  # torn line ignored
        outcome = runner.run()
        assert outcome.complete
        assert len(outcome.skipped) == 1

    def test_spec_mismatch_refused(self, tmp_path):
        study_dir = str(tmp_path / "study")
        StudyRunner(TINY, study_dir).run(max_runs=1)
        other = dataclasses.replace(TINY, replicates=3)
        with pytest.raises(ValueError, match="different spec"):
            StudyRunner(other, study_dir).run(max_runs=0)

    def test_run_records_carry_metrics(self, tmp_path):
        study_dir = str(tmp_path / "study")
        runner = StudyRunner(TINY, study_dir)
        runner.run(max_runs=1)
        (record,) = runner.completed_runs().values()
        metrics = record["metrics"]
        assert metrics["jobs_completed"] == TINY.jobs_per_replicate
        assert metrics["jobs_failed"] == 0
        assert metrics["throughput_jobs_per_s"] > 0
        assert metrics["verified_fraction"] == 1.0
        assert record["config"] == TINY.baseline_config().as_dict()

    def test_load_study_spec(self, tmp_path):
        study_dir = str(tmp_path / "study")
        assert load_study_spec(study_dir) is None
        StudyRunner(TINY, study_dir).run(max_runs=1)
        assert load_study_spec(study_dir) == TINY


class TestAnalysis:
    def test_importance_sign_conventions(self):
        records = [
            _run_record(BASELINE, {"throughput_jobs_per_s": 10.0}, 0),
            _run_record(BASELINE, {"throughput_jobs_per_s": 10.0}, 1),
            _run_record("comp", {"throughput_jobs_per_s": 5.0}, 0),
            _run_record("comp", {"throughput_jobs_per_s": 5.0}, 1),
        ]
        (row,) = component_importance(
            records, ["comp"], metric="throughput_jobs_per_s", resamples=100
        )
        # Removing the component halved throughput: it is worth half the
        # baseline, and the sign says removing it hurts.
        assert row["importance"] == pytest.approx(0.5)
        assert row["delta"] == pytest.approx(-5.0)

        records = [
            _run_record(BASELINE, {"mean_latency_ms": 10.0}, 0),
            _run_record("comp", {"mean_latency_ms": 20.0}, 0),
        ]
        (row,) = component_importance(
            records, ["comp"], metric="mean_latency_ms", resamples=100
        )
        # Latency doubled when ablated — lower-is-better flips the sign so
        # the component still scores positive.
        assert row["importance"] == pytest.approx(1.0)

    def test_importance_edge_cases(self):
        # Zero baseline: no denominator, defined as zero importance.
        records = [
            _run_record(BASELINE, {"jobs_failed": 0.0}, 0),
            _run_record("comp", {"jobs_failed": 3.0}, 0),
        ]
        (row,) = component_importance(records, ["comp"], metric="jobs_failed", resamples=50)
        assert row["importance"] == 0.0
        # Missing ablated replicates: no evidence, zero importance + CI.
        records = [_run_record(BASELINE, {"throughput_jobs_per_s": 10.0}, 0)]
        (row,) = component_importance(
            records, ["comp"], metric="throughput_jobs_per_s", resamples=50
        )
        assert row["importance"] == 0.0
        assert (row["ci_low"], row["ci_high"]) == (0.0, 0.0)
        assert row["ablated_replicates"] == 0

    def test_bootstrap_ci_degenerate_data_is_zero_width(self):
        low, high = bootstrap_ci([10.0, 10.0, 10.0], [5.0, 5.0, 5.0], "throughput_jobs_per_s")
        assert low == high == pytest.approx(0.5)

    def test_bootstrap_ci_contains_point_estimate(self):
        baseline = [10.0, 11.0, 9.0, 10.5]
        ablated = [5.0, 6.0, 4.5, 5.5]
        low, high = bootstrap_ci(baseline, ablated, "throughput_jobs_per_s", resamples=500)
        point = (sum(baseline) / 4 - sum(ablated) / 4) / (sum(baseline) / 4)
        assert low <= point <= high

    def test_condition_summary(self):
        records = [
            _run_record(BASELINE, {"x": 1.0}, 0),
            _run_record(BASELINE, {"x": 3.0}, 1),
            _run_record("comp", {"x": 9.0}, 0),
        ]
        summary = condition_summary(records, BASELINE, ["x", "missing"])
        assert summary["metrics"]["x"] == {
            "mean": pytest.approx(2.0),
            "std": pytest.approx(2.0 ** 0.5),
            "n": 2,
        }
        assert summary["metrics"]["missing"]["n"] == 0

    def test_rank_components_orders_by_magnitude(self):
        rows = [
            {"component": "small", "importance": 0.1},
            {"component": "negative", "importance": -0.9},
            {"component": "large", "importance": 0.5},
        ]
        ranked = rank_components(rows)
        assert [row["component"] for row in ranked] == ["negative", "large", "small"]
        assert [row["rank"] for row in ranked] == [1, 2, 3]

    def test_study_report_structure(self):
        spec = StudySpec(components=("coalescing",), replicates=1)
        records = [
            _run_record(BASELINE, {"throughput_jobs_per_s": 10.0}, 0),
            _run_record("coalescing", {"throughput_jobs_per_s": 8.0}, 0),
        ]
        report = study_report(spec.as_dict(), records, resamples=50)
        assert report["primary_metric"] == "throughput_jobs_per_s"
        assert report["runs_recorded"] == 2
        assert [c["condition"] for c in report["conditions"]] == [BASELINE, "coalescing"]
        assert report["ranking"][0]["component"] == "coalescing"
        assert report["ranking"][0]["importance"] == pytest.approx(0.2)


class TestSystemAblationWrapper:
    def test_runs_a_tiny_study_through_run_study(self, tmp_path):
        """The experiments wrapper must keep calling ``api.run_study`` cleanly."""
        from repro.experiments.ablations import run_system_ablation

        study_dir = str(tmp_path / "study")
        report = run_system_ablation(
            study_dir,
            components=["coalescing"],
            workloads=["dot-product"],
            replicates=1,
            jobs_per_replicate=2,
            resamples=50,
        )
        assert report["study_dir"] == study_dir
        assert report["progress"]["complete"]
        assert report["runs_recorded"] == 2
        assert [c["condition"] for c in report["conditions"]] == [BASELINE, "coalescing"]
        with pytest.raises(TypeError):
            run_system_ablation(study_dir, workers=2)
