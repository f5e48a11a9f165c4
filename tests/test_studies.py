"""Tests for the study engine: specs, matrix, resumable runner, analysis.

The kill/resume acceptance tests are here: a study interrupted mid-matrix
(``max_runs`` stands in for the kill, plus a genuinely torn log tail) must
resume to completion executing exactly the missing replicates — never
re-running a finished one — for server and suite studies alike.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro import api
from repro.__main__ import main as cli_main
from repro.studies import (
    BASELINE,
    Component,
    RunConfig,
    StudyRunner,
    StudySpec,
    SuiteConfig,
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

# A tiny suite spec: two small kernels, a 64-step agent on an 8-item dataset.
TINY_SUITE = StudySpec(
    name="tiny-suite",
    kind="suite",
    components=("terminal-reward", "realistic-data"),
    workloads=("dot_product_4", "max_4"),
    replicates=2,
    base_config=SuiteConfig(train_timesteps=64, dataset_size=8),
)

#: The spec header of a study directory written before study kinds existed
#: (the committed BENCH_ablation.json of that version): it names run knobs
#: and a component this version no longer has.
OUTDATED_HEADER = {
    "name": "system-ablation",
    "components": ["coalescing", "measured-scheduler"],
    "workloads": ["dot-product", "max-tree"],
    "replicates": 3,
    "jobs_per_replicate": 10,
    "seed": 0,
    "base_config": {
        "admission": "off",
        "backend": None,
        "cache_capacity": 512,
        "coalesce": True,
        "compiler": None,
        "memoize_circuits": True,
        "prefer_measured": True,
        "workers": 2,
    },
    "primary_metric": "throughput_jobs_per_s",
    "priorities": [0, 1],
    "warmup_runs": 1,
}


def _write_header(study_dir, spec_record):
    os.makedirs(study_dir, exist_ok=True)
    with open(os.path.join(study_dir, "study.jsonl"), "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"type": "spec", "study": "old", "spec": spec_record}) + "\n")


@pytest.fixture
def agent_calls(monkeypatch):
    """Record every agent a suite run asks for, as (config fields, seed)."""
    import repro.studies.suite as suite

    calls = []
    real = suite.make_default_agent

    def recording(**kwargs):
        calls.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(suite, "make_default_agent", recording)
    return calls


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
        assert payload["kind"] == "server"
        assert payload["ablated"] == {"cache_capacity": 0}

    def test_default_matrices_are_per_kind(self):
        server, suite = default_components("server"), default_components("suite")
        assert suite == ["realistic-data", "rl-policy", "terminal-reward"]
        assert default_components() == server
        assert not set(server) & set(suite)
        assert all(get_component(name).kind == "suite" for name in suite)
        # Table 1's weight triples run on a greedy baseline: opt-in only.
        assert "weights-1-50-50" in available_components()
        assert "weights-1-50-50" not in suite

    def test_components_of_another_kind_are_rejected(self):
        with pytest.raises(ValueError, match="suite runs"):
            StudySpec(components=("rl-policy",)).component_names()
        with pytest.raises(ValueError, match="server runs"):
            StudySpec(kind="suite", components=("coalescing",)).component_names()


class TestRunConfig:
    def test_with_overrides_rejects_unknown_keys(self):
        with pytest.raises(KeyError, match="not_a_knob"):
            RunConfig().with_overrides({"not_a_knob": 1})

    def test_dict_round_trip(self):
        config = RunConfig(coalesce=False, cache_capacity=7, backend="reference")
        assert RunConfig.from_dict(config.as_dict()) == config


class TestSuiteConfig:
    def test_rl_compiler_takes_default_weights_only(self):
        with pytest.raises(ValueError, match="cost weights"):
            SuiteConfig(cost_weights=(1, 50, 50))
        weighted = SuiteConfig(compiler="greedy", cost_weights=[1, 50, 50])
        assert weighted.cost_weights == (1.0, 50.0, 50.0)

    def test_dict_round_trip(self):
        config = SuiteConfig(compiler="greedy", train_timesteps=64, cost_weights=(1, 2, 3))
        assert SuiteConfig.from_dict(json.loads(json.dumps(config.as_dict()))) == config
        with pytest.raises(KeyError, match="coalesce"):
            SuiteConfig.from_dict({"coalesce": False})


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

    def test_kind_defaults_and_validation(self):
        spec = StudySpec(kind="suite")
        assert spec.base_config == SuiteConfig()
        assert spec.primary_metric == "execution_latency_ms_geomean"
        assert "gx_3x3" in spec.workloads
        assert StudySpec().primary_metric == "throughput_jobs_per_s"
        with pytest.raises(ValueError, match="unknown study kind"):
            StudySpec(kind="cluster")
        with pytest.raises(TypeError, match="SuiteConfig"):
            StudySpec(kind="suite", base_config=RunConfig())

    def test_suite_dict_round_trip(self):
        spec = StudySpec(
            name="table1",
            kind="suite",
            components=("weights-1-50-50", "weights-1-100-100"),
            workloads=("dot_product_8", "max_4"),
            replicates=4,
            seed=3,
            base_config=SuiteConfig(train_timesteps=128, dataset_size=16),
        )
        clone = StudySpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert clone == spec
        assert clone.as_dict() == spec.as_dict()
        assert clone.baseline_config().compiler == "greedy"

    def test_a_header_without_kind_is_a_server_spec(self):
        record = TINY.as_dict()
        del record["kind"]
        assert StudySpec.from_dict(record) == TINY

    def test_conflicting_baselines_are_rejected(self):
        """rl-policy needs a chehab-rl baseline, Table 1's weights a greedy
        one: one study cannot hold both, and neither silently wins."""
        spec = StudySpec(kind="suite", components=("rl-policy", "weights-1-50-50"))
        with pytest.raises(ValueError, match="different baseline compiler"):
            spec.baseline_config()
        with pytest.raises(ValueError, match="different baseline compiler"):
            generate_runs(spec)
        # Agreeing baselines merge.
        agreeing = StudySpec(kind="suite", components=("rl-policy", "terminal-reward"))
        assert agreeing.baseline_config().compiler == "chehab-rl"


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

    def test_suite_replicate_r_has_seed_r_in_every_condition(self):
        spec = StudySpec(
            kind="suite", components=("rl-policy", "terminal-reward"), replicates=3, seed=9
        )
        runs = generate_runs(spec)
        assert len(runs) == 3 * 3
        assert all(run.seed == run.replicate for run in runs)
        greedy = next(run for run in runs if run.condition == "rl-policy")
        assert greedy.config.compiler == "greedy"

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
        assert metrics["correct_fraction"] == 1.0
        assert record["config"] == TINY.baseline_config().as_dict()

    def test_load_study_spec(self, tmp_path):
        study_dir = str(tmp_path / "study")
        assert load_study_spec(study_dir) is None
        StudyRunner(TINY, study_dir).run(max_runs=1)
        assert load_study_spec(study_dir) == TINY


class TestSuiteRunner:
    def test_every_condition_trains_replicate_r_with_seed_r(self, tmp_path, agent_calls):
        runner = StudyRunner(TINY_SUITE, str(tmp_path / "study"))
        assert runner.run().complete
        seeds = {}
        for call in agent_calls:
            condition = (call["use_terminal_reward"], call["use_random_data"])
            seeds.setdefault(condition, []).append(call["seed"])
        # baseline, step-only reward, random data: each trained seeds 0 and 1.
        assert seeds == {(True, False): [0, 1], (False, False): [0, 1], (True, True): [0, 1]}
        for record in runner.completed_runs().values():
            assert record["seed"] == record["replicate"]
            metrics = record["metrics"]
            assert metrics["correct_fraction"] == 1.0
            for key in (
                "execution_latency_ms_geomean",
                "consumed_noise_budget_geomean",
                "final_cost_geomean",
                "execution_latency_ms/dot_product_4",
                "execution_latency_ms/max_4",
            ):
                assert metrics[key] > 0

    def test_interrupt_then_resume_reruns_nothing(self, tmp_path, agent_calls):
        study_dir = str(tmp_path / "study")
        first = StudyRunner(TINY_SUITE, study_dir).run(max_runs=4)
        assert len(first.executed) == 4 and len(first.remaining) == 2
        log_path = os.path.join(study_dir, "study.jsonl")
        with open(log_path, "rb") as handle:
            persisted = handle.read()
        trained_before = len(agent_calls)

        second = StudyRunner(TINY_SUITE, study_dir).run()
        assert second.complete
        assert second.skipped == first.executed
        assert second.executed == first.remaining
        # Only the two missing replicates asked for an agent.
        assert len(agent_calls) - trained_before == 2
        with open(log_path, "rb") as handle:
            assert handle.read().startswith(persisted)

    def test_run_study_reports_suite_importance(self, tmp_path):
        report = api.run_study(
            str(tmp_path / "study"),
            kind="suite",
            components=["weights-1-50-50"],
            workloads=["dot_product_4", "max_4"],
            replicates=1,
            resamples=50,
        )
        assert report["progress"]["complete"]
        assert report["primary_metric"] == "execution_latency_ms_geomean"
        (row,) = report["ranking"]
        assert row["component"] == "weights-1-50-50"
        assert row["ci_low"] <= row["importance"] <= row["ci_high"]


class TestOutdatedStudyDirs:
    def test_outdated_header_raises_one_documented_error(self, tmp_path):
        study_dir = str(tmp_path / "old")
        _write_header(study_dir, OUTDATED_HEADER)
        with pytest.raises(ValueError, match="start a fresh --study-dir"):
            load_study_spec(study_dir)
        with pytest.raises(ValueError, match="memoize_circuits"):
            api.run_study(study_dir, resume=True)
        # A known-field header naming a deleted component fails the same way.
        record = TINY.as_dict()
        record["components"] = ["measured-scheduler"]
        _write_header(study_dir, record)
        with pytest.raises(ValueError, match="measured-scheduler.*start a fresh"):
            load_study_spec(study_dir)

    @pytest.mark.parametrize("command", ["report", "resume"])
    def test_cli_prints_the_error_and_exits_non_zero(self, tmp_path, capsys, command):
        study_dir = str(tmp_path / "old")
        _write_header(study_dir, OUTDATED_HEADER)
        assert cli_main(["study", command, "--study-dir", study_dir]) == 1
        err = capsys.readouterr().err
        assert "start a fresh --study-dir" in err
        assert "Traceback" not in err

    def test_header_without_kind_resumes_as_a_server_study(self, tmp_path):
        study_dir = str(tmp_path / "study")
        record = TINY.as_dict()
        del record["kind"]
        _write_header(study_dir, record)
        assert load_study_spec(study_dir) == TINY
        outcome = StudyRunner(TINY, study_dir).run(max_runs=1)
        assert outcome.executed == ["baseline/r0"]


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

        # A per-kernel latency follows its base metric's direction.
        records = [
            _run_record(BASELINE, {"execution_latency_ms/gx_3x3": 10.0}, 0),
            _run_record("comp", {"execution_latency_ms/gx_3x3": 15.0}, 0),
        ]
        (row,) = component_importance(
            records, ["comp"], metric="execution_latency_ms/gx_3x3", resamples=100
        )
        assert row["importance"] == pytest.approx(0.5)

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
        """``api.run_study`` runs a tiny study end to end and takes no
        worker count."""
        study_dir = str(tmp_path / "study")
        report = api.run_study(
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
            api.run_study(study_dir, workers=2)
