"""Tests of the workload subsystem and the satellite fixes riding along.

Covers the workload registry (``@register_workload``, factories with
options, the ``Workload`` model and its Benchmark adapter), the built-in
suites (Coyote/Porcupine kernels, tree ensembles, the IR-lowered NN linear
layer and its autograd oracle), the mixed-traffic load generator (schedule
determinism, server-vs-direct bit-identical outputs, telemetry-derived
coalescing and latency reporting), the ``run_workload``/``list_workloads``
facade + CLI, ``BenchmarkRunner.run_workloads``, and the decorrelated
batch-seed derivation of ``api.execute_batch``.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro import api
from repro.__main__ import main as cli_main
from repro.experiments.harness import BenchmarkRunner
from repro.workloads import (
    Arrival,
    MixEntry,
    Workload,
    available_workloads,
    benchmark_workloads,
    build_workload,
    default_mix,
    generate_schedule,
    get_workload,
    register_workload,
    run_direct_traffic,
    run_server_traffic,
    workload_info,
)
from repro.workloads.neural import quantized_linear_weights


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestWorkloadRegistry:
    def test_builtins_registered(self):
        names = set(available_workloads())
        assert {
            "matrix-multiply",
            "max-tree",
            "sort-network",
            "dot-product",
            "box-blur",
            "l2-distance",
            "hamming-distance",
            "tree-ensemble",
            "nn-linear",
        } <= names

    def test_factory_options_parameterize(self):
        small = build_workload("dot-product", size=4)
        large = build_workload("dot-product", size=16)
        assert small.name == "dot_product_4"
        assert large.name == "dot_product_16"
        assert len(large.input_names) == 32

    def test_info_carries_suite_and_description(self):
        info = workload_info("nn-linear")
        assert info.suite == "nn"
        assert info.description
        assert info.build().description == info.description

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="dot-product"):
            build_workload("no-such-workload")

    def test_get_workload_normalizes(self):
        built = build_workload("max-tree")
        assert get_workload(built) is built
        assert get_workload("max-tree").name == built.name
        with pytest.raises(ValueError, match="instance"):
            get_workload(built, size=5)
        with pytest.raises(TypeError):
            get_workload(42)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_workload("dot-product")(lambda: None)


# ---------------------------------------------------------------------------
# the workload model
# ---------------------------------------------------------------------------
class TestWorkloadModel:
    def test_sample_inputs_follow_the_facade_contract(self):
        workload = build_workload("l2-distance")
        assert workload.sample_inputs(11) == api.sample_named_inputs(
            workload.input_names, 11, workload.input_range
        )

    def test_hamming_inputs_are_binary(self):
        workload = build_workload("hamming-distance")
        for seed in range(5):
            assert set(workload.sample_inputs(seed).values()) <= {0, 1}

    def test_expected_defaults_to_reference(self):
        workload = build_workload("box-blur")
        inputs = workload.sample_inputs(2)
        assert workload.expected(inputs) == workload.reference(inputs)

    def test_as_benchmark_samples_and_references_identically(self):
        workload = build_workload("matrix-multiply")
        benchmark = workload.as_benchmark()
        assert benchmark.name == workload.name
        assert benchmark.input_names == workload.input_names
        inputs = benchmark.sample_inputs(seed=4)
        assert inputs == workload.sample_inputs(4)
        assert benchmark.reference(inputs) == workload.reference(inputs)

    def test_every_builtin_executes_correctly(self):
        for name in available_workloads():
            outcome = api.run_workload(name, batch=2, seed=1)
            assert outcome.all_correct, name
            assert outcome.oracle_correct, name
            assert outcome.outcome.batch_size == 2


# ---------------------------------------------------------------------------
# the NN layer lowered through the IR
# ---------------------------------------------------------------------------
class TestNeuralWorkload:
    def test_oracle_agrees_with_reference_evaluation(self):
        workload = build_workload("nn-linear", in_features=5, out_features=3, seed=2)
        for seed in range(6):
            inputs = workload.sample_inputs(seed)
            assert workload.oracle(inputs) == workload.reference(inputs)

    def test_weights_are_deterministic(self):
        first = quantized_linear_weights(4, 2, seed=0)
        second = quantized_linear_weights(4, 2, seed=0)
        assert (first[0] == second[0]).all() and (first[1] == second[1]).all()

    def test_circuit_matches_the_autograd_forward_pass(self):
        workload = build_workload("nn-linear")
        outcome = api.run_workload(workload, batch=4, seed=3, backend="vector-vm")
        assert outcome.all_correct and outcome.oracle_correct
        # The oracle is the independent check: outputs came from the nn stack.
        assert outcome.expected == outcome.outcome.outputs

    def test_validation(self):
        with pytest.raises(ValueError, match="feature"):
            build_workload("nn-linear", in_features=0)


class TestTreeEnsemble:
    def test_ensemble_sums_member_trees(self):
        single = build_workload("tree-ensemble", trees=1, depth=3)
        pair = build_workload("tree-ensemble", trees=2, depth=3)
        inputs = pair.sample_inputs(0)
        single_inputs = {k: inputs.get(k, 0) for k in single.input_names}
        assert single.reference(single_inputs)
        assert pair.reference(inputs)  # both evaluate end to end

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one tree"):
            build_workload("tree-ensemble", trees=0)


# ---------------------------------------------------------------------------
# decorrelated batch seeds (the api.execute_batch fix)
# ---------------------------------------------------------------------------
class TestBatchSeedDerivation:
    def test_adjacent_base_seeds_share_nothing(self):
        first = api.derive_batch_seeds(0, 32)
        second = api.derive_batch_seeds(1, 32)
        assert len(set(first)) == 32 and len(set(second)) == 32
        assert not set(first) & set(second)

    def test_deterministic_and_prefix_stable(self):
        assert api.derive_batch_seeds(7, 16) == api.derive_batch_seeds(7, 16)
        assert api.derive_batch_seeds(7, 16)[:8] == api.derive_batch_seeds(7, 8)

    def test_count_validation(self):
        assert api.derive_batch_seeds(0, 0) == []
        with pytest.raises(ValueError, match="non-negative"):
            api.derive_batch_seeds(0, -1)

    def test_execute_batch_draws_through_derived_seeds(self):
        source = "(* (+ a b) (+ c d))"
        batch = api.execute_batch(source, batch=5, seed=9, backend="vector-vm")
        expected = [
            api.sample_named_inputs(["a", "b", "c", "d"], item_seed)
            for item_seed in api.derive_batch_seeds(9, 5)
        ]
        assert batch.inputs == expected
        assert batch.all_correct

    def test_adjacent_batches_no_longer_overlap(self):
        """The regression: seed=0 and seed=1 used to share 31 of 32 sets."""
        workload = build_workload("dot-product")  # 16 input variables
        batch_zero = api.run_workload(workload, batch=32, seed=0).outcome.inputs
        batch_one = api.run_workload(workload, batch=32, seed=1).outcome.inputs
        shared = [inputs for inputs in batch_zero if inputs in batch_one]
        assert not shared


# ---------------------------------------------------------------------------
# the traffic generator
# ---------------------------------------------------------------------------
class TestTrafficSchedule:
    def test_deterministic_per_seed(self):
        first = generate_schedule(default_mix(), 20, seed=3)
        second = generate_schedule(default_mix(), 20, seed=3)
        assert [a.workload.name for a in first] == [a.workload.name for a in second]
        assert [a.seed for a in first] == [a.seed for a in second]
        different = generate_schedule(default_mix(), 20, seed=4)
        assert [a.seed for a in first] != [a.seed for a in different]

    def test_burst_and_open_loop_arrival_times(self):
        burst = generate_schedule(default_mix(), 10, seed=0)
        assert all(arrival.at_s == 0.0 for arrival in burst)
        timed = generate_schedule(default_mix(), 10, seed=0, rate=1000.0)
        times = [arrival.at_s for arrival in timed]
        assert times == sorted(times) and times[0] > 0.0

    def test_mix_weights_and_overrides(self):
        mix = [
            MixEntry("dot-product", weight=1.0, priority=3, backend="reference"),
            MixEntry("max-tree", weight=1.0, compiler="initial"),
        ]
        schedule = generate_schedule(mix, 12, seed=0)
        for arrival in schedule:
            if arrival.entry.workload == "dot-product":
                assert arrival.backend == "reference"
                assert arrival.entry.priority == 3
            else:
                assert arrival.compiler == "initial"
                assert arrival.backend == arrival.workload.backend

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one job"):
            generate_schedule(default_mix(), 0)
        with pytest.raises(ValueError, match="empty"):
            generate_schedule([], 4)
        with pytest.raises(ValueError, match="positive"):
            generate_schedule([MixEntry("dot-product", weight=0.0)], 4)
        with pytest.raises(ValueError, match="rate"):
            generate_schedule(default_mix(), 4, rate=0.0)


class TestTrafficRuns:
    @pytest.fixture(scope="class")
    def small_schedule(self):
        return generate_schedule(default_mix(), 16, seed=1)

    def test_server_and_direct_paths_are_bit_identical(self, small_schedule):
        server = run_server_traffic(small_schedule)
        direct = run_direct_traffic(small_schedule)
        assert server.outputs == direct.outputs
        assert server.correct == server.jobs == 16
        assert direct.correct == direct.jobs == 16
        assert not server.oracle_mismatches and not direct.oracle_mismatches
        assert sum(server.per_workload.values()) == 16
        assert server.per_workload == direct.per_workload

    def test_server_report_carries_telemetry(self, small_schedule):
        report = run_server_traffic(small_schedule)
        assert report.coalescing["batches_coalesced"] > 0
        assert 0.0 < report.coalescing["job_coalescing_rate"] <= 1.0
        assert report.histogram("job_wait_s")["count"] == 16
        assert report.histogram("job_run_s")["count"] == 16
        assert report.throughput_jobs_per_s > 0.0
        payload = report.as_dict()
        assert json.dumps(payload)  # JSON-serializable by construction
        assert payload["coalescing"]["batches_total"] > 0

    def test_open_loop_schedule_completes(self):
        schedule = generate_schedule(default_mix(), 6, seed=5, rate=500.0)
        with pytest.raises(TypeError, match="workers"):
            run_server_traffic(schedule, workers=2)
        report = run_server_traffic(schedule)
        assert report.correct == report.jobs == 6
        direct = run_direct_traffic(schedule)
        assert report.outputs == direct.outputs

    def test_reuses_an_existing_server(self, small_schedule):
        from repro.server import JobServer

        server = JobServer()
        try:
            report = run_server_traffic(small_schedule[:4], server=server)
            assert report.correct == 4
            assert server.telemetry.snapshot()["counters"]["jobs_completed"] == 4
        finally:
            server.close()

    def test_priorities_reach_the_server_jobs(self):
        mix = [MixEntry("nn-linear", weight=1.0, priority=7)]
        schedule = generate_schedule(mix, 3, seed=0)
        from repro.server import JobServer

        server = JobServer()
        try:
            run_server_traffic(schedule, server=server)
            rows = server.jobs()
            assert {row["priority"] for row in rows} == {7}
        finally:
            server.close()


# ---------------------------------------------------------------------------
# facade + CLI + harness wiring
# ---------------------------------------------------------------------------
class TestWorkloadApi:
    def test_list_workloads_rows(self):
        rows = api.list_workloads()
        names = {row["name"] for row in rows}
        assert "nn-linear" in names and "tree-ensemble" in names
        nn_row = next(row for row in rows if row["name"] == "nn-linear")
        assert nn_row["has_oracle"] is True
        assert nn_row["compiler"] and nn_row["backend"]

    def test_run_workload_defaults_and_overrides(self):
        outcome = api.run_workload("max-tree", batch=3, seed=2)
        assert outcome.outcome.backend == "vector-vm"  # workload default
        overridden = api.run_workload("max-tree", batch=2, backend="reference")
        assert overridden.outcome.backend == "reference"
        assert overridden.all_correct

    def test_run_workload_cost_sim_is_vacuously_correct(self):
        outcome = api.run_workload("dot-product", batch=2, backend="cost-sim")
        assert not outcome.outcome.verified
        assert outcome.oracle_correct  # vacuous, by contract

    def test_facade_exports(self):
        assert repro.run_workload is api.run_workload
        assert repro.list_workloads is api.list_workloads
        assert repro.derive_batch_seeds is api.derive_batch_seeds
        assert repro.sample_named_inputs is api.sample_named_inputs

    def test_benchmark_runner_runs_workloads(self):
        runner = BenchmarkRunner({"greedy": "greedy"}, backend="vector-vm")
        rows = runner.run_workloads(["dot-product", "nn-linear"])
        assert [row.benchmark for row in rows] == ["dot_product_8", "nn_linear_4x2"]
        assert all(row.correct for row in rows)

    def test_benchmark_runner_server_mode_matches_direct(self):
        from repro.server import JobServer

        direct_rows = BenchmarkRunner({"greedy": "greedy"}, backend="vector-vm").run_workloads(
            ["l2-distance"]
        )
        server = JobServer(backend="vector-vm")
        try:
            server_rows = BenchmarkRunner(
                {"greedy": "greedy"}, backend="vector-vm", server=server
            ).run_workloads(["l2-distance"])
        finally:
            server.close()
        def stable(row):  # drop wall-clock fields; everything else matches
            fields = row.as_dict()
            fields.pop("compile_time_s")
            return fields

        assert [stable(row) for row in direct_rows] == [
            stable(row) for row in server_rows
        ]


class TestWorkloadCli:
    def test_workloads_lists_registry(self, capsys):
        assert cli_main(["workloads"]) == 0
        output = capsys.readouterr().out
        assert "nn-linear" in output and "tree-ensemble" in output

    def test_workloads_runs_one(self, capsys):
        assert cli_main(
            ["workloads", "dot-product", "--batch", "2", "--option", "size=4"]
        ) == 0
        output = capsys.readouterr().out
        assert "dot_product_4" in output
        assert "verified     : OK" in output
        assert "oracle       : OK" in output

    def test_workloads_unknown_name_raises(self):
        with pytest.raises(KeyError, match="no-such"):
            cli_main(["workloads", "no-such-workload"])


# ---------------------------------------------------------------------------
# the benchmark payload
# ---------------------------------------------------------------------------
class TestBenchmarkWorkloads:
    def test_small_payload_covers_and_agrees(self):
        payload = benchmark_workloads(
            names=["dot-product", "nn-linear"],
            backends=("vector-vm",),
            batch=3,
            traffic_jobs=8,
        )
        assert payload["version"] == repro.__version__
        rows = payload["per_workload"]
        assert {row["workload"] for row in rows} == {"dot_product_8", "nn_linear_4x2"}
        for row in rows:
            assert row["server_bit_identical"] and row["all_correct"]
            assert row["oracle_correct"] is True
        traffic = payload["mixed_traffic"]
        assert traffic["bit_identical"]
        assert traffic["server"]["jobs"] == 8
        assert json.dumps(payload)  # committed artifact must be serializable

    def test_committed_artifact_is_current(self):
        """BENCH_workloads.json (the committed artifact) matches the format
        and coverage bars the acceptance criteria name."""
        with open("BENCH_workloads.json", "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        rows = payload["per_workload"]
        assert len({row["workload"] for row in rows}) >= 5
        assert {row["backend"] for row in rows} >= {"reference", "vector-vm"}
        assert all(row["server_bit_identical"] for row in rows)
        assert all(row["all_correct"] for row in rows)
        assert payload["mixed_traffic"]["bit_identical"]
        assert payload["version"] == repro.__version__
