"""End-to-end CLI tests: every subcommand through ``main(argv)``."""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import pytest

from repro.api import PredictionService, ScenarioSuite, Scenario, backend_names
from repro.api.figures import figure_suite
from repro.api.service import DEFAULT_EXECUTION
from repro.cli import build_parser, main
from repro.exceptions import TransientError
from repro.testing.faults import FaultInjector, FaultSpec, inject_backend_faults
from repro.units import megabytes

DATA = Path(__file__).parent / "data"

#: Arguments of a small, fast scenario shared by the CLI tests.
SMALL_ARGS = [
    "--nodes", "2",
    "--input-size", "256MB",
    "--reduces", "2",
    "--repetitions", "1",
]



class _FailOnePoint(FaultInjector):
    """Fails every attempt at one ``backend:cache_key`` point, and no other."""

    def __init__(self, point: str) -> None:
        super().__init__(FaultSpec())
        self.point = point

    def fault_point(self, key: str) -> None:
        if key == self.point:
            raise TransientError(f"injected failure for {key!r}")


class TestList:
    def test_lists_figures_backends_and_workloads(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for figure_id in ("figure10", "figure15"):
            assert figure_id in output
        for backend in backend_names():
            assert backend in output
        for workload in ("wordcount", "terasort", "grep"):
            assert workload in output


class TestPredict:
    def test_default_backends_are_both_estimators(self, capsys):
        assert main(["predict", *SMALL_ARGS]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[mva-forkjoin] total=")
        assert lines[1].startswith("[mva-tripathi] total=")

    def test_explicit_backend_selection(self, capsys):
        assert main(["predict", *SMALL_ARGS, "--backend", "aria"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("[aria] total=")

    def test_unknown_backend_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", "--backend", "bogus"])
        assert excinfo.value.code == 2

    def test_invalid_size_reports_error_exit_code(self, capsys):
        assert main(["predict", "--input-size", "0GB"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCompare:
    def test_all_backends_with_errors_vs_simulator(self, capsys):
        assert main(["compare", *SMALL_ARGS]) == 0
        output = capsys.readouterr().out
        for backend in backend_names():
            assert backend in output
        # Every non-baseline backend row carries a signed relative error.
        assert output.count("%") == len(backend_names()) - 1

    def test_subset_and_custom_baseline(self, capsys):
        assert main(
            ["compare", *SMALL_ARGS, "--backend", "aria", "--baseline", "mva-forkjoin"]
        ) == 0
        output = capsys.readouterr().out
        assert "mva-forkjoin" in output and "aria" in output
        assert "simulator" not in output

    def test_declining_backends_degrade_to_declined_rows(self, capsys):
        # Under a straggler spec, vianna declines; the comparison still runs
        # and renders the decline instead of aborting.
        assert main(["compare", *SMALL_ARGS, "--straggler-frac", "0.2"]) == 0
        captured = capsys.readouterr()
        assert "vianna           declined" in captured.out
        assert "note: vianna declined:" in captured.err
        # The backends that can correct for the spec still report numbers.
        assert captured.out.count("%") == len(backend_names()) - 2

    def test_node_failure_spec_keeps_only_the_simulator(self, capsys):
        assert main(["compare", *SMALL_ARGS, "--node-failure-time", "30"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("declined") == len(backend_names()) - 1
        assert "simulator" in captured.out

    def test_declining_baseline_is_a_structured_error(self, capsys):
        assert main(
            ["compare", *SMALL_ARGS, "--straggler-frac", "0.2",
             "--backend", "aria", "--baseline", "vianna"]
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_sweep_suite_file(self, tmp_path, capsys):
        suite = ScenarioSuite.from_sweep(
            "cli-sweep",
            Scenario(input_size_bytes=megabytes(256), num_reduces=2, repetitions=1),
            num_nodes=[2, 4],
        )
        path = tmp_path / "suite.json"
        path.write_text(suite.to_json())
        assert main(["sweep", "--suite", str(path), "--backend", "mva-forkjoin"]) == 0
        output = capsys.readouterr().out
        assert "cli-sweep (2 scenarios)" in output
        assert output.count("wordcount") == 2

    def test_sweep_json_output_roundtrips(self, tmp_path, capsys):
        suite = ScenarioSuite.from_sweep(
            "cli-sweep-json",
            Scenario(input_size_bytes=megabytes(256), num_reduces=2, repetitions=1),
            num_nodes=[2],
        )
        path = tmp_path / "suite.json"
        path.write_text(suite.to_json())
        assert main(
            ["sweep", "--suite", str(path), "--backend", "aria", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        # The shared result/metadata/failed envelope every subcommand emits.
        assert set(payload) == {"result", "metadata", "failed"}
        grid = payload["result"]
        assert ScenarioSuite.from_dict(grid["suite"]) == suite
        assert grid["backends"] == ["aria"]
        assert grid["results"][0]["aria"]["total_seconds"] > 0
        assert payload["metadata"]["total_points"] == 1
        assert payload["metadata"]["evaluations"] == 1
        assert payload["failed"] == []

    def test_invalid_suite_reports_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"name\": \"x\"}")
        assert main(["sweep", "--suite", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_suite_file_reports_error_exit_code(self, tmp_path, capsys):
        assert main(["sweep", "--suite", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_plan_line_reports_memory_and_store_hits(self, tmp_path, capsys):
        suite = ScenarioSuite.from_sweep(
            "cli-sweep-plan",
            Scenario(input_size_bytes=megabytes(256), num_reduces=2, repetitions=1),
            num_nodes=[2, 3],
        )
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(suite.to_json())
        args = [
            "sweep", "--suite", str(suite_path),
            "--backend", "aria", "--store", str(tmp_path / "store"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().err
        assert (
            "sweep 'cli-sweep-plan': 2 points (2 scenarios x 1 backends), "
            "0 memory hits, 0 store hits, 2 to evaluate"
        ) in cold
        # A fresh process over the same store: both points replay from disk.
        assert main(args) == 0
        warm = capsys.readouterr().err
        assert (
            "sweep 'cli-sweep-plan': 2 points (2 scenarios x 1 backends), "
            "0 memory hits, 2 store hits, 0 to evaluate"
        ) in warm

    def test_sweep_plan_line_is_final_partition_in_process_mode(
        self, tmp_path, capsys
    ):
        # The plan is computed (store probes included) and printed *before*
        # evaluation, and the run executes exactly that plan — so the line
        # reflects the final memory/store/miss partition even in process
        # mode, where evaluation itself hops worker processes.
        suite = ScenarioSuite.from_sweep(
            "cli-plan-process",
            Scenario(input_size_bytes=megabytes(256), num_reduces=2, repetitions=1),
            num_nodes=[2, 3],
        )
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(suite.to_json())
        args = [
            "sweep", "--suite", str(suite_path),
            "--backend", "aria", "--store", str(tmp_path / "store"),
            "--execution", "process",
        ]
        assert main(args) == 0
        cold = capsys.readouterr().err
        assert (
            "sweep 'cli-plan-process': 2 points (2 scenarios x 1 backends), "
            "0 memory hits, 0 store hits, 2 to evaluate"
        ) in cold
        assert main(args) == 0
        warm = capsys.readouterr().err
        assert (
            "sweep 'cli-plan-process': 2 points (2 scenarios x 1 backends), "
            "0 memory hits, 2 store hits, 0 to evaluate"
        ) in warm

    def test_sweep_with_store_reuses_results_across_runs(self, tmp_path, capsys):
        suite = ScenarioSuite.from_sweep(
            "cli-sweep-store",
            Scenario(input_size_bytes=megabytes(256), num_reduces=2, repetitions=1),
            num_nodes=[2, 3],
        )
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(suite.to_json())
        store_path = str(tmp_path / "store")
        args = [
            "sweep", "--suite", str(suite_path),
            "--backend", "simulator", "--store", store_path,
        ]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "0 store hits" in cold.err and "2 evaluated" in cold.err
        # Second run (a fresh process in real life): answered entirely from disk.
        assert main(args) == 0
        warm = capsys.readouterr()
        assert "2 store hits" in warm.err and "0 evaluated" in warm.err
        assert warm.out == cold.out

    def test_sweep_execution_process_matches_thread(self, tmp_path, capsys):
        suite = ScenarioSuite.from_sweep(
            "cli-sweep-exec",
            Scenario(input_size_bytes=megabytes(256), num_reduces=2, repetitions=1),
            num_nodes=[2, 3],
        )
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(suite.to_json())
        outputs = {}
        for mode in ("thread", "process"):
            assert main(
                ["sweep", "--suite", str(suite_path), "--backend", "simulator",
                 "--execution", mode]
            ) == 0
            outputs[mode] = capsys.readouterr().out
        assert outputs["process"] == outputs["thread"]

    def test_execution_default_is_the_service_default(self):
        default = inspect.signature(PredictionService).parameters["execution"].default
        assert default == DEFAULT_EXECUTION
        for argv in (["predict"], ["sweep", "--suite", "suite.json"], ["dashboard"]):
            assert build_parser().parse_args(argv).execution == DEFAULT_EXECUTION

    def test_unknown_execution_mode_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", "--execution", "warp"])
        assert excinfo.value.code == 2


class TestResilienceFlags:
    @pytest.fixture
    def flaky_backend(self):
        from repro.api.backends import _REGISTRY, register_backend
        from repro.api.results import PredictionResult
        from repro.exceptions import TransientError

        @register_backend("cli-flaky-stub")
        class FlakyBackend:
            failures_per_point = 1
            calls: dict[str, int] = {}

            def predict(self, scenario):
                key = scenario.cache_key()
                seen = type(self).calls.get(key, 0)
                type(self).calls[key] = seen + 1
                if seen < type(self).failures_per_point:
                    raise TransientError("flaky")
                return PredictionResult(
                    backend=type(self).name,
                    scenario=scenario,
                    total_seconds=float(scenario.num_nodes),
                    phases={"map": 1.0},
                )

        try:
            yield FlakyBackend
        finally:
            _REGISTRY.pop("cli-flaky-stub", None)

    def _suite_path(self, tmp_path):
        suite = ScenarioSuite.from_sweep(
            "cli-resilience",
            Scenario(input_size_bytes=megabytes(256), num_reduces=2, repetitions=1),
            num_nodes=[2, 3],
        )
        path = tmp_path / "suite.json"
        path.write_text(suite.to_json())
        return str(path)

    def test_retries_recover_a_flaky_sweep(self, flaky_backend, tmp_path, capsys):
        args = [
            "sweep", "--suite", self._suite_path(tmp_path),
            "--backend", flaky_backend.name, "--retries", "2",
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "failed" not in captured.out
        assert "resilience: 2 retries, 0 failed points" in captured.err

    def test_without_retries_the_sweep_aborts(self, flaky_backend, tmp_path, capsys):
        args = [
            "sweep", "--suite", self._suite_path(tmp_path),
            "--backend", flaky_backend.name,
        ]
        assert main(args) == 2
        assert "error: flaky" in capsys.readouterr().err

    def test_on_error_record_renders_failed_cells(
        self, flaky_backend, tmp_path, capsys
    ):
        flaky_backend.failures_per_point = 99  # permanently down
        args = [
            "sweep", "--suite", self._suite_path(tmp_path),
            "--backend", flaky_backend.name, "--backend", "aria",
            "--on-error", "record",
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out.count("failed") == 2  # one cell per scenario
        assert "2 failed points" in captured.err

    def test_on_error_skip_renders_skipped_cells(
        self, flaky_backend, tmp_path, capsys
    ):
        flaky_backend.failures_per_point = 99
        args = [
            "sweep", "--suite", self._suite_path(tmp_path),
            "--backend", flaky_backend.name, "--on-error", "skip",
        ]
        assert main(args) == 0
        assert capsys.readouterr().out.count("skipped") == 2

    def test_timeout_flag_reports_failed_points(self, tmp_path, capsys):
        from repro.api.backends import _REGISTRY, register_backend
        from repro.api.results import PredictionResult

        @register_backend("cli-slow-stub")
        class SlowBackend:
            def predict(self, scenario):
                import time

                time.sleep(0.05)
                return PredictionResult(
                    backend=type(self).name, scenario=scenario, total_seconds=1.0
                )

        try:
            args = [
                "sweep", "--suite", self._suite_path(tmp_path),
                "--backend", "cli-slow-stub",
                "--timeout", "0.01", "--on-error", "record",
            ]
            assert main(args) == 0
            captured = capsys.readouterr()
            assert captured.out.count("failed") == 2
            assert "2 timeouts" in captured.err
        finally:
            _REGISTRY.pop("cli-slow-stub", None)

    def test_invalid_on_error_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["predict", "--on-error", "explode"])
        assert excinfo.value.code == 2


class TestSimulate:
    def test_simulate_prints_traces_and_summary(self, capsys):
        # simulate is a single seeded run: it takes no --repetitions flag.
        assert main(["simulate", "--nodes", "2", "--input-size", "256MB", "--reduces", "2"]) == 0
        output = capsys.readouterr().out
        assert "job 0: response" in output
        assert "mean job response time" in output
        assert "makespan" in output


class TestFigure:
    def test_figure_runs_with_one_repetition(self, capsys):
        assert main(["figure", "figure10", "--repetitions", "1", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "HadoopSetup" in output
        assert "fork-join" in output and "tripathi" in output

    def test_figure_with_store_reuses_results_across_runs(self, tmp_path, capsys):
        args = [
            "figure", "figure10", "--repetitions", "1", "--seed", "3",
            "--store", str(tmp_path / "store"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "9 evaluated" in cold.err  # 3 points x 3 backends
        assert main(args) == 0
        warm = capsys.readouterr()
        assert "9 store hits" in warm.err and "0 evaluated" in warm.err
        assert warm.out == cold.out

    @pytest.mark.parametrize("figure_id", ["figure10", "figure14"])
    def test_figure_prints_the_recorded_bytes(self, figure_id, capsys):
        """The table, plot and error lines are the committed ones, byte for byte."""
        args = ["figure", figure_id, "--repetitions", "1", "--seed", "3", "--plot"]
        assert main(args) == 0
        expected = (DATA / f"{figure_id}_plot.txt").read_text()
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("on_error", ["skip", "record"])
    def test_a_failed_point_leaves_a_gap_and_is_counted(self, on_error, capsys):
        """One simulator point fails: the figure prints what it has."""
        target = figure_suite("figure10", repetitions=1, base_seed=3).scenarios[0]
        injector = _FailOnePoint(f"simulator:{target.cache_key()}")
        args = [
            "figure", "figure10", "--repetitions", "1", "--seed", "3",
            "--plot", "--on-error", on_error,
        ]
        with inject_backend_faults("simulator", injector):
            assert main(args) == 0
        output = capsys.readouterr().out
        expected = (DATA / "figure10_plot.txt").read_text().splitlines()
        lines = output.splitlines()
        # The failed measurement reads nan; every other cell is as recorded.
        assert lines[3].split() == ["4.0", "nan", *expected[3].split()[2:]]
        assert lines[:3] + lines[4:6] == expected[:3] + expected[4:6]
        assert "".join(lines[8:20]).count("o") == 2  # the plot's grid rows
        # Both estimators are scored on the two measured points.
        assert lines[-3:] == [
            "fork-join: mean |error| = 18.6%, max |error| = 19.4%",
            "tripathi: mean |error| = 14.1%, max |error| = 15.0%",
            "incomplete: 1 of 9 points missing",
        ]


class TestPlan:
    PLAN_ARGS = [
        "plan", "--input-size", "5GB", "--jobs", "4",
        "--deadline", "400", "--plan-nodes", "2:16:2",
    ]

    def test_plan_finds_optimum_and_prints_table(self, capsys):
        assert main(self.PLAN_ARGS) == 0
        output = capsys.readouterr().out
        assert "best: 8 nodes" in output
        assert "coarse" in output and "refine" in output
        assert "violates deadline" in output

    def test_plan_json_emits_shared_envelope(self, capsys):
        assert main([*self.PLAN_ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"result", "metadata", "failed"}
        assert payload["result"]["best"]["point"]["num_nodes"] == 8
        assert payload["metadata"]["feasible"] is True
        assert payload["metadata"]["evaluations"] <= payload["metadata"]["budget"]
        assert payload["failed"] == []

    def test_infeasible_plan_exits_one(self, capsys):
        assert main([
            "plan", "--input-size", "256MB", "--plan-nodes", "2,4",
            "--deadline", "0.001",
        ]) == 1
        assert "no feasible plan" in capsys.readouterr().out

    def test_plan_store_resumes_with_zero_live_evaluations(self, tmp_path, capsys):
        args = [*self.PLAN_ARGS, "--json", "--store", str(tmp_path / "store")]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert cold["metadata"]["evaluations"] > 0
        assert warm["metadata"]["evaluations"] == 0
        # The auditable search record is bit-identical across cold and warm.
        assert warm["result"] == cold["result"]

    def test_invalid_axis_reports_error_exit_code(self, capsys):
        assert main(["plan", "--plan-nodes", "banana"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_numeric_knobs_announce_defaults_in_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["plan", "--help"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert "(default: 64)" in output      # --max-evaluations
        assert "(default: 2.5)" in output     # --straggler-slowdown
        assert "(default: min-cost)" in output
