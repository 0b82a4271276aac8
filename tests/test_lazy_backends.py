"""Backends load on first use: records as data, implementations imported late.

* A fresh interpreter imports the CLI, the daemon and the store, and serves
  one ``aria`` and one ``herodotou`` point through a store-backed service,
  without loading NumPy, the simulator, the MVA solver, ``repro.queueing``
  or Vianna's model; ``predict_batch`` then loads NumPy, and creating the
  simulator loads the simulator.
* Every built-in record declares what its implementation class declares.
* Every lazily exported package name resolves.
* Process-pool workers build backends from the records of a fresh registry
  (CI also runs this file under ``REPRO_MP_START_METHOD=spawn``).
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import PredictionService, Scenario, ScenarioSuite, create_backend
from repro.api.backends import _BUILTINS, Capability, backend_capability
from repro.api.dashboard import dashboard_grid
from repro.units import megabytes

#: What the daemon, the store and the closed-form backends must not load.
HEAVY = (
    "numpy",
    "repro.hadoop.simulator",
    "repro.hadoop.engine",
    "repro.core.mva_solver",
    "repro.queueing",
    "repro.static_models.vianna",
)

#: Run in a fresh interpreter: prints which of ``HEAVY`` each stage loaded.
PROBE = """
import json, sys

heavy, store = json.loads(sys.argv[1]), sys.argv[2]
stages = {}


def loaded():
    return [name for name in heavy if name in sys.modules]


import repro.cli, repro.serve.daemon, repro.api.store

stages["import"] = loaded()
from repro.api import PredictionService, Scenario, create_backend

service = PredictionService(["aria", "herodotou"], store=store)
scenario = Scenario(workload="wordcount", num_nodes=4, input_size_bytes=10**9)
stages["results"] = [
    service.evaluate(scenario, name).to_dict() for name in ("aria", "herodotou")
]
stages["evaluations"] = service.stats().evaluations
stages["evaluate"] = loaded()
create_backend("aria").predict_batch([scenario, scenario.with_updates(num_nodes=8)])
stages["predict_batch"] = loaded()
create_backend("simulator")
stages["simulator"] = loaded()
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
    store = tmp_path_factory.mktemp("lazy") / "store"
    completed = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(HEAVY), str(store)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout)


class TestDaemonImports:
    def test_cli_daemon_and_store_import_no_engine(self, stages):
        assert stages["import"] == []

    def test_closed_form_points_load_no_engine(self, stages):
        assert stages["evaluations"] == 2
        assert stages["evaluate"] == []

    def test_closed_form_points_are_the_in_process_results(self, stages):
        scenario = Scenario(workload="wordcount", num_nodes=4, input_size_bytes=10**9)
        assert stages["results"] == [
            create_backend(name).predict(scenario).to_dict() for name in ("aria", "herodotou")
        ]

    def test_predict_batch_loads_numpy_only(self, stages):
        assert stages["predict_batch"] == ["numpy"]

    def test_creating_the_simulator_loads_it(self, stages):
        assert "repro.hadoop.simulator" in stages["simulator"]
        assert "repro.core.mva_solver" not in stages["simulator"]


def _declarations(record: Capability, scenarios) -> tuple:
    return (
        record.version,
        record.modelled_phases,
        record.cpu_bound,
        record.supports_batch,
        [record.declines(scenario) for scenario in scenarios],
    )


class TestBuiltinRecords:
    @pytest.mark.parametrize("name", sorted(_BUILTINS))
    def test_record_agrees_with_its_class(self, name):
        record = _BUILTINS[name]
        assert isinstance(record.implementation, str)
        cls = record.load()
        assert cls.name == name
        scenarios = [
            scenario
            for grid in ("paper", "smoke", "failure")
            for scenario in dashboard_grid(grid).scenarios
        ]
        assert _declarations(Capability.of(cls), scenarios) == _declarations(
            record, scenarios
        )

    @pytest.mark.parametrize("name", sorted(_BUILTINS))
    def test_registry_serves_the_record_and_its_class(self, name):
        assert backend_capability(name) is _BUILTINS[name]
        assert type(create_backend(name)) is _BUILTINS[name].load()

    def test_unknown_names_have_no_record(self):
        assert backend_capability("no-such-backend") is None


class TestLazyExports:
    @pytest.mark.parametrize(
        "package",
        ["repro", "repro.api", "repro.core", "repro.hadoop", "repro.static_models"],
    )
    def test_every_exported_name_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None
            assert name in dir(module)
        with pytest.raises(AttributeError):
            module.no_such_name  # noqa: B018


class TestProcessWorkers:
    def test_workers_build_backends_from_records(self):
        suite = ScenarioSuite.from_sweep(
            "lazy-workers",
            Scenario(input_size_bytes=megabytes(256), num_reduces=2, repetitions=1),
            num_nodes=[2, 3],
        )
        backends = ["simulator", "aria"]
        serial = PredictionService(backends=backends, execution="serial").evaluate_suite(
            suite, backends
        )
        service = PredictionService(backends=backends, execution="process", max_workers=2)
        pooled = service.evaluate_suite(suite, backends)
        for name in backends:
            assert pooled.series(name) == serial.series(name)
        assert service.stats().pool_fallbacks == 0
