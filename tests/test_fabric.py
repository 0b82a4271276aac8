"""Cooperative sweep fabric tests: leases, cooperative draining, chaos.

The fabric's one promise: *k* workers pointed at one store path drain one
grid together, with zero duplicate evaluations while everyone is alive, and
with crashed workers' points returning to the pool after one lease TTL.
These tests cover the claim/lease protocol in isolation (atomicity, expiry,
takeover, the loser's ledger), the cooperative scheduler built on it, the
chaos case (a worker abandons its claims mid-sweep), and the CLI surface
(``sweep --worker-id``, ``repro store gc`` / ``info``).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import (
    CooperativeOutcome,
    PredictionService,
    Scenario,
    ScenarioSuite,
    SweepScheduler,
)
from repro.api.backends import _REGISTRY
from repro.api.store import LEASES_DIR, open_store
from repro.api.store.leases import LEASE_SUFFIX, LeaseManager
from repro.cli import main
from repro.exceptions import ValidationError
from repro.testing.faults import FaultInjector, FaultSpec, inject_backend_faults
from repro.units import megabytes

#: Small, fast scenario the fabric tests sweep over.
SMALL = Scenario(
    workload="wordcount",
    input_size_bytes=megabytes(256),
    num_nodes=2,
    num_reduces=2,
    repetitions=1,
    seed=17,
)

#: Cheap registered backend used by every cooperative sweep here.
BACKEND = "herodotou"

#: A store written by the retired sharded-JSON engine (see ``tests/test_store.py``).
LEGACY_STORE = Path(__file__).parent / "data" / "legacy-json-store"

TOKEN = "deadbeef" * 8


def _suite(nodes) -> ScenarioSuite:
    return ScenarioSuite.from_sweep("fabric", SMALL, num_nodes=list(nodes))


def _service(store_path) -> PredictionService:
    return PredictionService(backends=[BACKEND], store=store_path)


class TestLeaseManager:
    def test_claim_is_exclusive(self, tmp_path):
        first = LeaseManager(tmp_path, "w1", ttl=60.0)
        second = LeaseManager(tmp_path, "w2", ttl=60.0)
        assert first.try_claim(TOKEN)
        assert not second.try_claim(TOKEN)
        assert first.held() == [TOKEN]
        assert second.held() == []
        info = second.read(TOKEN)
        assert info.worker == "w1"
        assert not info.expired()

    def test_reclaiming_an_owned_lease_is_idempotent(self, tmp_path):
        manager = LeaseManager(tmp_path, "w1", ttl=60.0)
        assert manager.try_claim(TOKEN)
        assert manager.try_claim(TOKEN)
        assert manager.held() == [TOKEN]

    def test_release_frees_the_point(self, tmp_path):
        first = LeaseManager(tmp_path, "w1", ttl=60.0)
        second = LeaseManager(tmp_path, "w2", ttl=60.0)
        assert first.try_claim(TOKEN)
        first.release(TOKEN)
        assert first.held() == []
        assert second.read(TOKEN) is None
        assert second.try_claim(TOKEN)

    def test_expired_lease_is_taken_over(self, tmp_path):
        crashed = LeaseManager(tmp_path, "crashed", ttl=0.05)
        assert crashed.try_claim(TOKEN)
        time.sleep(0.12)  # let the claim lapse, as a dead worker's would
        survivor = LeaseManager(tmp_path, "survivor", ttl=60.0)
        assert survivor.try_claim(TOKEN)
        assert survivor.read(TOKEN).worker == "survivor"
        # The takeover's tombstone was cleaned up: one claim file remains.
        lease_files = [
            name for name in os.listdir(tmp_path) if name.endswith(LEASE_SUFFIX)
        ]
        assert lease_files == [f"{TOKEN}{LEASE_SUFFIX}"]

    def test_loser_learns_of_the_takeover_on_renew(self, tmp_path):
        loser = LeaseManager(tmp_path, "loser", ttl=0.05)
        assert loser.try_claim(TOKEN)
        time.sleep(0.12)
        winner = LeaseManager(tmp_path, "winner", ttl=60.0)
        assert winner.try_claim(TOKEN)
        assert not loser.renew(TOKEN)
        assert TOKEN in loser.lost
        assert loser.held() == []
        # The loser's release must not clobber the new owner's claim.
        loser.release(TOKEN)
        assert winner.read(TOKEN).worker == "winner"

    def test_live_lease_cannot_be_stolen(self, tmp_path):
        owner = LeaseManager(tmp_path, "owner", ttl=60.0)
        assert owner.try_claim(TOKEN)
        challenger = LeaseManager(tmp_path, "challenger", ttl=60.0)
        assert not challenger.try_claim(TOKEN)
        assert owner.read(TOKEN).worker == "owner"

    def test_renew_advances_the_expiry(self, tmp_path):
        manager = LeaseManager(tmp_path, "w1", ttl=60.0)
        assert manager.try_claim(TOKEN)
        before = manager.read(TOKEN)
        time.sleep(0.02)
        assert manager.renew(TOKEN)
        after = manager.read(TOKEN)
        assert after.renewed > before.renewed
        assert after.acquired == pytest.approx(before.acquired)
        assert after.worker == "w1"

    def test_unparseable_claim_counts_as_live_until_its_mtime_expires(self, tmp_path):
        """Torn claim files block claiming (safe) but still age out (live)."""
        manager = LeaseManager(tmp_path, "w1", ttl=1000.0)
        path = tmp_path / f"{TOKEN}{LEASE_SUFFIX}"
        tmp_path.mkdir(parents=True, exist_ok=True)
        path.write_text("{torn bytes")
        info = manager.read(TOKEN)
        assert info.worker == "?"
        assert not manager.try_claim(TOKEN)  # treated as a live peer's claim
        # Once the file's mtime is older than the TTL, it is dead and stealable.
        past = time.time() - 2000.0
        os.utime(path, (past, past))
        assert manager.try_claim(TOKEN)
        assert manager.read(TOKEN).worker == "w1"

    def test_heartbeat_keeps_leases_alive(self, tmp_path):
        owner = LeaseManager(tmp_path, "owner", ttl=1.0)
        challenger = LeaseManager(tmp_path, "challenger", ttl=1.0)
        assert owner.try_claim(TOKEN)
        with owner.heartbeat(interval=0.1):
            time.sleep(1.5)  # well past the TTL: only the heartbeat saves it
            assert not challenger.try_claim(TOKEN)
        # Without the heartbeat the lease lapses and is taken over.
        time.sleep(1.2)
        assert challenger.try_claim(TOKEN)

    def test_scan_reports_every_claim(self, tmp_path):
        first = LeaseManager(tmp_path, "w1", ttl=60.0)
        second = LeaseManager(tmp_path, "w2", ttl=60.0)
        assert first.try_claim("a" * 8)
        assert second.try_claim("b" * 8)
        infos = first.scan()
        assert [(info.token, info.worker) for info in infos] == [
            ("a" * 8, "w1"),
            ("b" * 8, "w2"),
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"worker_id": ""},
            {"worker_id": "a/b"},
            {"worker_id": "ok", "ttl": 0.0},
            {"worker_id": "ok", "ttl": -1.0},
        ],
    )
    def test_constructor_validation(self, tmp_path, kwargs):
        with pytest.raises(ValidationError):
            LeaseManager(tmp_path, **kwargs)

    def test_token_and_heartbeat_validation(self, tmp_path):
        manager = LeaseManager(tmp_path, "w1", ttl=60.0)
        with pytest.raises(ValidationError):
            manager.try_claim("bad/token")
        with pytest.raises(ValidationError):
            with manager.heartbeat(interval=0.0):
                pass


class TestCooperativePlan:
    def test_plan_partitions_peer_held_points(self, tmp_path):
        suite = _suite([2, 3, 4])
        service = _service(tmp_path / "store")
        scheduler = SweepScheduler(service)
        # One point already answered; one point claimed by a live peer.
        service.evaluate(suite.scenarios[0], BACKEND)
        peer = service.store.lease_manager("peer", ttl=60.0)
        peer_token = service.point_token(suite.scenarios[1].cache_key(), BACKEND)
        assert peer.try_claim(peer_token)
        mine = service.store.lease_manager("me", ttl=60.0)
        plan = scheduler.plan(suite, [BACKEND], leases=mine)
        assert len(plan.memory_hits) == 1
        assert plan.leased == ((1, BACKEND),)
        assert plan.missing == ((2, BACKEND),)
        assert "1 leased to peers" in plan.describe()

    def test_own_and_expired_claims_stay_missing(self, tmp_path):
        suite = _suite([2, 3])
        service = _service(tmp_path / "store")
        scheduler = SweepScheduler(service)
        mine = service.store.lease_manager("me", ttl=60.0)
        assert mine.try_claim(service.point_token(suite.scenarios[0].cache_key(), BACKEND))
        dead = service.store.lease_manager("dead", ttl=0.05)
        assert dead.try_claim(service.point_token(suite.scenarios[1].cache_key(), BACKEND))
        time.sleep(0.12)  # the peer's claim lapses; mine is my own
        plan = scheduler.plan(suite, [BACKEND], leases=mine)
        assert plan.leased == ()
        assert len(plan.missing) == 2
        assert "leased" not in plan.describe()


class TestRunCooperative:
    def test_requires_a_store_backed_service(self):
        scheduler = SweepScheduler(PredictionService(backends=[BACKEND]))
        with pytest.raises(ValidationError):
            scheduler.run_cooperative(_suite([2]), [BACKEND], worker_id="w1")

    def test_single_worker_drains_the_grid(self, tmp_path):
        suite = _suite([2, 3, 4])
        service = _service(tmp_path / "store")
        outcome = SweepScheduler(service).run_cooperative(
            suite, [BACKEND], worker_id="solo", lease_ttl=5.0
        )
        assert isinstance(outcome, CooperativeOutcome)
        assert outcome.worker_id == "solo"
        assert outcome.evaluated == 3
        assert outcome.claimed == 3
        assert outcome.failed == 0
        assert outcome.lost == 0
        assert all(value > 0 for value in outcome.result.series(BACKEND))
        assert "worker 'solo': 3 evaluated of 3 claimed" in outcome.describe()
        # Every claim was released once its result was durably stored.
        assert service.store.lease_manager("observer").scan() == []

    def test_workers_share_the_grid_with_zero_duplicates(self, tmp_path):
        suite = _suite([2, 3, 4, 5, 6, 7])
        store_path = tmp_path / "store"
        with inject_backend_faults(BACKEND, FaultSpec(seed=7)) as injector:
            services = [_service(store_path) for _ in range(3)]
            outcomes: dict[str, CooperativeOutcome] = {}
            errors: list[BaseException] = []

            def drain(worker_id: str, service: PredictionService) -> None:
                try:
                    outcomes[worker_id] = SweepScheduler(service).run_cooperative(
                        suite,
                        [BACKEND],
                        worker_id=worker_id,
                        lease_ttl=5.0,
                        poll_interval=0.02,
                    )
                except BaseException as exc:  # noqa: BLE001 — surfaced via the list
                    errors.append(exc)

            threads = [
                threading.Thread(target=drain, args=(f"w{i}", service))
                for i, service in enumerate(services)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert len(outcomes) == 3
        # The fabric promise: the union of the workers' work is exactly the
        # grid — every point evaluated once, by exactly one worker.
        assert sum(outcome.evaluated for outcome in outcomes.values()) == 6
        assert injector.duplicate_evaluations() == 0
        for outcome in outcomes.values():
            assert all(value > 0 for value in outcome.result.series(BACKEND))
            assert outcome.failed == 0
        assert not list((store_path / LEASES_DIR).glob(f"*{LEASE_SUFFIX}"))

    def test_claim_limit_caps_each_round(self, tmp_path):
        suite = _suite([2, 3, 4])
        service = _service(tmp_path / "store")
        outcome = SweepScheduler(service).run_cooperative(
            suite, [BACKEND], worker_id="paced", lease_ttl=5.0, claim_limit=1
        )
        assert outcome.evaluated == 3
        # One claim per round, plus the final round that finds the grid done.
        assert outcome.rounds == 4
        with pytest.raises(ValidationError):
            SweepScheduler(service).run_cooperative(
                suite, [BACKEND], worker_id="paced", claim_limit=0
            )

    def test_points_answered_in_the_plan_claim_window_are_not_recounted(
        self, tmp_path, monkeypatch
    ):
        """A point a peer completes between our plan and our claim is yielded.

        Claims outlive plans: a worker can win a lease on a point whose
        record a peer persisted (and whose lease the peer released) after
        the worker's plan was computed.  Evaluating it would be a store hit
        — not duplicate work — but it must not count as this worker's
        *evaluated* share, or k workers' shares sum past the grid size.
        Deterministic reproduction: the first ``try_claim`` is intercepted
        and a peer drains the whole grid (plain, lease-free ``run``) before
        the claim proceeds.
        """
        suite = _suite([2, 3])
        store_path = tmp_path / "store"
        real_try_claim = LeaseManager.try_claim
        raced = []

        def racing_try_claim(self, token):
            if not raced:
                raced.append(token)
                SweepScheduler(_service(store_path)).run(suite, [BACKEND])
            return real_try_claim(self, token)

        monkeypatch.setattr(LeaseManager, "try_claim", racing_try_claim)
        with inject_backend_faults(BACKEND, FaultSpec(seed=11)) as injector:
            outcome = SweepScheduler(_service(store_path)).run_cooperative(
                suite, [BACKEND], worker_id="late", lease_ttl=5.0
            )
        assert raced  # the race actually fired
        # The peer did all the work; the late worker yielded every claim.
        assert outcome.evaluated == 0
        assert outcome.claimed == 0
        assert injector.duplicate_evaluations() == 0
        # The yielded leases were released, not stranded.
        assert not list((store_path / LEASES_DIR).glob(f"*{LEASE_SUFFIX}"))
        assert all(value > 0 for value in outcome.result.series(BACKEND))

    def test_terminally_failing_points_do_not_livelock(self, tmp_path):
        suite = _suite([2, 3])
        with inject_backend_faults(BACKEND, FaultSpec(transient_rate=1.0, seed=3)):
            service = _service(tmp_path / "store")
            outcome = SweepScheduler(service).run_cooperative(
                suite, [BACKEND], worker_id="w1", lease_ttl=5.0, on_error="record"
            )
        # Every point failed terminally; the loop remembered them instead of
        # re-claiming forever, and the outcome reports the failures.
        assert outcome.evaluated == 0
        assert outcome.failed == 2
        assert outcome.claimed >= 2


class TestFabricChaos:
    def test_abandoned_claims_expire_and_the_grid_completes(self, tmp_path):
        """A worker that dies mid-claim cannot strand its points.

        The "crash" is a worker that claims two points and simply never
        heartbeats, evaluates, or releases — exactly what a SIGKILL leaves
        behind.  The survivors must wait out one TTL, take the claims over,
        and finish the grid with zero duplicate evaluations.
        """
        suite = _suite([2, 3, 4, 5])
        store_path = tmp_path / "store"
        with inject_backend_faults(BACKEND, FaultSpec(seed=11)) as injector:
            services = [_service(store_path) for _ in range(2)]
            crashed = services[0].store.lease_manager("crashed", ttl=0.6)
            for scenario in suite.scenarios[:2]:
                assert crashed.try_claim(
                    services[0].point_token(scenario.cache_key(), BACKEND)
                )
            outcomes: dict[str, CooperativeOutcome] = {}
            errors: list[BaseException] = []

            def drain(worker_id: str, service: PredictionService) -> None:
                try:
                    outcomes[worker_id] = SweepScheduler(service).run_cooperative(
                        suite,
                        [BACKEND],
                        worker_id=worker_id,
                        lease_ttl=0.6,
                        poll_interval=0.05,
                    )
                except BaseException as exc:  # noqa: BLE001 — surfaced via the list
                    errors.append(exc)

            threads = [
                threading.Thread(target=drain, args=(f"w{i}", service))
                for i, service in enumerate(services)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        # The grid completed despite the abandoned claims...
        for outcome in outcomes.values():
            assert all(value > 0 for value in outcome.result.series(BACKEND))
        # ...each point was evaluated exactly once, by exactly one survivor...
        assert sum(outcome.evaluated for outcome in outcomes.values()) == 4
        assert injector.duplicate_evaluations() == 0
        # ...and no claim (including the stolen ones) outlived the sweep.
        assert not list((store_path / LEASES_DIR).glob(f"*{LEASE_SUFFIX}"))
        # The records themselves converged: one usable record per point.
        assert open_store(store_path).refresh().loaded == 4


#: Worker program for the two-process SIGKILL takeover test.  Registers a
#: backend that, in victim mode, signals the parent once it is evaluating
#: (claims held, result not yet stored) and then hangs until SIGKILLed; in
#: survivor mode it evaluates normally, appending one ledger line per inner
#: evaluation so the parent can count duplicates across both processes.
_TAKEOVER_WORKER = """\
import sys
import time
from pathlib import Path

mode, store_path, suite_path, signal_path, ledger_path = sys.argv[1:6]

from repro.api import PredictionService, ScenarioSuite, SweepScheduler
from repro.api.backends import _REGISTRY
from repro.api.results import PredictionResult


class TwoProcBackend:
    name = "two-proc"

    def predict(self, scenario):
        if mode == "victim":
            Path(signal_path).write_text(scenario.cache_key())
            time.sleep(600.0)  # SIGKILLed here, mid-evaluation
        with open(ledger_path, "a") as fh:
            fh.write(f"{mode} {scenario.cache_key()}\\n")
        return PredictionResult(
            backend="two-proc",
            scenario=scenario,
            total_seconds=float(scenario.num_nodes),
            phases={"map": 1.0},
        )


_REGISTRY["two-proc"] = TwoProcBackend
suite = ScenarioSuite.from_json(Path(suite_path).read_text())
service = PredictionService(backends=["two-proc"], store=store_path)
outcome = SweepScheduler(service).run_cooperative(
    suite, ["two-proc"], worker_id=mode, lease_ttl=1.0, poll_interval=0.1
)
print(outcome.describe())
"""


class TestTwoProcessTakeover:
    def test_sigkilled_claim_owner_is_taken_over_by_a_peer_process(self, tmp_path):
        """A real SIGKILL mid-evaluation cannot strand the grid.

        Two separate OS processes share one store.  The victim claims the
        whole grid, starts evaluating, and is SIGKILLed while holding every
        lease — no cleanup, no release, exactly what an OOM kill leaves on
        disk.  The survivor must wait out one lease TTL, take the dead
        claims over through the tombstone-rename path, and finish the grid
        with zero duplicate evaluations and zero duplicate records.
        """
        store_path = tmp_path / "store"
        suite_path = tmp_path / "suite.json"
        suite = _suite([2, 3, 4])
        suite_path.write_text(suite.to_json())
        worker_path = tmp_path / "takeover_worker.py"
        worker_path.write_text(_TAKEOVER_WORKER)
        signal_path = tmp_path / "victim-evaluating"
        ledger_path = tmp_path / "ledger"
        repo_root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(repo_root / "src")}

        def spawn(mode: str) -> subprocess.Popen:
            return subprocess.Popen(
                [
                    sys.executable, str(worker_path), mode,
                    str(store_path), str(suite_path),
                    str(signal_path), str(ledger_path),
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )

        victim = spawn("victim")
        try:
            deadline = time.monotonic() + 30.0
            while not signal_path.exists():
                assert victim.poll() is None, victim.stderr.read()
                assert time.monotonic() < deadline, "victim never started evaluating"
                time.sleep(0.02)
            # The victim is mid-evaluation and owns live claims.
            observer = open_store(store_path).lease_manager("observer")
            held = observer.scan()
            assert held, "victim held no leases at kill time"
            assert {info.worker for info in held} == {"victim"}
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30.0)
            assert victim.returncode == -signal.SIGKILL
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=30.0)
        # The dead worker's claim files are still on disk — takeover territory.
        assert observer.scan()
        survivor = spawn("survivor")
        stdout, stderr = survivor.communicate(timeout=120.0)
        assert survivor.returncode == 0, stderr
        assert "worker 'survivor': 3 evaluated of 3 claimed" in stdout
        # Every point was evaluated exactly once, all by the survivor: the
        # victim died mid-first-evaluation and never stored anything.
        lines = ledger_path.read_text().splitlines()
        evaluated = [line.split() for line in lines]
        assert sorted(key for _, key in evaluated) == sorted(
            scenario.cache_key() for scenario in suite.scenarios
        )
        assert {mode for mode, _ in evaluated} == {"survivor"}
        # One usable record per point, and no claim outlived the sweep.  The
        # parent must know the producing backend to validate the records, so
        # mirror the workers' registration for the duration of the scan.
        _REGISTRY["two-proc"] = type("TwoProcStub", (), {"name": "two-proc"})
        try:
            assert open_store(store_path).refresh().loaded == 3
        finally:
            _REGISTRY.pop("two-proc", None)
        assert not list((store_path / LEASES_DIR).glob(f"*{LEASE_SUFFIX}"))


class TestFabricCli:
    def _write_suite(self, tmp_path, nodes=(2, 3)) -> str:
        path = tmp_path / "suite.json"
        path.write_text(_suite(nodes).to_json())
        return str(path)

    def test_cooperative_sweep_via_cli(self, tmp_path, capsys):
        suite_path = self._write_suite(tmp_path)
        store_path = str(tmp_path / "store")
        assert main(
            [
                "sweep", "--suite", suite_path, "--backend", BACKEND,
                "--store", store_path, "--worker-id", "w1", "--lease-ttl", "5",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "worker 'w1': 2 evaluated of 2 claimed" in captured.err
        assert "fabric (2 scenarios)" in captured.out
        # A late-joining worker finds everything answered: nothing to claim.
        assert main(
            [
                "sweep", "--suite", suite_path, "--backend", BACKEND,
                "--store", store_path, "--worker-id", "w2", "--lease-ttl", "5",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "worker 'w2': 0 evaluated of 0 claimed" in captured.err
        assert "2 store hits" in captured.err

    def test_worker_id_without_store_is_an_error(self, tmp_path, capsys):
        suite_path = self._write_suite(tmp_path)
        assert main(
            ["sweep", "--suite", suite_path, "--backend", BACKEND, "--worker-id", "w1"]
        ) == 2
        assert "--worker-id requires --store" in capsys.readouterr().err

    def test_store_info_and_gc_via_cli(self, tmp_path, capsys):
        suite_path = self._write_suite(tmp_path)
        store_path = str(tmp_path / "store")
        assert main(
            ["sweep", "--suite", suite_path, "--backend", BACKEND, "--store", store_path]
        ) == 0
        capsys.readouterr()
        assert main(["store", "info", store_path]) == 0
        info = capsys.readouterr().out
        assert "format:  sqlite" in info
        assert "records: 2 usable, 0 stale, 0 corrupt" in info
        assert main(["store", "gc", store_path, "--ttl", "0", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["format"] == "sqlite"
        assert stats["expired"] == 2
        assert stats["remaining"] == 0
        assert not stats["dry_run"]
        assert main(["store", "info", store_path]) == 0
        assert "records: 0 usable" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        [
            ["store", "info"],
            ["store", "gc", "--ttl", "0"],
            ["predict", "--nodes", "2", "--input-size", "256MB", "--store"],
            ["sweep", "--suite", "SUITE", "--backend", BACKEND, "--store"],
        ],
        ids=["store-info", "store-gc", "predict", "sweep"],
    )
    def test_legacy_store_is_refused_up_front(self, tmp_path, capsys, command):
        """No command silently shadows legacy records with an empty database."""
        store_path = tmp_path / "legacy"
        shutil.copytree(LEGACY_STORE, store_path)
        before = sorted(store_path.rglob("*"))
        suite_path = self._write_suite(tmp_path)
        argv = [suite_path if arg == "SUITE" else arg for arg in command]
        if argv[0] == "store":
            argv.insert(2, str(store_path))
        else:
            argv.append(str(store_path))
        assert main(argv) == 2
        assert f"repro store migrate {store_path}" in capsys.readouterr().err
        assert sorted(store_path.rglob("*")) == before

    def test_store_gc_dry_run_reports_without_deleting(self, tmp_path, capsys):
        suite_path = self._write_suite(tmp_path)
        store_path = str(tmp_path / "store")
        assert main(
            ["sweep", "--suite", suite_path, "--backend", BACKEND, "--store", store_path]
        ) == 0
        capsys.readouterr()
        assert main(["store", "gc", store_path, "--ttl", "0", "--dry-run"]) == 0
        assert "would purge 2" in capsys.readouterr().out
        assert main(["store", "info", store_path]) == 0
        assert "records: 2 usable" in capsys.readouterr().out
