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
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.api import (
    CooperativeOutcome,
    PredictionService,
    Scenario,
    ScenarioSuite,
    SweepScheduler,
)
from repro.api.backends import _REGISTRY
from repro.api.store import leases as leases_module
from repro.api.store import open_store
from repro.api.store.leases import LeaseManager
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


class _Clock:
    """Stands in for the ``time`` module inside :mod:`repro.api.store.leases`."""

    def __init__(self) -> None:
        self.now = time.time()

    def time(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch) -> _Clock:
    """A lease clock that moves only when told to: no test waits for a TTL."""
    fake = _Clock()
    monkeypatch.setattr(leases_module, "time", fake)
    return fake


@pytest.fixture
def store(tmp_path):
    return open_store(tmp_path / "store")


def _no_leases(store_path) -> bool:
    """No claim outlived the sweep, and no file-based namespace was created."""
    return (
        open_store(store_path).lease_manager("observer").scan() == []
        and not (store_path / "leases").exists()
    )


class TestLeaseManager:
    def test_claim_is_exclusive(self, store):
        first = store.lease_manager("w1", ttl=60.0)
        second = store.lease_manager("w2", ttl=60.0)
        assert first.try_claim(TOKEN)
        assert not second.try_claim(TOKEN)
        assert first.held() == [TOKEN]
        assert second.held() == []
        info = second.read(TOKEN)
        assert info.worker == "w1"
        assert not info.expired()

    def test_reclaiming_an_owned_lease_is_idempotent(self, store):
        manager = store.lease_manager("w1", ttl=60.0)
        assert manager.try_claim(TOKEN)
        assert manager.try_claim(TOKEN)
        assert manager.held() == [TOKEN]

    def test_release_frees_the_point(self, store):
        first = store.lease_manager("w1", ttl=60.0)
        second = store.lease_manager("w2", ttl=60.0)
        assert first.try_claim(TOKEN)
        first.release(TOKEN)
        assert first.held() == []
        assert second.read(TOKEN) is None
        assert second.try_claim(TOKEN)

    def test_expired_lease_is_taken_over(self, store, clock):
        crashed = store.lease_manager("crashed", ttl=0.05)
        assert crashed.try_claim(TOKEN)
        clock.advance(0.12)  # the claim lapses, as a dead worker's would
        survivor = store.lease_manager("survivor", ttl=60.0)
        assert survivor.try_claim(TOKEN)
        assert [(info.token, info.worker) for info in survivor.scan()] == [
            (TOKEN, "survivor")
        ]

    def test_loser_learns_of_the_takeover_on_renew(self, store, clock):
        loser = store.lease_manager("loser", ttl=0.05)
        assert loser.try_claim(TOKEN)
        clock.advance(0.12)
        winner = store.lease_manager("winner", ttl=60.0)
        assert winner.try_claim(TOKEN)
        assert not loser.renew(TOKEN)
        assert TOKEN in loser.lost
        assert loser.held() == []
        # The loser's release must not clobber the new owner's claim.
        loser.release(TOKEN)
        assert winner.read(TOKEN).worker == "winner"

    def test_losers_release_leaves_the_winners_row(self, store, clock):
        """The release statement is guarded on the owner, not on belief."""
        loser = store.lease_manager("loser", ttl=1.0)
        assert loser.try_claim(TOKEN)
        clock.advance(2.0)
        winner = store.lease_manager("winner", ttl=60.0)
        assert winner.try_claim(TOKEN)
        assert loser.held() == [TOKEN]  # it has not heartbeated since
        loser.release(TOKEN)
        assert loser.held() == []
        assert winner.read(TOKEN).worker == "winner"
        assert winner.renew(TOKEN)

    def test_takeover_between_expiry_check_and_claim_has_one_winner(
        self, tmp_path, clock, monkeypatch
    ):
        """A peer's takeover between an expiry check and a claim has one winner.

        A sees the crashed worker's claim expired; before A's claim executes,
        B takes the point over.  A's claim must then fail — B's lease is
        live — so exactly one worker holds the token.
        """
        crashed = open_store(tmp_path / "store").lease_manager("crashed", ttl=1.0)
        assert crashed.try_claim(TOKEN)
        clock.advance(2.0)
        a_store = open_store(tmp_path / "store")
        a = a_store.lease_manager("a", ttl=60.0)
        b = open_store(tmp_path / "store").lease_manager("b", ttl=60.0)
        assert a.read(TOKEN).expired()  # A's expiry observation
        real_write = a_store._write
        raced = []

        def b_first(sql, params=()):
            if not raced:
                raced.append(b.try_claim(TOKEN))
            return real_write(sql, params)

        monkeypatch.setattr(a_store, "_write", b_first)
        assert not a.try_claim(TOKEN)
        assert raced == [True]
        assert [(info.token, info.worker) for info in a.scan()] == [(TOKEN, "b")]
        assert (a.held(), b.held()) == ([], [TOKEN])
        assert not a.renew(TOKEN)
        a.release(TOKEN)
        assert b.read(TOKEN).worker == "b"

    def test_live_lease_cannot_be_stolen(self, store):
        owner = store.lease_manager("owner", ttl=60.0)
        assert owner.try_claim(TOKEN)
        challenger = store.lease_manager("challenger", ttl=60.0)
        assert not challenger.try_claim(TOKEN)
        assert owner.read(TOKEN).worker == "owner"

    def test_renew_advances_the_expiry(self, store, clock):
        manager = store.lease_manager("w1", ttl=60.0)
        assert manager.try_claim(TOKEN)
        before = manager.read(TOKEN)
        clock.advance(0.02)
        assert manager.renew(TOKEN)
        after = manager.read(TOKEN)
        assert after.renewed == before.renewed + 0.02
        assert after.expires_at == after.renewed + 60.0
        assert after.acquired == before.acquired
        assert after.worker == "w1"

    def test_heartbeat_renews_on_a_background_thread(self, store):
        owner = store.lease_manager("owner", ttl=60.0)
        assert owner.try_claim(TOKEN)
        renewed = threading.Event()
        beats: list[str] = []
        real_renew_all = owner.renew_all

        def renew_all() -> int:
            beats.append(threading.current_thread().name)
            count = real_renew_all()
            renewed.set()
            return count

        owner.renew_all = renew_all
        with owner.heartbeat(interval=0.01):
            assert renewed.wait(timeout=30.0)
        assert beats[0] == "lease-heartbeat-owner"
        assert owner.held() == [TOKEN]

    def test_a_beat_is_one_statement_and_loses_taken_over_tokens(self, store, clock):
        owner = store.lease_manager("owner", ttl=1.0)
        tokens = [f"{index:064x}" for index in range(40)]
        assert owner.claim_many(tokens) == set(tokens)
        clock.advance(2.0)
        taker = store.lease_manager("taker", ttl=60.0)
        assert taker.claim_many(tokens[:3]) == set(tokens[:3])
        statements: list[str] = []
        store._connect().set_trace_callback(statements.append)
        assert owner.renew_all() == 37
        on_leases = [sql.lstrip().split()[0] for sql in statements if "leases" in sql]
        assert on_leases == ["UPDATE"]
        assert owner.lost == set(tokens[:3])
        assert owner.held() == sorted(tokens[3:])
        assert {info.token for info in owner.scan() if info.worker == "owner"} == set(tokens[3:])
        assert all(not info.expired() for info in owner.scan())

    def test_scan_reports_every_claim(self, store):
        first = store.lease_manager("w1", ttl=60.0)
        second = store.lease_manager("w2", ttl=60.0)
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
            {"worker_id": "ok", "ttl": 0.0},
            {"worker_id": "ok", "ttl": -1.0},
        ],
    )
    def test_constructor_validation(self, store, kwargs):
        with pytest.raises(ValidationError):
            store.lease_manager(**kwargs)

    def test_token_and_heartbeat_validation(self, store):
        manager = store.lease_manager("w1", ttl=60.0)
        with pytest.raises(ValidationError):
            manager.try_claim("")
        with pytest.raises(ValidationError):
            with manager.heartbeat(interval=0.0):
                pass


class LeaseMachine(RuleBasedStateMachine):
    """Each lease statement checked against an abstract model of its guard.

    The model is the lease protocol written as guard + action over a plain
    dict (``token -> (worker, acquired, renewed, expires_at)``) and each
    worker's ``held``/``lost`` ledger.  Every worker has its own store
    object, hence its own SQLite connection, on one path; the clock moves
    only by the ``advance`` rule, in steps that land exactly on expiries.
    """

    WORKERS = ("w0", "w1", "w2")
    TTLS = {"w0": 1.0, "w1": 2.0, "w2": 1.0}
    TOKENS = ("t0", "t1", "t2")

    def __init__(self) -> None:
        super().__init__()
        self.clock = _Clock()
        self.real_time = leases_module.time
        leases_module.time = self.clock
        self.root = Path(tempfile.mkdtemp(prefix="lease-machine-"))
        self.stores = {worker: open_store(self.root) for worker in self.WORKERS}
        self.managers = {
            worker: store.lease_manager(worker, ttl=self.TTLS[worker])
            for worker, store in self.stores.items()
        }
        self.table: dict[str, tuple[str, float, float, float]] = {}
        self.held: dict[str, set[str]] = {worker: set() for worker in self.WORKERS}
        self.lost: dict[str, set[str]] = {worker: set() for worker in self.WORKERS}
        #: The last lease the SQL side granted per token: (worker, expires_at).
        self.granted: dict[str, tuple[str, float]] = {}

    def teardown(self) -> None:
        leases_module.time = self.real_time
        for store in self.stores.values():
            store.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def _lose(self, worker: str, token: str) -> None:
        if token in self.held[worker]:
            self.held[worker].discard(token)
            self.lost[worker].add(token)

    def _grant(self, worker: str, token: str) -> None:
        """Record a lease the SQL side granted; it must not overlap a peer's."""
        now = self.clock.now
        previous = self.granted.get(token)
        if previous is not None and previous[0] != worker:
            assert now > previous[1], f"{worker} granted {token} inside {previous}"
        self.granted[token] = (worker, now + self.TTLS[worker])

    def _claim(self, worker: str, token: str) -> bool:
        """The claim guard and action on the model; whether the claim wins."""
        now = self.clock.now
        row = self.table.get(token)
        wins = row is None or row[3] < now or row[0] == worker
        if wins:
            self.table[token] = (worker, now, now, now + self.TTLS[worker])
            self.held[worker].add(token)
            self.lost[worker].discard(token)
        else:
            self._lose(worker, token)
        return wins

    def _renew(self, worker: str, token: str) -> bool:
        """The renew guard and action on the model; whether the renewal holds."""
        now = self.clock.now
        row = self.table.get(token)
        renews = token in self.held[worker] and row is not None and row[0] == worker
        if renews:
            self.table[token] = (worker, row[1], now, now + self.TTLS[worker])
        else:
            self._lose(worker, token)
        return renews

    def _release(self, worker: str, token: str) -> None:
        row = self.table.get(token)
        if token in self.held[worker]:
            self.held[worker].discard(token)
            if row is not None and row[0] == worker:
                del self.table[token]

    @rule(worker=st.sampled_from(WORKERS), token=st.sampled_from(TOKENS))
    def claim(self, worker, token):
        wins = self._claim(worker, token)
        won = self.managers[worker].try_claim(token)
        assert won == wins
        if won:
            self._grant(worker, token)

    @rule(worker=st.sampled_from(WORKERS), tokens=st.lists(st.sampled_from(TOKENS), max_size=4))
    def claim_many(self, worker, tokens):
        wins = {token for token in dict.fromkeys(tokens) if self._claim(worker, token)}
        won = self.managers[worker].claim_many(tokens)
        assert won == wins
        for token in sorted(won):
            self._grant(worker, token)

    @rule(worker=st.sampled_from(WORKERS), token=st.sampled_from(TOKENS))
    def renew(self, worker, token):
        renews = self._renew(worker, token)
        renewed = self.managers[worker].renew(token)
        assert renewed == renews
        if renewed:
            self._grant(worker, token)

    @rule(worker=st.sampled_from(WORKERS), tokens=st.lists(st.sampled_from(TOKENS), max_size=4))
    def renew_many(self, worker, tokens):
        renews = {token for token in dict.fromkeys(tokens) if self._renew(worker, token)}
        renewed = self.managers[worker].renew_many(tokens)
        assert renewed == renews
        for token in sorted(renewed):
            self._grant(worker, token)

    @rule(worker=st.sampled_from(WORKERS))
    def renew_all(self, worker):
        renews = {token for token in sorted(self.held[worker]) if self._renew(worker, token)}
        assert self.managers[worker].renew_all() == len(renews)
        for token in sorted(renews):
            self._grant(worker, token)

    @rule(worker=st.sampled_from(WORKERS), token=st.sampled_from(TOKENS))
    def release(self, worker, token):
        self._release(worker, token)
        self.managers[worker].release(token)

    @rule(worker=st.sampled_from(WORKERS), tokens=st.lists(st.sampled_from(TOKENS), max_size=4))
    def release_many(self, worker, tokens):
        for token in tokens:
            self._release(worker, token)
        self.managers[worker].release_many(tokens)

    @rule(worker=st.sampled_from(WORKERS))
    def reap(self, worker):
        now = self.clock.now
        doomed = [token for token, row in self.table.items() if row[3] < now]
        for token in doomed:
            del self.table[token]
        assert self.stores[worker].gc().leases_removed == len(doomed)

    @rule(seconds=st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @invariant()
    def sql_matches_the_model(self):
        rows = {
            info.token: (info.worker, info.acquired, info.renewed, info.expires_at)
            for info in self.managers["w0"].scan()
        }
        assert rows == self.table
        for worker, manager in self.managers.items():
            assert set(manager.held()) == self.held[worker]
            assert manager.lost == self.lost[worker]
        for token in self.TOKENS:
            if token not in rows:
                self.granted.pop(token, None)  # released or reaped: the lease ended

    @invariant()
    def at_most_one_unexpired_owner_per_token(self):
        now = self.clock.now
        for token in self.TOKENS:
            owners = [
                worker
                for worker in self.WORKERS
                if token in self.held[worker]
                and (info := self.managers[worker].read(token)) is not None
                and info.worker == worker
                and not info.expired(now)
            ]
            assert len(owners) <= 1


TestLeaseMachine = LeaseMachine.TestCase
TestLeaseMachine.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)


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

    def test_own_and_expired_claims_stay_missing(self, tmp_path, clock):
        suite = _suite([2, 3])
        service = _service(tmp_path / "store")
        scheduler = SweepScheduler(service)
        mine = service.store.lease_manager("me", ttl=60.0)
        assert mine.try_claim(service.point_token(suite.scenarios[0].cache_key(), BACKEND))
        dead = service.store.lease_manager("dead", ttl=0.05)
        assert dead.try_claim(service.point_token(suite.scenarios[1].cache_key(), BACKEND))
        clock.advance(0.12)  # the peer's claim lapses; mine is my own
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
        assert _no_leases(store_path)

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
        Deterministic reproduction: the first ``claim_many`` is intercepted
        and a peer drains the whole grid (plain, lease-free ``run``) before
        the claim proceeds.
        """
        suite = _suite([2, 3])
        store_path = tmp_path / "store"
        real_claim_many = LeaseManager.claim_many
        raced = []

        def racing_claim_many(self, tokens):
            if not raced:
                raced.append(tokens)
                SweepScheduler(_service(store_path)).run(suite, [BACKEND])
            return real_claim_many(self, tokens)

        monkeypatch.setattr(LeaseManager, "claim_many", racing_claim_many)
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
        assert _no_leases(store_path)
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
        assert _no_leases(store_path)
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
        claims over with the guarded claim upsert, and finish the grid
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
        # The dead worker's lease rows are still there — takeover territory.
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
        assert _no_leases(store_path)


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
