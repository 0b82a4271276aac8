"""Durability tests for the persistent result store (:mod:`repro.api.store`).

Covers the hard guarantees the SQLite store makes: round-trips across
service restarts, zero backend re-evaluations on a warm store, safe
concurrent writers on one store path, recovery from hand-corrupted rows and
databases, version-based invalidation, gc, one transaction per batch
dispatch, and the one-way migration of a legacy sharded-JSON store
(``tests/data/legacy-json-store``, written by the retired JSON engine).
"""

from __future__ import annotations

import gc
import json
import logging
import os
import shutil
import sqlite3
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import (
    QUARANTINE_DIR,
    PredictionService,
    Scenario,
    ScenarioSuite,
    SqliteResultStore,
    backend_version,
    create_backend,
)
from repro.api.backends import _REGISTRY
from repro.api.scenario import SCENARIO_SPEC_VERSION
from repro.api.store import (
    DB_FILENAME,
    STORE_FORMAT_VERSION,
    ResultStore,
    _canonical_options,
    detect_store_format,
    migrate_store,
    open_store,
    point_token,
)
from repro.api.store import leases as leases_module
from repro.api.store import sqlite_store as sqlite_store_module
from repro.cli import main
from repro.exceptions import StoreError, ValidationError
from repro.units import megabytes

#: A store written by the retired sharded-JSON engine: four valid records
#: (aria ×2, herodotou, vianna with ``map_slots_per_node=4``), one stale
#: (herodotou at backend version 0) and one torn mid-write.
LEGACY_STORE = Path(__file__).parent / "data" / "legacy-json-store"

#: Small, fast scenario shared by the store tests.
SMALL = Scenario(
    workload="wordcount",
    input_size_bytes=megabytes(256),
    num_nodes=2,
    num_reduces=2,
    repetitions=1,
    seed=21,
)


@pytest.fixture
def legacy_store(tmp_path):
    """A copy of the legacy JSON store, its files aged 0, 600, 1200… seconds."""
    path = tmp_path / "legacy"
    shutil.copytree(LEGACY_STORE, path)
    now = time.time()
    for age, record_file in enumerate(sorted((path / "records").glob("??/*.json"))):
        stamp = now - 600.0 * age
        os.utime(record_file, (stamp, stamp))
    return path


@pytest.fixture
def temporary_backend():
    """Register a throwaway backend class and unregister it afterwards."""
    registered: list[str] = []

    def register(name: str, cls: type) -> type:
        cls.name = name
        _REGISTRY[name] = cls
        registered.append(name)
        return cls

    try:
        yield register
    finally:
        for name in registered:
            _REGISTRY.pop(name, None)


def _counting_backend_class():
    """A stub backend whose predictions are cheap and counted."""
    from repro.api.results import PredictionResult

    class CountingBackend:
        calls = 0

        def predict(self, scenario):
            type(self).calls += 1
            return PredictionResult(
                backend=type(self).name,
                scenario=scenario,
                total_seconds=float(scenario.num_nodes),
                phases={"map": 1.0},
                metadata={"call": type(self).calls},
            )

    return CountingBackend


def _sqlite_tokens(store_path) -> list[str]:
    conn = sqlite3.connect(store_path / DB_FILENAME)
    try:
        return [row[0] for row in conn.execute("SELECT token FROM records ORDER BY token")]
    finally:
        conn.close()


def _update_rows(store_path, sql: str, params) -> None:
    """Run one hand-written ``UPDATE`` per parameter tuple on the records table."""
    conn = sqlite3.connect(store_path / DB_FILENAME)
    try:
        with conn:
            conn.executemany(sql, params)
    finally:
        conn.close()


def _corrupt_records(store_path, count: int, payload: str = "{garbled") -> None:
    """Garble ``count`` rows' ``result`` payloads in place."""
    _update_rows(
        store_path,
        "UPDATE records SET result = ? WHERE token = ?",
        [(payload, token) for token in _sqlite_tokens(store_path)[:count]],
    )


def _set_version_field(store_path, field: str, value, which: int = 0) -> None:
    """Rewrite one version field of the ``which``-th record (by token order)."""
    token = _sqlite_tokens(store_path)[which]
    _update_rows(
        store_path, f"UPDATE records SET {field} = ? WHERE token = ?", [(value, token)]
    )


def _backdate_point(
    store_path, key: str, backend: str, seconds: float, options=None
) -> None:
    """Make one record look ``seconds`` old (its ``created`` column)."""
    token = point_token(key, backend, _canonical_options(options))
    _update_rows(
        store_path,
        "UPDATE records SET created = ? WHERE token = ?",
        [(time.time() - seconds, token)],
    )


class TestStoreContract:
    """Engine-agnostic guarantees, asserted for both formats."""

    def test_put_get_roundtrip_and_restart(self, tmp_path):
        result = create_backend("aria").predict(SMALL)
        store = open_store(tmp_path / "store")
        store.put(SMALL.cache_key(), "aria", result)
        assert store.get(SMALL.cache_key(), "aria") == result
        # A brand-new store on the same path (a "restarted process") sees it —
        # first through a lazy get() probe, then through a full scan.
        reopened = open_store(tmp_path / "store")
        assert reopened.get(SMALL.cache_key(), "aria") == result
        assert reopened.refresh().loaded == 1

    def test_get_misses_are_none(self, tmp_path):
        store = open_store(tmp_path / "store")
        assert store.get(SMALL.cache_key(), "aria") is None

    def test_get_is_get_many_of_one(self, tmp_path):
        result = create_backend("aria").predict(SMALL)
        key = SMALL.cache_key()
        open_store(tmp_path / "store").put(key, "aria", result, {"mode": "a"})
        store = open_store(tmp_path / "store")  # cold: the lookup reads the database
        assert store.get(key, "aria", {"mode": "a"}) == result
        assert store.get_many([(key, "aria", {"mode": "a"})]) == {(key, "aria"): result}
        # A record is only a hit for the options that produced it.
        assert store.get(key, "aria", {"mode": "b"}) is None
        assert store.get_many([(key, "aria", {"mode": "b"})]) == {}
        assert store.get(key, "herodotou", {"mode": "a"}) is None

    def test_store_path_must_be_directory(self, tmp_path):
        bogus = tmp_path / "file"
        bogus.write_text("not a directory")
        with pytest.raises(StoreError):
            open_store(bogus)

    def test_cross_process_visibility_without_refresh(self, tmp_path):
        """A record written through one store object is visible to another."""
        writer = open_store(tmp_path / "store")
        reader = open_store(tmp_path / "store")  # opened while still empty
        result = create_backend("aria").predict(SMALL)
        writer.put(SMALL.cache_key(), "aria", result)
        assert reader.get(SMALL.cache_key(), "aria") == result

    def test_get_many_mixes_hits_and_misses(self, tmp_path):
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4)]
        backend = create_backend("aria")
        writer = open_store(tmp_path / "store")
        for scenario in scenarios:
            writer.put(scenario.cache_key(), "aria", backend.predict(scenario))
        missing = SMALL.with_updates(num_nodes=9)
        reader = open_store(tmp_path / "store")  # cold: everything is a disk miss
        found = reader.get_many(
            [(s.cache_key(), "aria", None) for s in scenarios + [missing]]
        )
        assert set(found) == {(s.cache_key(), "aria") for s in scenarios}
        for scenario in scenarios:
            assert found[(scenario.cache_key(), "aria")].total_seconds > 0

    def test_put_many_round_trips(self, tmp_path):
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4)]
        backend = create_backend("aria")
        store = open_store(tmp_path / "store")
        store.put_many(
            [(s.cache_key(), "aria", backend.predict(s), None) for s in scenarios]
        )
        reopened = open_store(tmp_path / "store")
        assert reopened.refresh().loaded == len(scenarios)
        for scenario in scenarios:
            assert reopened.get(scenario.cache_key(), "aria") is not None


def test_canonical_options_fast_path_is_identical():
    for empty in (None, {}):
        assert _canonical_options(empty) == json.dumps({}, sort_keys=True, default=repr)
    assert _canonical_options({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'


def _wait_child(pid: int, timeout: float):
    """A forked child's exit code, or ``"hung"`` (and killed) after ``timeout``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.005)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    return "hung"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_fork_while_another_thread_writes(tmp_path):
    """A forked child (a process-pool worker) can use a store a parent thread
    was writing at the fork, and never inherits a held lock or connection."""
    store = open_store(tmp_path / "store")
    result = create_backend("aria").predict(SMALL)
    store.put(SMALL.cache_key(), "aria", result)
    stop = threading.Event()

    def writer() -> None:
        count = 0
        while not stop.is_set():
            store.put(f"point-{count}", "aria", result)
            count += 1

    thread = threading.Thread(target=writer)
    thread.start()
    outcomes = []
    try:
        for _ in range(20):
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child
                # An index hit needs the store lock; a miss also queries SQLite.
                ok = store.get(SMALL.cache_key(), "aria") == result
                ok = ok and store.get("absent", "aria") is None
                os._exit(0 if ok else 1)
            outcomes.append(_wait_child(pid, timeout=10.0))
            if outcomes[-1] == "hung":
                break
    finally:
        stop.set()
        thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert outcomes == [0] * 20


def test_collected_store_is_closed_by_the_next_open_not_the_collector(tmp_path):
    """The collector may run in a thread that another thread forks beside;
    closing there could leave SQLite's mutexes held in the child."""
    garbage = open_store(tmp_path / "garbage")
    assert garbage.get("absent", "aria") is None  # connects
    conn = garbage._conn
    garbage.cycle = garbage  # only the cyclic collector frees it
    del garbage
    gc.collect()
    assert conn.execute("SELECT 1").fetchone() == (1,)  # still open
    assert open_store(tmp_path / "next").get("absent", "aria") is None
    with pytest.raises(sqlite3.ProgrammingError, match="closed"):
        conn.execute("SELECT 1")


class TestOpenStore:
    """One engine: new stores are SQLite, legacy JSON is refused up front."""

    def test_default_is_sqlite(self, tmp_path):
        store = open_store(tmp_path / "store")
        assert isinstance(store, SqliteResultStore)
        assert detect_store_format(tmp_path / "store") is None  # nothing written yet
        store.put(SMALL.cache_key(), "aria", create_backend("aria").predict(SMALL))
        assert detect_store_format(tmp_path / "store") == "sqlite"
        reopened = open_store(tmp_path / "store")
        assert isinstance(reopened, SqliteResultStore)
        assert reopened.get(SMALL.cache_key(), "aria") is not None

    def test_unmigrated_legacy_store_is_refused(self, tmp_path, legacy_store):
        for opener in (
            open_store,
            lambda path: PredictionService(backends=["aria"], store=path),
        ):
            with pytest.raises(ValidationError, match="repro store migrate"):
                opener(legacy_store)
        # The refusal wrote nothing: no empty database now shadows the records.
        assert not (legacy_store / DB_FILENAME).exists()
        assert detect_store_format(legacy_store) == "json"


class TestServiceWithStore:
    def test_sweep_rerun_performs_zero_backend_evaluations(
        self, tmp_path, temporary_backend
    ):
        counting = temporary_backend("counting-stub", _counting_backend_class())
        suite = ScenarioSuite.from_sweep("grid", SMALL, num_nodes=[2, 3, 4])
        first = PredictionService(backends=["counting-stub"], store=tmp_path / "store")
        cold = first.evaluate_suite(suite, ["counting-stub"])
        assert counting.calls == 3
        assert first.stats().evaluations == 3
        # A fresh service on the same path — the "restarted sweep" — answers
        # entirely from disk: zero backend evaluations.
        second = PredictionService(backends=["counting-stub"], store=tmp_path / "store")
        warm = second.evaluate_suite(suite, ["counting-stub"])
        assert counting.calls == 3
        assert second.stats().evaluations == 0
        assert second.stats().store_hits == 3
        assert warm.series("counting-stub") == cold.series("counting-stub")

    def test_backend_options_partition_the_store(self, tmp_path):
        """Records of differently configured backends must never be shared."""
        store_path = tmp_path / "store"
        four_slots = PredictionService(
            backends=["vianna"],
            backend_options={"vianna": {"map_slots_per_node": 4}},
            store=store_path,
        )
        configured = four_slots.evaluate(SMALL, "vianna")
        assert configured.metadata["map_slots_per_node"] == 4
        # Default configuration, same store: a miss, not a silent wrong hit.
        defaults = PredictionService(backends=["vianna"], store=store_path)
        default_result = defaults.evaluate(SMALL, "vianna")
        assert defaults.stats().store_hits == 0
        assert defaults.stats().evaluations == 1
        assert default_result.metadata["map_slots_per_node"] == 2
        # Each configuration is warm for its own options.
        rerun = PredictionService(
            backends=["vianna"],
            backend_options={"vianna": {"map_slots_per_node": 4}},
            store=store_path,
        )
        assert rerun.evaluate(SMALL, "vianna") == configured
        assert rerun.stats().store_hits == 1

    def test_store_survives_cache_clear(self, tmp_path):
        first = PredictionService(backends=["aria"], store=tmp_path / "store")
        result = first.evaluate(SMALL, "aria")
        # A fresh service starts with an empty memory cache.
        service = PredictionService(backends=["aria"], store=tmp_path / "store")
        assert service.evaluate(SMALL, "aria") == result
        assert service.stats().store_hits == 1
        assert service.stats().evaluations == 0

    def test_concurrent_writers_on_one_store_path(self, tmp_path, temporary_backend):
        counting = temporary_backend("counting-stub", _counting_backend_class())
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4, 5)]
        services = [
            PredictionService(
                backends=["counting-stub"],
                store=tmp_path / "store",
            )
            for _ in range(2)
        ]
        errors: list[BaseException] = []

        def write(service: PredictionService) -> None:
            try:
                for scenario in scenarios:
                    service.evaluate(scenario, "counting-stub")
            except BaseException as exc:  # noqa: BLE001 — surfaced via the list
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(service,)) for service in services
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Both writers may have computed a point, but the store converged to
        # exactly one readable record per point.
        merged = open_store(tmp_path / "store")
        scan = merged.refresh()
        assert scan.loaded == len(scenarios)
        assert scan.corrupt == 0
        for scenario in scenarios:
            stored = merged.get(scenario.cache_key(), "counting-stub")
            assert stored.total_seconds == float(scenario.num_nodes)
        assert counting.calls >= len(scenarios)

    def test_corrupted_records_are_skipped_and_healed(self, tmp_path, caplog):
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4)]
        originals = [service.evaluate(scenario, "aria") for scenario in scenarios]
        # Hand-corrupt two of the three records' payloads.
        _corrupt_records(store_path, 2)
        with caplog.at_level(logging.WARNING, logger="repro.api.store"):
            scan = open_store(store_path).refresh()
        assert scan.loaded == 1
        assert scan.corrupt == 2
        assert any("corrupt" in record.message for record in caplog.records)
        # A fresh service recomputes the lost points and heals the store.
        healed = PredictionService(backends=["aria"], store=store_path)
        for scenario, original in zip(scenarios, originals):
            assert healed.evaluate(scenario, "aria") == original
        assert healed.stats().evaluations == 2
        assert open_store(store_path).refresh().loaded == 3

    def test_unwritable_store_degrades_to_memory_cache(self, tmp_path, monkeypatch):
        service = PredictionService(backends=["aria"], store=tmp_path / "store")

        def failing_put(key, backend, result, options=None):
            raise StoreError("disk full")

        monkeypatch.setattr(service.store, "put", failing_put)
        first = service.evaluate(SMALL, "aria")
        assert service.evaluate(SMALL, "aria") is first  # memory cache still works
        assert open_store(tmp_path / "store").refresh().loaded == 0


class TestQuarantine:
    """Corrupt records are moved aside, not deleted — and the slot heals."""

    def _quarantine_files(self, store_path) -> list:
        return sorted((store_path / QUARANTINE_DIR).glob("*"))

    def test_torn_and_garbled_rows_round_trip_through_quarantine(self, tmp_path):
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4)]
        originals = [service.evaluate(scenario, "aria") for scenario in scenarios]
        tokens = _sqlite_tokens(store_path)
        assert len(tokens) == 3
        garbage = "{garbled json!!"
        _update_rows(
            store_path,
            "UPDATE records SET result = ? WHERE token = ?",
            [(garbage, tokens[0])],
        )
        _update_rows(
            store_path,
            "UPDATE records SET result = substr(result, 1, 40) WHERE token = ?",
            [(tokens[1],)],
        )

        scan = open_store(store_path).refresh()
        assert scan.corrupt == 2
        assert scan.quarantined == 2
        # The torn bytes are preserved for post-mortems, under a name that
        # says which row broke and why.
        quarantined = self._quarantine_files(store_path)
        assert len(quarantined) == 2
        dumped = {path.name: json.loads(path.read_text()) for path in quarantined}
        by_original = {name.split("--", 1)[1]: row for name, row in dumped.items()}
        assert set(by_original) == {f"{tokens[0]}.json", f"{tokens[1]}.json"}
        assert by_original[f"{tokens[0]}.json"]["result"] == garbage
        assert len(by_original[f"{tokens[1]}.json"]["result"]) == 40
        reasons = {name.split("--", 1)[0] for name in dumped}
        assert reasons <= {"unreadable", "malformed", "undecodable"}
        # ...and the record slots themselves are free again.
        assert _sqlite_tokens(store_path) == [tokens[2]]

        # Re-evaluating heals the slots; the quarantine keeps its evidence.
        healed = PredictionService(backends=["aria"], store=store_path)
        for scenario, original in zip(scenarios, originals):
            assert healed.evaluate(scenario, "aria") == original
        assert open_store(store_path).refresh().corrupt == 0
        assert len(_sqlite_tokens(store_path)) == 3
        assert len(self._quarantine_files(store_path)) == 2

    def test_sqlite_corrupt_rows_round_trip_through_quarantine(self, tmp_path):
        """Row-level corruption: dumped to quarantine, deleted, slot heals."""
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4)]
        originals = [service.evaluate(scenario, "aria") for scenario in scenarios]
        _corrupt_records(store_path, 2)
        scan = SqliteResultStore(store_path).refresh()
        assert scan.corrupt == 2
        assert scan.quarantined == 2
        quarantined = self._quarantine_files(store_path)
        assert len(quarantined) == 2
        assert all(path.name.startswith("undecodable--") for path in quarantined)
        # The dumped rows keep their envelope for post-mortems.
        for path in quarantined:
            dumped = json.loads(path.read_text())
            assert dumped["backend"] == "aria"
            assert dumped["result"] == "{garbled"
        # The rows themselves are gone: only the intact record remains.
        assert len(_sqlite_tokens(store_path)) == 1
        # Re-evaluating heals the slots; the quarantine keeps its evidence.
        healed = PredictionService(backends=["aria"], store=store_path)
        for scenario, original in zip(scenarios, originals):
            assert healed.evaluate(scenario, "aria") == original
        assert SqliteResultStore(store_path).refresh().loaded == 3
        assert len(self._quarantine_files(store_path)) == 2

    def test_sqlite_unreadable_database_is_quarantined_wholesale(self, tmp_path):
        """File-level corruption: the damaged DB is moved aside, not fatal."""
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        original = service.evaluate(SMALL, "aria")
        service.store.close()
        (store_path / DB_FILENAME).write_bytes(b"this is not a database at all")
        reopened = SqliteResultStore(store_path)
        assert reopened.refresh().loaded == 0
        quarantined = self._quarantine_files(store_path)
        assert len(quarantined) == 1
        assert quarantined[0].name.startswith(f"unreadable-db--{DB_FILENAME}")
        # The fresh database is fully usable.
        reopened.put(SMALL.cache_key(), "aria", original)
        assert SqliteResultStore(store_path).get(SMALL.cache_key(), "aria") == original

    def test_first_open_waits_for_a_peer_on_the_new_file(self, tmp_path):
        """Switching a new file to WAL is not covered by the busy timeout:
        a peer writing the file (another first open creating the schema)
        makes the switch fail at once, so the open retries it instead of
        reporting the store unusable."""
        store_path = tmp_path / "store"
        store_path.mkdir()
        peer = sqlite3.connect(
            store_path / DB_FILENAME, isolation_level=None, check_same_thread=False
        )
        peer.execute("BEGIN IMMEDIATE")  # holds the write lock
        release = threading.Timer(0.2, peer.commit)
        release.start()
        try:
            store = SqliteResultStore(store_path)
            store.put(SMALL.cache_key(), "aria", create_backend("aria").predict(SMALL))
        finally:
            release.join()
            peer.close()
        assert not (store_path / QUARANTINE_DIR).exists()
        with store._lock:
            assert store._connect().execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert open_store(store_path).refresh().loaded == 1

    def test_locked_database_is_not_quarantined(self, tmp_path, monkeypatch):
        """A busy timeout is an error to report, not corruption to move aside."""
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria", "herodotou"], store=store_path)
        expected = {name: service.evaluate(SMALL, name) for name in ("aria", "herodotou")}
        service.store.close()
        holder = sqlite3.connect(store_path / DB_FILENAME, isolation_level=None)
        real_connect = sqlite3.connect
        try:
            holder.execute("PRAGMA locking_mode=EXCLUSIVE")
            holder.execute("BEGIN EXCLUSIVE")
            monkeypatch.setattr(
                sqlite_store_module.sqlite3,
                "connect",
                lambda *args, **kwargs: real_connect(*args, **{**kwargs, "timeout": 0.05}),
            )
            with pytest.raises(StoreError, match="locked"):
                SqliteResultStore(store_path).get(SMALL.cache_key(), "aria")
            monkeypatch.undo()
        finally:
            holder.close()
        assert not (store_path / QUARANTINE_DIR).exists()
        reopened = open_store(store_path)
        assert reopened.refresh().loaded == 2
        for name, result in expected.items():
            assert reopened.get(SMALL.cache_key(), name) == result

    def test_stale_records_are_not_quarantined(self, tmp_path):
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        service.evaluate(SMALL, "aria")
        _set_version_field(store_path, "backend_version", 999)
        scan = open_store(store_path).refresh()
        # Stale is a versioning outcome, not corruption: the (well-formed)
        # record stays in place for inspection or rollback.
        assert scan.stale == 1
        assert scan.quarantined == 0
        assert not (store_path / QUARANTINE_DIR).exists()
        assert len(_sqlite_tokens(store_path)) == 1

    def test_quarantine_failure_still_skips_the_record(self, tmp_path):
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        service.evaluate(SMALL, "aria")
        _corrupt_records(store_path, 1, payload="{broken")
        # A plain file where the quarantine directory belongs: the dump fails.
        (store_path / QUARANTINE_DIR).write_text("not a directory")
        scan = open_store(store_path).refresh()
        # Never-fatal contract: the record is skipped and counted even when
        # the quarantine write itself fails.
        assert scan.corrupt == 1
        assert scan.quarantined == 0
        assert scan.loaded == 0


class TestVersioning:
    def _write_one_record(self, store_path) -> str:
        service = PredictionService(backends=["aria"], store=store_path)
        service.evaluate(SMALL, "aria")
        return SMALL.cache_key()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("format", STORE_FORMAT_VERSION + 1),
            ("spec_version", 999),
            ("backend_version", 999),
        ],
    )
    def test_version_mismatch_invalidates_record(self, tmp_path, field, value):
        key = self._write_one_record(tmp_path / "store")
        _set_version_field(tmp_path / "store", field, value)
        reopened = open_store(tmp_path / "store")
        scan = reopened.refresh()
        assert scan.stale == 1
        assert scan.loaded == 0
        assert reopened.get(key, "aria") is None

    def test_analytic_backend_versions_are_pinned(self):
        # Tripathi's P-node maximum became exact in version 3, which fork/join
        # (no maximum of distributions) skipped; the BLAS-free overlap MVA
        # then bumped all three solver backends once more.
        assert backend_version("mva-tripathi") == 4
        assert backend_version("mva-forkjoin") == 3
        assert backend_version("vianna") == 3

    def test_tripathi_version_three_records_are_stale(self, tmp_path):
        store_path = tmp_path / "store"
        service = PredictionService(
            backends=["mva-forkjoin", "mva-tripathi"],
            store=store_path,
        )
        for backend in ("mva-forkjoin", "mva-tripathi"):
            service.evaluate(SMALL, backend)
        for which in range(2):
            _set_version_field(store_path, "backend_version", 3, which)
        reopened = open_store(store_path)
        scan = reopened.refresh()
        assert (scan.loaded, scan.stale) == (1, 1)
        assert reopened.get(SMALL.cache_key(), "mva-tripathi") is None
        assert reopened.get(SMALL.cache_key(), "mva-forkjoin") is not None

    def test_unregistered_backend_records_are_stale(self, tmp_path, temporary_backend):
        temporary_backend("counting-stub", _counting_backend_class())
        service = PredictionService(
            backends=["counting-stub"], store=tmp_path / "store"
        )
        service.evaluate(SMALL, "counting-stub")
        # After the backend disappears from the registry (fixture teardown
        # simulated by popping early), its records cannot be validated.
        _REGISTRY.pop("counting-stub")
        reopened = open_store(tmp_path / "store")
        assert reopened.refresh().stale == 1
        assert reopened.get(SMALL.cache_key(), "counting-stub") is None


class TestStaleRows:
    """A stale row costs one indexed read and a version compare, not a parse.

    Its three version columns reject it before its payload is decoded, and
    a fresh record written over it is seen at once.
    """

    def test_stale_row_is_not_decoded(self, tmp_path, monkeypatch):
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        service.evaluate(SMALL, "aria")
        _set_version_field(store_path, "backend_version", 999)
        reopened = open_store(store_path)
        decodes: list[str] = []

        def loads(text, *args, **kwargs):
            decodes.append(text)
            return json.loads(text, *args, **kwargs)

        monkeypatch.setattr(
            "repro.api.store.sqlite_store.json", SimpleNamespace(loads=loads, dumps=json.dumps)
        )
        for _ in range(5):
            assert reopened.get(SMALL.cache_key(), "aria") is None
        assert decodes == []

    def test_peer_overwrite_of_a_stale_row_is_seen(self, tmp_path):
        """A peer rewriting the slot with a valid record is seen immediately."""
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        original = service.evaluate(SMALL, "aria")
        _set_version_field(store_path, "backend_version", 999)
        reopened = open_store(store_path)
        assert reopened.get(SMALL.cache_key(), "aria") is None  # stale
        # A concurrent process heals the slot (a row upsert): the next
        # lookup reads it.
        peer = open_store(store_path)
        peer.put(SMALL.cache_key(), "aria", original)
        assert reopened.get(SMALL.cache_key(), "aria") == original

    def test_local_put_over_a_stale_row_is_seen(self, tmp_path):
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        original = service.evaluate(SMALL, "aria")
        _set_version_field(store_path, "backend_version", 999)
        reopened = open_store(store_path)
        assert reopened.get(SMALL.cache_key(), "aria") is None  # stale
        reopened.put(SMALL.cache_key(), "aria", original)
        assert reopened.get(SMALL.cache_key(), "aria") == original


class TestGc:
    """TTL expiry, stale purge, size-capped eviction, lease reaping."""

    def _seed(self, store_path, nodes=(2, 3, 4)):
        service = PredictionService(backends=["aria"], store=store_path)
        scenarios = [SMALL.with_updates(num_nodes=n) for n in nodes]
        for scenario in scenarios:
            service.evaluate(scenario, "aria")
        service.store.close()
        return scenarios

    def test_ttl_expires_old_records(self, tmp_path):
        store_path = tmp_path / "store"
        scenarios = self._seed(store_path)
        for scenario in scenarios:
            _backdate_point(store_path, scenario.cache_key(), "aria", 100.0)
        store = open_store(store_path)
        stats = store.gc(ttl=50.0)
        assert stats.examined == 3
        assert stats.expired == 3
        assert stats.purged == 3
        assert stats.remaining == 0
        assert not stats.dry_run
        for scenario in scenarios:
            assert store.get(scenario.cache_key(), "aria") is None
        assert open_store(store_path).refresh().loaded == 0

    def test_young_records_survive_ttl(self, tmp_path):
        store_path = tmp_path / "store"
        scenarios = self._seed(store_path)
        stats = open_store(store_path).gc(ttl=3600.0)
        assert stats.expired == 0
        assert stats.remaining == 3
        assert open_store(store_path).refresh().loaded == len(scenarios)

    def test_max_records_evicts_oldest_first(self, tmp_path):
        store_path = tmp_path / "store"
        scenarios = self._seed(store_path, nodes=(2, 3, 4, 5))
        # Stagger the ages: scenarios[0] oldest ... scenarios[3] newest.
        for position, scenario in enumerate(scenarios):
            _backdate_point(
                store_path, scenario.cache_key(), "aria",
                600.0 - 100.0 * position,
            )
        store = open_store(store_path)
        stats = store.gc(max_records=2)
        assert stats.evicted == 2
        assert stats.remaining == 2
        for scenario in scenarios[:2]:  # the two oldest are gone
            assert store.get(scenario.cache_key(), "aria") is None
        for scenario in scenarios[2:]:  # the two newest survive
            assert store.get(scenario.cache_key(), "aria") is not None

    def test_dry_run_reports_without_deleting(self, tmp_path):
        store_path = tmp_path / "store"
        scenarios = self._seed(store_path)
        for scenario in scenarios:
            _backdate_point(store_path, scenario.cache_key(), "aria", 100.0)
        store = open_store(store_path)
        stats = store.gc(ttl=50.0, dry_run=True)
        assert stats.dry_run
        assert stats.expired == 3
        assert "would purge 3" in stats.describe()
        # Nothing was actually removed.
        assert open_store(store_path).refresh().loaded == 3

    def test_stale_records_are_purged(self, tmp_path):
        store_path = tmp_path / "store"
        self._seed(store_path, nodes=(2, 3))
        _set_version_field(store_path, "backend_version", 999)
        stats = open_store(store_path).gc()
        # gc is the explicit "this data is dead" pass: unlike the read path,
        # it removes stale records instead of skipping them in place.
        assert stats.stale == 1
        assert stats.remaining == 1
        assert open_store(store_path).refresh().loaded == 1

    def test_expired_leases_are_reaped(self, tmp_path, monkeypatch):
        clock = SimpleNamespace(now=time.time())
        monkeypatch.setattr(leases_module, "time", SimpleNamespace(time=lambda: clock.now))
        store = open_store(tmp_path / "store")
        doomed = store.lease_manager("crashed-worker", ttl=0.05)
        assert doomed.try_claim("a" * 64)
        assert doomed.try_claim("b" * 64)
        live = store.lease_manager("live-worker", ttl=3600.0)
        assert live.try_claim("c" * 64)
        clock.now += 0.1  # the short leases lapse
        assert store.gc(dry_run=True).leases_removed == 2
        assert len(store.lease_manager("observer").scan()) == 3
        stats = store.gc()
        assert stats.leases_removed == 2
        # The live worker's claim is untouched.
        remaining = store.lease_manager("observer").scan()
        assert [info.token for info in remaining] == ["c" * 64]
        assert remaining[0].worker == "live-worker"

    def test_gc_on_empty_store(self, tmp_path):
        stats = open_store(tmp_path / "store").gc(ttl=1.0, max_records=10)
        assert stats.examined == 0
        assert stats.purged == 0
        assert stats.remaining == 0


def _legacy_files(store_path) -> dict:
    """Legacy record files by token: ``(parsed envelope or None, mtime)``."""
    files = {}
    for record_file in sorted((store_path / "records").glob("??/*.json")):
        try:
            record = json.loads(record_file.read_text())
        except json.JSONDecodeError:
            record = None
        files[record_file.stem] = (record, record_file.stat().st_mtime)
    return files


def _rows(store_path) -> list[tuple]:
    conn = sqlite3.connect(store_path / DB_FILENAME)
    try:
        return conn.execute("SELECT * FROM records ORDER BY token").fetchall()
    finally:
        conn.close()


def _snapshot(root) -> dict:
    """Every file under ``root`` with its bytes and mtime."""
    return {
        str(path.relative_to(root)): (path.read_bytes(), path.stat().st_mtime_ns)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestMigrate:
    """``repro store migrate``: a legacy JSON store imported into SQLite."""

    def _valid(self, store_path) -> dict:
        """The fixture's valid, current-version records by token."""
        return {
            token: (record, mtime)
            for token, (record, mtime) in _legacy_files(store_path).items()
            if record is not None
            and record["backend_version"] == backend_version(record["backend"])
        }

    def test_imports_exactly_the_valid_records(self, legacy_store):
        valid = self._valid(legacy_store)
        assert len(valid) == 4  # the fixture's stale and torn files excluded
        stats = migrate_store(legacy_store)
        assert (stats.loaded, stats.stale, stats.corrupt) == (4, 1, 1)
        rows = {row[0]: row for row in _rows(legacy_store)}
        assert set(rows) == set(valid)
        store = open_store(legacy_store)
        for token, (record, mtime) in valid.items():
            options = json.loads(record["options"])
            migrated = store.get(record["key"], record["backend"], options)
            assert migrated.to_dict() == record["result"]
            # The current code computes the same bytes: no version moved.
            fresh = create_backend(record["backend"], **options).predict(
                migrated.scenario
            )
            assert fresh.to_dict() == migrated.to_dict()
            assert rows[token][8] == mtime  # ``created`` is the file's mtime
        assert store.refresh().loaded == 4

    def test_rerun_changes_nothing(self, legacy_store):
        before = _snapshot(legacy_store / "records")
        migrate_store(legacy_store)
        rows = _rows(legacy_store)
        assert migrate_store(legacy_store).loaded == 4
        assert _rows(legacy_store) == rows
        # records/ is left as it was: nothing moved, rewritten or touched.
        assert _snapshot(legacy_store / "records") == before
        assert not (legacy_store / QUARANTINE_DIR).exists()

    def test_gc_ttl_ages_survive_migration(self, legacy_store):
        valid = self._valid(legacy_store)
        migrate_store(legacy_store)
        now = time.time()
        older = sum(1 for _, mtime in valid.values() if now - mtime > 900.0)
        assert 0 < older < len(valid)
        stats = open_store(legacy_store).gc(ttl=900.0)
        assert stats.expired == older
        assert stats.remaining == len(valid) - older

    def test_cli_migrates_then_opens(self, legacy_store, capsys):
        assert main(["store", "info", str(legacy_store)]) == 2
        assert "repro store migrate" in capsys.readouterr().err
        assert main(["store", "migrate", str(legacy_store)]) == 0
        assert "4 loaded, 1 stale, 1 corrupt" in capsys.readouterr().out
        assert main(["store", "info", str(legacy_store)]) == 0
        info = capsys.readouterr().out
        assert "format:  sqlite" in info
        assert "records: 4 usable, 0 stale, 0 corrupt" in info

    def test_nothing_to_migrate_is_refused(self, tmp_path):
        with pytest.raises(ValidationError, match="no legacy JSON records"):
            migrate_store(tmp_path / "empty")

    def test_legacy_reader_skips_unusable_records_in_place(self, legacy_store):
        before = _snapshot(legacy_store)
        reader = ResultStore(legacy_store)
        usable = self._valid(legacy_store)
        for token, (record, _) in _legacy_files(legacy_store).items():
            if record is None:
                continue  # the torn file: its key is unreadable, so is the point
            options = json.loads(record["options"])
            found = reader.get(record["key"], record["backend"], options)
            assert (found is not None) == (token in usable)
        assert _snapshot(legacy_store) == before

    def test_legacy_reader_is_read_only(self, legacy_store):
        before = _snapshot(legacy_store)
        reader = ResultStore(legacy_store)
        scan = reader.refresh()
        assert (scan.loaded, scan.stale, scan.corrupt) == (4, 1, 1)
        record, _ = next(iter(self._valid(legacy_store).values()))
        options = json.loads(record["options"])
        found = reader.get_many([(record["key"], record["backend"], options)])
        assert found[(record["key"], record["backend"])].to_dict() == record["result"]
        result = found[(record["key"], record["backend"])]
        with pytest.raises(StoreError, match="repro store migrate"):
            reader.put(record["key"], record["backend"], result, options)
        with pytest.raises(StoreError, match="repro store migrate"):
            reader.gc(ttl=1.0)
        assert _snapshot(legacy_store) == before


def _write_legacy_record(
    store_path, key: str, backend: str, result, options=None, **fields
) -> Path:
    """Write one record file in the retired JSON engine's layout.

    ``fields`` override envelope fields (``format``, ``backend_version``…)
    to forge stale records.
    """
    options_key = _canonical_options(options)
    record = {
        "format": STORE_FORMAT_VERSION,
        "spec_version": SCENARIO_SPEC_VERSION,
        "backend": backend,
        "backend_version": backend_version(backend),
        "options": options_key,
        "key": key,
        "result": result.to_dict(),
        "created": time.time(),
        **fields,
    }
    token = point_token(key, backend, options_key)
    path = store_path / "records" / token[:2] / f"{token}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True))
    return path


def _write_legacy_points(store_path, backend: str, scenarios, options=None) -> list:
    """Predict ``scenarios`` and write each as a legacy record file."""
    model = create_backend(backend, **(options or {}))
    results = [model.predict(scenario) for scenario in scenarios]
    for scenario, result in zip(scenarios, results):
        _write_legacy_record(
            store_path, scenario.cache_key(), backend, result, options
        )
    return results


class TestLegacyReader:
    """The read side the JSON engine kept: lookup, versioning, skip-in-place."""

    def test_helper_writes_the_fixture_layout(self, legacy_store):
        for token, (record, _) in _legacy_files(legacy_store).items():
            if record is None or record["backend_version"] != backend_version(
                record["backend"]
            ):
                continue
            result = ResultStore(legacy_store).get(
                record["key"], record["backend"], json.loads(record["options"])
            )
            rewritten = _write_legacy_record(
                legacy_store / "copy",
                record["key"],
                record["backend"],
                result,
                json.loads(record["options"]),
                created=record["created"],
            )
            assert rewritten.stem == token
            assert json.loads(rewritten.read_text()) == record

    def test_roundtrip_and_restart(self, tmp_path):
        result = create_backend("aria").predict(SMALL)
        _write_legacy_record(tmp_path / "store", SMALL.cache_key(), "aria", result)
        assert ResultStore(tmp_path / "store").get(SMALL.cache_key(), "aria") == result
        # A second reader finds it through a lazy probe, then a full scan.
        reopened = ResultStore(tmp_path / "store")
        assert reopened.get(SMALL.cache_key(), "aria") == result
        assert reopened.refresh().loaded == 1

    def test_get_misses_are_none(self, tmp_path):
        reader = ResultStore(tmp_path / "store")
        assert reader.get(SMALL.cache_key(), "aria") is None
        assert reader.get_many([(SMALL.cache_key(), "aria", None)]) == {}
        assert reader.refresh().loaded == 0

    def test_store_path_must_be_directory(self, tmp_path):
        bogus = tmp_path / "file"
        bogus.write_text("not a directory")
        with pytest.raises(StoreError):
            ResultStore(bogus)

    def test_visibility_without_refresh(self, tmp_path):
        """A file written after the reader opened is found by ``get``."""
        reader = ResultStore(tmp_path / "store")  # opened while still empty
        assert reader.get(SMALL.cache_key(), "aria") is None
        result = create_backend("aria").predict(SMALL)
        _write_legacy_record(tmp_path / "store", SMALL.cache_key(), "aria", result)
        assert reader.get(SMALL.cache_key(), "aria") == result

    def test_get_many_mixes_hits_and_misses(self, tmp_path):
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4)]
        results = _write_legacy_points(tmp_path / "store", "aria", scenarios)
        missing = SMALL.with_updates(num_nodes=9)
        found = ResultStore(tmp_path / "store").get_many(
            [(s.cache_key(), "aria", None) for s in scenarios + [missing]]
        )
        assert found == {
            (s.cache_key(), "aria"): result for s, result in zip(scenarios, results)
        }

    @pytest.mark.parametrize(
        "field, value",
        [
            ("format", STORE_FORMAT_VERSION + 1),
            ("spec_version", 999),
            ("backend_version", 999),
        ],
    )
    def test_version_mismatch_invalidates_record(self, tmp_path, field, value):
        result = create_backend("aria").predict(SMALL)
        _write_legacy_record(
            tmp_path / "store", SMALL.cache_key(), "aria", result, **{field: value}
        )
        reader = ResultStore(tmp_path / "store")
        scan = reader.refresh()
        assert (scan.loaded, scan.stale, scan.corrupt) == (0, 1, 0)
        assert reader.get(SMALL.cache_key(), "aria") is None
        assert migrate_store(tmp_path / "store").stale == 1
        # Nothing was usable, yet the store is migrated: it opens, empty.
        assert _rows(tmp_path / "store") == []
        assert open_store(tmp_path / "store").refresh().loaded == 0

    def test_tripathi_version_three_records_are_stale(self, tmp_path):
        store_path = tmp_path / "store"
        for backend in ("mva-forkjoin", "mva-tripathi"):
            result = create_backend(backend).predict(SMALL)
            _write_legacy_record(
                store_path, SMALL.cache_key(), backend, result, backend_version=3
            )
        reader = ResultStore(store_path)
        scan = reader.refresh()
        assert (scan.loaded, scan.stale) == (1, 1)
        assert reader.get(SMALL.cache_key(), "mva-tripathi") is None
        assert reader.get(SMALL.cache_key(), "mva-forkjoin") is not None

    def test_unregistered_backend_records_are_stale(self, tmp_path, temporary_backend):
        temporary_backend("counting-stub", _counting_backend_class())
        result = create_backend("counting-stub").predict(SMALL)
        _write_legacy_record(tmp_path / "store", SMALL.cache_key(), "counting-stub", result)
        assert ResultStore(tmp_path / "store").refresh().loaded == 1
        _REGISTRY.pop("counting-stub")
        reader = ResultStore(tmp_path / "store")
        assert reader.refresh().stale == 1
        assert reader.get(SMALL.cache_key(), "counting-stub") is None

    def test_stale_and_corrupt_records_are_not_quarantined(self, tmp_path):
        store_path = tmp_path / "store"
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4)]
        _write_legacy_points(store_path, "aria", scenarios[:2])
        _write_legacy_record(
            store_path,
            scenarios[2].cache_key(),
            "aria",
            create_backend("aria").predict(scenarios[2]),
            backend_version=999,
        )
        torn = sorted((store_path / "records").glob("??/*.json"))[0]
        torn.write_text(torn.read_text()[:40])
        before = _snapshot(store_path)
        scan = ResultStore(store_path).refresh()
        assert (scan.loaded, scan.stale, scan.corrupt, scan.quarantined) == (1, 1, 1, 0)
        # The reader never writes: both unusable files stay where they were.
        assert not (store_path / QUARANTINE_DIR).exists()
        assert _snapshot(store_path) == before

    def test_record_filed_under_another_point_is_not_answered(self, tmp_path):
        store_path = tmp_path / "store"
        other = SMALL.with_updates(num_nodes=3)
        misfiled = _write_legacy_record(
            store_path, other.cache_key(), "aria", create_backend("aria").predict(other)
        )
        token = point_token(SMALL.cache_key(), "aria", _canonical_options(None))
        target = store_path / "records" / token[:2] / f"{token}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        misfiled.rename(target)
        # The envelope names ``other``: the path alone never makes a hit.
        assert ResultStore(store_path).get(SMALL.cache_key(), "aria") is None


class TestMigratedStoreServes:
    """A migrated store answers a service exactly as a native one would."""

    def test_sweep_rerun_performs_zero_backend_evaluations(self, tmp_path):
        suite = ScenarioSuite.from_sweep("grid", SMALL, num_nodes=[2, 3, 4])
        results = _write_legacy_points(tmp_path / "store", "aria", suite.scenarios)
        assert migrate_store(tmp_path / "store").loaded == 3
        service = PredictionService(backends=["aria"], store=tmp_path / "store")
        warm = service.evaluate_suite(suite, ["aria"])
        assert service.stats().evaluations == 0
        assert service.stats().store_hits == 3
        assert warm.series("aria") == [result.total_seconds for result in results]

    def test_backend_options_partition_the_store(self, tmp_path):
        store_path = tmp_path / "store"
        options = {"map_slots_per_node": 4}
        [configured] = _write_legacy_points(store_path, "vianna", [SMALL], options)
        migrate_store(store_path)
        four_slots = PredictionService(
            backends=["vianna"], backend_options={"vianna": options}, store=store_path
        )
        assert four_slots.evaluate(SMALL, "vianna") == configured
        assert four_slots.stats().store_hits == 1
        defaults = PredictionService(backends=["vianna"], store=store_path)
        assert defaults.evaluate(SMALL, "vianna").metadata["map_slots_per_node"] == 2
        assert defaults.stats().store_hits == 0
        assert defaults.stats().evaluations == 1

    def test_corrupt_records_are_recomputed_and_healed(self, tmp_path):
        store_path = tmp_path / "store"
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4)]
        originals = _write_legacy_points(store_path, "aria", scenarios)
        for record_file in sorted((store_path / "records").glob("??/*.json"))[:2]:
            record_file.write_text("{garbled")
        stats = migrate_store(store_path)
        assert (stats.loaded, stats.corrupt) == (1, 2)
        healed = PredictionService(backends=["aria"], store=store_path)
        for scenario, original in zip(scenarios, originals):
            assert healed.evaluate(scenario, "aria") == original
        assert healed.stats().evaluations == 2
        assert open_store(store_path).refresh().loaded == 3

    def test_migrate_keeps_native_rows(self, tmp_path):
        store_path = tmp_path / "store"
        native = SMALL.with_updates(num_nodes=5)
        service = PredictionService(backends=["aria"], store=store_path)
        kept = service.evaluate(native, "aria")
        service.store.close()
        legacy = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3)]
        _write_legacy_points(store_path, "aria", legacy)
        assert migrate_store(store_path).loaded == 2
        store = open_store(store_path)
        assert store.refresh().loaded == 3
        assert store.get(native.cache_key(), "aria") == kept

    def test_concurrent_migrations_converge(self, tmp_path, legacy_store):
        expected = tmp_path / "expected"
        shutil.copytree(legacy_store, expected, copy_function=shutil.copy2)
        migrate_store(expected)
        errors: list[BaseException] = []

        def migrate() -> None:
            try:
                migrate_store(legacy_store)
            except BaseException as exc:  # noqa: BLE001 — surfaced via the list
                errors.append(exc)

        threads = [threading.Thread(target=migrate) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert _rows(legacy_store) == _rows(expected)


@pytest.mark.parametrize(
    "layout, expected",
    [("absent", None), ("legacy", "json"), ("sqlite", "sqlite"), ("migrated", "sqlite")],
)
def test_detect_store_format(tmp_path, legacy_store, layout, expected):
    path = {"absent": tmp_path / "absent", "sqlite": tmp_path / "native"}.get(
        layout, legacy_store
    )
    if layout == "sqlite":
        open_store(path).put(
            SMALL.cache_key(), "aria", create_backend("aria").predict(SMALL)
        )
    elif layout == "migrated":
        migrate_store(path)
    assert detect_store_format(path) == expected


class TestBatchTransaction:
    """One ``predict_batch`` dispatch is written in one ``put_many``."""

    SUITE = ScenarioSuite(
        name="batch-500",
        scenarios=tuple(
            SMALL.with_updates(num_nodes=nodes, input_size_bytes=megabytes(64 * size))
            for nodes in range(2, 27)
            for size in range(1, 21)
        ),
    )

    def _counted(self, store, monkeypatch):
        calls = {"put": 0, "put_many": []}
        put_many = store.put_many

        def counting_put(*args, **kwargs):
            calls["put"] += 1

        def counting_put_many(records, created=None, tokens=None):
            calls["put_many"].append(len(records))
            put_many(records, created, tokens)

        monkeypatch.setattr(store, "put", counting_put)
        monkeypatch.setattr(store, "put_many", counting_put_many)
        return calls

    def test_500_point_dispatch_is_one_put_many(self, tmp_path, monkeypatch):
        assert len(self.SUITE.scenarios) == 500
        service = PredictionService(backends=["aria"], store=tmp_path / "store")
        calls = self._counted(service.store, monkeypatch)
        result = service.evaluate_suite(self.SUITE, ["aria"])
        assert service.stats().batch_calls == 1
        assert service.stats().evaluations == 500
        assert calls == {"put": 0, "put_many": [500]}
        assert len(_sqlite_tokens(tmp_path / "store")) == 500
        warm = PredictionService(backends=["aria"], store=tmp_path / "store")
        replay = warm.evaluate_suite(self.SUITE, ["aria"])
        assert replay.series("aria") == result.series("aria")
        assert warm.stats().store_hits == 500

    def test_unwritable_batch_logs_once(self, tmp_path, monkeypatch, caplog):
        service = PredictionService(backends=["aria"], store=tmp_path / "store")

        def failing_put_many(records, created=None, tokens=None):
            raise StoreError("disk full")

        monkeypatch.setattr(service.store, "put_many", failing_put_many)
        suite = ScenarioSuite(name="batch-20", scenarios=self.SUITE.scenarios[:20])
        with caplog.at_level(logging.WARNING, logger="repro.api.service"):
            first = service.evaluate_suite(suite, ["aria"])
        assert [r.message for r in caplog.records if "persist" in r.message] == [
            "could not persist 20 results for aria: disk full"
        ]
        # The memory cache still answers the whole batch.
        again = service.evaluate_suite(suite, ["aria"])
        assert again.series("aria") == first.series("aria")
        assert service.stats().memory_hits == 20
