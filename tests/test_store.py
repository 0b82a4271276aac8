"""Durability tests for the persistent result store (:mod:`repro.api.store`).

Covers the hard guarantees the store makes: round-trips across service
restarts, zero backend re-evaluations on a warm store, safe concurrent
writers on one store path, recovery from hand-corrupted records, and
version-based invalidation — and covers them **for both engines**: the
contract-level classes parametrize over the sharded-JSON and SQLite
backends, so every durability guarantee is asserted against each (the
JSON↔SQLite equivalence check).  Engine-specific mechanics (quarantine file
contents, the JSON probe memo, whole-database corruption) get their own
format-pinned classes.
"""

from __future__ import annotations

import json
import logging
import os
import sqlite3
import threading
import time

import pytest

from repro.api import (
    QUARANTINE_DIR,
    PredictionService,
    ResultStore,
    Scenario,
    ScenarioSuite,
    SqliteResultStore,
    backend_version,
    create_backend,
)
from repro.api.backends import _REGISTRY
from repro.api.store import (
    DB_FILENAME,
    STORE_FORMAT_VERSION,
    STORE_FORMATS,
    _canonical_options,
    detect_store_format,
    open_store,
    point_token,
)
from repro.exceptions import StoreError, ValidationError
from repro.units import megabytes

#: Small, fast scenario shared by the store tests.
SMALL = Scenario(
    workload="wordcount",
    input_size_bytes=megabytes(256),
    num_nodes=2,
    num_reduces=2,
    repetitions=1,
    seed=21,
)


@pytest.fixture(params=STORE_FORMATS)
def store_format(request):
    """Run the contract-level tests once per store engine."""
    return request.param


@pytest.fixture
def make_store(store_format):
    """Factory opening a store of the parametrized format at a path."""

    def factory(path):
        return open_store(path, format=store_format)

    factory.format = store_format
    return factory


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


def _record_files(store_path) -> list:
    """All JSON record files of a sharded-JSON store, sorted."""
    return sorted((store_path / "records").glob("??/*.json"))


def _sqlite_tokens(store_path) -> list[str]:
    conn = sqlite3.connect(store_path / DB_FILENAME)
    try:
        return [row[0] for row in conn.execute("SELECT token FROM records ORDER BY token")]
    finally:
        conn.close()


def _corrupt_records(store_path, fmt: str, count: int) -> None:
    """Garble ``count`` records' payloads in place, engine-appropriately."""
    if fmt == "json":
        for record_file in _record_files(store_path)[:count]:
            record_file.write_text("{garbled json!!")
    else:
        conn = sqlite3.connect(store_path / DB_FILENAME)
        try:
            with conn:
                conn.executemany(
                    "UPDATE records SET result = '{garbled' WHERE token = ?",
                    [(token,) for token in _sqlite_tokens(store_path)[:count]],
                )
        finally:
            conn.close()


def _set_version_field(store_path, fmt: str, field: str, value, which: int = 0) -> None:
    """Rewrite one version field of the ``which``-th record (by sort order)."""
    if fmt == "json":
        record_file = _record_files(store_path)[which]
        record = json.loads(record_file.read_text())
        record[field] = value
        record_file.write_text(json.dumps(record))
    else:
        token = _sqlite_tokens(store_path)[which]
        conn = sqlite3.connect(store_path / DB_FILENAME)
        try:
            with conn:
                conn.execute(
                    f"UPDATE records SET {field} = ? WHERE token = ?", (value, token)
                )
        finally:
            conn.close()


def _backdate_point(
    store_path, fmt: str, key: str, backend: str, seconds: float, options=None
) -> None:
    """Make one record look ``seconds`` old (mtime for JSON, ``created`` row)."""
    token = point_token(key, backend, _canonical_options(options))
    past = time.time() - seconds
    if fmt == "json":
        path = store_path / "records" / token[:2] / f"{token}.json"
        os.utime(path, (past, past))
    else:
        conn = sqlite3.connect(store_path / DB_FILENAME)
        try:
            with conn:
                conn.execute(
                    "UPDATE records SET created = ? WHERE token = ?", (past, token)
                )
        finally:
            conn.close()


class TestStoreContract:
    """Engine-agnostic guarantees, asserted for both formats."""

    def test_put_get_roundtrip_and_restart(self, tmp_path, make_store):
        result = create_backend("aria").predict(SMALL)
        store = make_store(tmp_path / "store")
        store.put(SMALL.cache_key(), "aria", result)
        assert store.get(SMALL.cache_key(), "aria") == result
        # A brand-new store on the same path (a "restarted process") sees it —
        # first through a lazy get() probe, then through a full scan.
        reopened = make_store(tmp_path / "store")
        assert reopened.get(SMALL.cache_key(), "aria") == result
        assert len(reopened) == 1
        assert reopened.refresh().loaded == 1

    def test_get_misses_are_none(self, tmp_path, make_store):
        store = make_store(tmp_path / "store")
        assert store.get(SMALL.cache_key(), "aria") is None

    def test_store_path_must_be_directory(self, tmp_path, make_store):
        bogus = tmp_path / "file"
        bogus.write_text("not a directory")
        with pytest.raises(StoreError):
            make_store(bogus)

    def test_cross_process_visibility_without_refresh(self, tmp_path, make_store):
        """A record written through one store object is visible to another."""
        writer = make_store(tmp_path / "store")
        reader = make_store(tmp_path / "store")  # opened while still empty
        result = create_backend("aria").predict(SMALL)
        writer.put(SMALL.cache_key(), "aria", result)
        assert reader.get(SMALL.cache_key(), "aria") == result

    def test_get_many_mixes_hits_and_misses(self, tmp_path, make_store):
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4)]
        backend = create_backend("aria")
        writer = make_store(tmp_path / "store")
        for scenario in scenarios:
            writer.put(scenario.cache_key(), "aria", backend.predict(scenario))
        missing = SMALL.with_updates(num_nodes=9)
        reader = make_store(tmp_path / "store")  # cold: everything is a disk miss
        found = reader.get_many(
            [(s.cache_key(), "aria", None) for s in scenarios + [missing]]
        )
        assert set(found) == {(s.cache_key(), "aria") for s in scenarios}
        for scenario in scenarios:
            assert found[(scenario.cache_key(), "aria")].total_seconds > 0

    def test_put_many_round_trips(self, tmp_path, make_store):
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4)]
        backend = create_backend("aria")
        store = make_store(tmp_path / "store")
        store.put_many(
            [(s.cache_key(), "aria", backend.predict(s), None) for s in scenarios]
        )
        reopened = make_store(tmp_path / "store")
        assert reopened.refresh().loaded == len(scenarios)
        for scenario in scenarios:
            assert reopened.get(scenario.cache_key(), "aria") is not None

    def test_put_racing_refresh_keeps_index_entries(self, tmp_path, make_store):
        """Regression: a ``put`` landing mid-``refresh`` must survive the scan.

        A scan that began before the put cannot have seen its record; naive
        wholesale index replacement on publish dropped such entries from
        memory even though they were durably on disk.  The refresh loop here
        races every put, and every put must still be indexed afterwards.
        """
        store = make_store(tmp_path / "store")
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in range(2, 34)]
        backend = create_backend("aria")
        results = {s.cache_key(): backend.predict(s) for s in scenarios}
        stop = threading.Event()
        errors: list[BaseException] = []

        def refresher() -> None:
            try:
                while not stop.is_set():
                    store.refresh()
            except BaseException as exc:  # noqa: BLE001 — surfaced via the list
                errors.append(exc)

        thread = threading.Thread(target=refresher)
        thread.start()
        try:
            for scenario in scenarios:
                store.put(scenario.cache_key(), "aria", results[scenario.cache_key()])
        finally:
            stop.set()
            thread.join()
        assert not errors
        # Merge semantics: the in-memory index kept every put, no matter how
        # the scans interleaved with the writes.
        assert len(store) == len(scenarios)
        for scenario in scenarios:
            assert store.get(scenario.cache_key(), "aria") == results[scenario.cache_key()]


class TestOpenStore:
    """Engine selection: explicit formats, layout sniffing, mismatch refusal."""

    def test_default_is_json(self, tmp_path):
        store = open_store(tmp_path / "store")
        assert isinstance(store, ResultStore)
        assert detect_store_format(tmp_path / "store") is None  # nothing written yet

    def test_explicit_sqlite_then_sniffed_on_reopen(self, tmp_path):
        store = open_store(tmp_path / "store", format="sqlite")
        assert isinstance(store, SqliteResultStore)
        store.put(SMALL.cache_key(), "aria", create_backend("aria").predict(SMALL))
        assert detect_store_format(tmp_path / "store") == "sqlite"
        reopened = open_store(tmp_path / "store")  # no format: layout decides
        assert isinstance(reopened, SqliteResultStore)
        assert reopened.get(SMALL.cache_key(), "aria") is not None

    @pytest.mark.parametrize("existing, requested", [("json", "sqlite"), ("sqlite", "json")])
    def test_format_mismatch_is_refused(self, tmp_path, existing, requested):
        store = open_store(tmp_path / "store", format=existing)
        store.put(SMALL.cache_key(), "aria", create_backend("aria").predict(SMALL))
        with pytest.raises(ValidationError):
            open_store(tmp_path / "store", format=requested)

    def test_unknown_format_is_refused(self, tmp_path):
        with pytest.raises(ValidationError):
            open_store(tmp_path / "store", format="parquet")


class TestServiceWithStore:
    def test_sweep_rerun_performs_zero_backend_evaluations(
        self, tmp_path, temporary_backend, store_format
    ):
        counting = temporary_backend("counting-stub", _counting_backend_class())
        suite = ScenarioSuite.from_sweep("grid", SMALL, num_nodes=[2, 3, 4])
        first = PredictionService(
            backends=["counting-stub"], store=tmp_path / "store", store_format=store_format
        )
        cold = first.evaluate_suite(suite, ["counting-stub"])
        assert counting.calls == 3
        assert first.stats().evaluations == 3
        # A fresh service on the same path — the "restarted sweep" — answers
        # entirely from disk: zero backend evaluations.
        second = PredictionService(
            backends=["counting-stub"], store=tmp_path / "store", store_format=store_format
        )
        warm = second.evaluate_suite(suite, ["counting-stub"])
        assert counting.calls == 3
        assert second.stats().evaluations == 0
        assert second.stats().store_hits == 3
        assert warm.series("counting-stub") == cold.series("counting-stub")

    def test_backend_options_partition_the_store(self, tmp_path, store_format):
        """Records of differently configured backends must never be shared."""
        store_path = tmp_path / "store"
        four_slots = PredictionService(
            backends=["vianna"],
            backend_options={"vianna": {"map_slots_per_node": 4}},
            store=store_path,
            store_format=store_format,
        )
        configured = four_slots.evaluate(SMALL, "vianna")
        assert configured.metadata["map_slots_per_node"] == 4
        # Default configuration, same store: a miss, not a silent wrong hit.
        defaults = PredictionService(
            backends=["vianna"], store=store_path, store_format=store_format
        )
        default_result = defaults.evaluate(SMALL, "vianna")
        assert defaults.stats().store_hits == 0
        assert defaults.stats().evaluations == 1
        assert default_result.metadata["map_slots_per_node"] == 2
        # Each configuration is warm for its own options.
        rerun = PredictionService(
            backends=["vianna"],
            backend_options={"vianna": {"map_slots_per_node": 4}},
            store=store_path,
            store_format=store_format,
        )
        assert rerun.evaluate(SMALL, "vianna") == configured
        assert rerun.stats().store_hits == 1

    def test_store_survives_cache_clear(self, tmp_path, store_format):
        service = PredictionService(
            backends=["aria"], store=tmp_path / "store", store_format=store_format
        )
        first = service.evaluate(SMALL, "aria")
        service.clear_cache()
        assert service.evaluate(SMALL, "aria") == first
        assert service.stats().store_hits == 1
        assert service.stats().evaluations == 1

    def test_concurrent_writers_on_one_store_path(
        self, tmp_path, temporary_backend, store_format
    ):
        counting = temporary_backend("counting-stub", _counting_backend_class())
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4, 5)]
        services = [
            PredictionService(
                backends=["counting-stub"],
                store=tmp_path / "store",
                store_format=store_format,
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
        merged = open_store(tmp_path / "store", format=store_format)
        scan = merged.refresh()
        assert scan.loaded == len(scenarios)
        assert scan.corrupt == 0
        assert len(merged) == len(scenarios)
        for scenario in scenarios:
            stored = merged.get(scenario.cache_key(), "counting-stub")
            assert stored.total_seconds == float(scenario.num_nodes)
        assert counting.calls >= len(scenarios)

    def test_corrupted_records_are_skipped_and_healed(
        self, tmp_path, caplog, store_format, make_store
    ):
        store_path = tmp_path / "store"
        service = PredictionService(
            backends=["aria"], store=store_path, store_format=store_format
        )
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4)]
        originals = [service.evaluate(scenario, "aria") for scenario in scenarios]
        # Hand-corrupt two of the three records (torn files / garbled rows).
        _corrupt_records(store_path, store_format, 2)
        with caplog.at_level(logging.WARNING, logger="repro.api.store"):
            scan = make_store(store_path).refresh()
        assert scan.loaded == 1
        assert scan.corrupt == 2
        assert any("corrupt" in record.message for record in caplog.records)
        # A fresh service recomputes the lost points and heals the store.
        healed = PredictionService(
            backends=["aria"], store=store_path, store_format=store_format
        )
        for scenario, original in zip(scenarios, originals):
            assert healed.evaluate(scenario, "aria") == original
        assert healed.stats().evaluations == 2
        assert make_store(store_path).refresh().loaded == 3

    def test_unwritable_store_degrades_to_memory_cache(
        self, tmp_path, monkeypatch, store_format, make_store
    ):
        service = PredictionService(
            backends=["aria"], store=tmp_path / "store", store_format=store_format
        )

        def failing_put(key, backend, result, options=None):
            raise StoreError("disk full")

        monkeypatch.setattr(service.store, "put", failing_put)
        first = service.evaluate(SMALL, "aria")
        assert service.evaluate(SMALL, "aria") is first  # memory cache still works
        assert make_store(tmp_path / "store").refresh().loaded == 0


class TestQuarantine:
    """Corrupt records are moved aside, not deleted — and the slot heals."""

    def _quarantine_files(self, store_path) -> list:
        return sorted((store_path / QUARANTINE_DIR).glob("*"))

    def test_corrupt_records_round_trip_through_quarantine(self, tmp_path):
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4)]
        originals = [service.evaluate(scenario, "aria") for scenario in scenarios]
        files = _record_files(store_path)
        assert len(files) == 3
        garbage = "{garbled json!!"
        files[0].write_text(garbage)
        truncated = files[1].read_text()[:40]
        files[1].write_text(truncated)

        scan = ResultStore(store_path).refresh()
        assert scan.corrupt == 2
        assert scan.quarantined == 2
        # The torn bytes are preserved for post-mortems, under a name that
        # says which file broke and why.
        quarantined = self._quarantine_files(store_path)
        assert len(quarantined) == 2
        assert {path.read_text() for path in quarantined} == {garbage, truncated}
        by_original = {path.name.split("--", 1)[1]: path for path in quarantined}
        assert set(by_original) == {files[0].name, files[1].name}
        reasons = {path.name.split("--", 1)[0] for path in quarantined}
        assert reasons <= {"unreadable", "malformed", "undecodable"}
        # ...and the record slots themselves are free again.
        assert len(_record_files(store_path)) == 1

        # Re-evaluating heals the slots; the quarantine keeps its evidence.
        healed = PredictionService(backends=["aria"], store=store_path)
        for scenario, original in zip(scenarios, originals):
            assert healed.evaluate(scenario, "aria") == original
        assert ResultStore(store_path).refresh().corrupt == 0
        assert len(_record_files(store_path)) == 3
        assert len(self._quarantine_files(store_path)) == 2

    def test_sqlite_corrupt_rows_round_trip_through_quarantine(self, tmp_path):
        """Row-level corruption: dumped to quarantine, deleted, slot heals."""
        store_path = tmp_path / "store"
        service = PredictionService(
            backends=["aria"], store=store_path, store_format="sqlite"
        )
        scenarios = [SMALL.with_updates(num_nodes=nodes) for nodes in (2, 3, 4)]
        originals = [service.evaluate(scenario, "aria") for scenario in scenarios]
        _corrupt_records(store_path, "sqlite", 2)
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
        healed = PredictionService(
            backends=["aria"], store=store_path, store_format="sqlite"
        )
        for scenario, original in zip(scenarios, originals):
            assert healed.evaluate(scenario, "aria") == original
        assert SqliteResultStore(store_path).refresh().loaded == 3
        assert len(self._quarantine_files(store_path)) == 2

    def test_sqlite_unreadable_database_is_quarantined_wholesale(self, tmp_path):
        """File-level corruption: the damaged DB is moved aside, not fatal."""
        store_path = tmp_path / "store"
        service = PredictionService(
            backends=["aria"], store=store_path, store_format="sqlite"
        )
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

    def test_stale_records_are_not_quarantined(self, tmp_path, store_format, make_store):
        store_path = tmp_path / "store"
        service = PredictionService(
            backends=["aria"], store=store_path, store_format=store_format
        )
        service.evaluate(SMALL, "aria")
        _set_version_field(store_path, store_format, "backend_version", 999)
        scan = make_store(store_path).refresh()
        # Stale is a versioning outcome, not corruption: the (well-formed)
        # record stays in place for inspection or rollback.
        assert scan.stale == 1
        assert scan.quarantined == 0
        assert not (store_path / QUARANTINE_DIR).exists()
        if store_format == "json":
            assert _record_files(store_path)[0].exists()
        else:
            assert len(_sqlite_tokens(store_path)) == 1

    def test_quarantine_failure_still_skips_the_record(self, tmp_path, monkeypatch):
        store_path = tmp_path / "store"
        service = PredictionService(backends=["aria"], store=store_path)
        service.evaluate(SMALL, "aria")
        _record_files(store_path)[0].write_text("{broken")
        import repro.api.store.json_store as json_store_module

        def failing_replace(src, dst):
            raise OSError("read-only filesystem")

        monkeypatch.setattr(json_store_module.os, "replace", failing_replace)
        scan = ResultStore(store_path).refresh()
        # Never-fatal contract: the record is skipped and counted even when
        # the quarantine move itself fails.
        assert scan.corrupt == 1
        assert scan.quarantined == 0
        assert scan.loaded == 0


class TestVersioning:
    def _write_one_record(self, store_path, store_format) -> str:
        service = PredictionService(
            backends=["aria"], store=store_path, store_format=store_format
        )
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
    def test_version_mismatch_invalidates_record(
        self, tmp_path, field, value, store_format, make_store
    ):
        key = self._write_one_record(tmp_path / "store", store_format)
        _set_version_field(tmp_path / "store", store_format, field, value)
        reopened = make_store(tmp_path / "store")
        scan = reopened.refresh()
        assert scan.stale == 1
        assert scan.loaded == 0
        assert reopened.get(key, "aria") is None

    def test_analytic_backend_versions_are_pinned(self):
        # Tripathi's P-node maximum became exact in version 3; fork/join
        # never takes a maximum of distributions and stays at 2.
        assert backend_version("mva-tripathi") == 3
        assert backend_version("mva-forkjoin") == 2

    def test_tripathi_version_two_records_are_stale(
        self, tmp_path, store_format, make_store
    ):
        store_path = tmp_path / "store"
        service = PredictionService(
            backends=["mva-forkjoin", "mva-tripathi"],
            store=store_path,
            store_format=store_format,
        )
        for backend in ("mva-forkjoin", "mva-tripathi"):
            service.evaluate(SMALL, backend)
        for which in range(2):
            _set_version_field(store_path, store_format, "backend_version", 2, which)
        reopened = make_store(store_path)
        scan = reopened.refresh()
        assert (scan.loaded, scan.stale) == (1, 1)
        assert reopened.get(SMALL.cache_key(), "mva-tripathi") is None
        assert reopened.get(SMALL.cache_key(), "mva-forkjoin") is not None

    def test_unregistered_backend_records_are_stale(
        self, tmp_path, temporary_backend, store_format, make_store
    ):
        temporary_backend("counting-stub", _counting_backend_class())
        service = PredictionService(
            backends=["counting-stub"], store=tmp_path / "store", store_format=store_format
        )
        service.evaluate(SMALL, "counting-stub")
        # After the backend disappears from the registry (fixture teardown
        # simulated by popping early), its records cannot be validated.
        _REGISTRY.pop("counting-stub")
        reopened = make_store(tmp_path / "store")
        assert reopened.refresh().stale == 1
        assert reopened.get(SMALL.cache_key(), "counting-stub") is None


class TestProbeMemo:
    """Unusable probes cost one stat (or one indexed read), not a parse.

    Regression for the hot-path waste where every ``get`` of a point whose
    record was stale re-opened and re-JSON-decoded the file — and proof
    that memoisation does *not* sacrifice cross-process visibility.
    """

    def _count_reads(self, store):
        """Instrument the engine's record-decode path with a call counter."""
        calls: list = []
        if isinstance(store, ResultStore):
            original = store._read_record

            def counting(path, stats):
                calls.append(path)
                return original(path, stats)

            store._read_record = counting
        else:
            original = store._load_row

            def counting(row, stats, quarantine_and_delete=True):
                calls.append(row[0])
                return original(row, stats, quarantine_and_delete)

            store._load_row = counting
        return calls

    def test_stale_record_is_parsed_once(self, tmp_path, store_format, make_store):
        store_path = tmp_path / "store"
        service = PredictionService(
            backends=["aria"], store=store_path, store_format=store_format
        )
        service.evaluate(SMALL, "aria")
        _set_version_field(store_path, store_format, "backend_version", 999)
        reopened = make_store(store_path)
        reads = self._count_reads(reopened)
        for _ in range(5):
            assert reopened.get(SMALL.cache_key(), "aria") is None
        # One parse classified the record stale; the other four lookups hit
        # the memo (a stat / indexed fetch, but no decode).
        assert len(reads) == 1

    def test_memo_yields_to_a_peer_overwrite(self, tmp_path, store_format, make_store):
        """A peer rewriting the slot with a valid record is seen immediately."""
        store_path = tmp_path / "store"
        service = PredictionService(
            backends=["aria"], store=store_path, store_format=store_format
        )
        original = service.evaluate(SMALL, "aria")
        _set_version_field(store_path, store_format, "backend_version", 999)
        reopened = make_store(store_path)
        assert reopened.get(SMALL.cache_key(), "aria") is None  # memoised as stale
        # A concurrent process heals the slot (atomic replace / row upsert
        # with a fresh write stamp): the memo must not mask it.
        peer = make_store(store_path)
        peer.put(SMALL.cache_key(), "aria", original)
        assert reopened.get(SMALL.cache_key(), "aria") == original

    def test_memo_invalidated_by_local_put(self, tmp_path, store_format, make_store):
        store_path = tmp_path / "store"
        service = PredictionService(
            backends=["aria"], store=store_path, store_format=store_format
        )
        original = service.evaluate(SMALL, "aria")
        _set_version_field(store_path, store_format, "backend_version", 999)
        reopened = make_store(store_path)
        assert reopened.get(SMALL.cache_key(), "aria") is None  # memoised as stale
        reopened.put(SMALL.cache_key(), "aria", original)
        assert reopened.get(SMALL.cache_key(), "aria") == original


class TestGc:
    """TTL expiry, stale purge, size-capped eviction, lease reaping."""

    def _seed(self, store_path, store_format, nodes=(2, 3, 4)):
        service = PredictionService(
            backends=["aria"], store=store_path, store_format=store_format
        )
        scenarios = [SMALL.with_updates(num_nodes=n) for n in nodes]
        for scenario in scenarios:
            service.evaluate(scenario, "aria")
        if store_format == "sqlite":
            service.store.close()
        return scenarios

    def test_ttl_expires_old_records(self, tmp_path, store_format, make_store):
        store_path = tmp_path / "store"
        scenarios = self._seed(store_path, store_format)
        for scenario in scenarios:
            _backdate_point(store_path, store_format, scenario.cache_key(), "aria", 100.0)
        store = make_store(store_path)
        stats = store.gc(ttl=50.0)
        assert stats.examined == 3
        assert stats.expired == 3
        assert stats.purged == 3
        assert stats.remaining == 0
        assert not stats.dry_run
        if store_format == "json":
            assert stats.reclaimed_bytes > 0
            assert stats.shards_removed >= 1  # emptied shard dirs compacted away
        for scenario in scenarios:
            assert store.get(scenario.cache_key(), "aria") is None
        assert make_store(store_path).refresh().loaded == 0

    def test_young_records_survive_ttl(self, tmp_path, store_format, make_store):
        store_path = tmp_path / "store"
        scenarios = self._seed(store_path, store_format)
        stats = make_store(store_path).gc(ttl=3600.0)
        assert stats.expired == 0
        assert stats.remaining == 3
        assert make_store(store_path).refresh().loaded == len(scenarios)

    def test_max_records_evicts_oldest_first(self, tmp_path, store_format, make_store):
        store_path = tmp_path / "store"
        scenarios = self._seed(store_path, store_format, nodes=(2, 3, 4, 5))
        # Stagger the ages: scenarios[0] oldest ... scenarios[3] newest.
        for position, scenario in enumerate(scenarios):
            _backdate_point(
                store_path, store_format, scenario.cache_key(), "aria",
                600.0 - 100.0 * position,
            )
        store = make_store(store_path)
        stats = store.gc(max_records=2)
        assert stats.evicted == 2
        assert stats.remaining == 2
        for scenario in scenarios[:2]:  # the two oldest are gone
            assert store.get(scenario.cache_key(), "aria") is None
        for scenario in scenarios[2:]:  # the two newest survive
            assert store.get(scenario.cache_key(), "aria") is not None

    def test_dry_run_reports_without_deleting(self, tmp_path, store_format, make_store):
        store_path = tmp_path / "store"
        scenarios = self._seed(store_path, store_format)
        for scenario in scenarios:
            _backdate_point(store_path, store_format, scenario.cache_key(), "aria", 100.0)
        store = make_store(store_path)
        stats = store.gc(ttl=50.0, dry_run=True)
        assert stats.dry_run
        assert stats.expired == 3
        assert "would purge 3" in stats.describe()
        # Nothing was actually removed.
        assert make_store(store_path).refresh().loaded == 3

    def test_stale_records_are_purged(self, tmp_path, store_format, make_store):
        store_path = tmp_path / "store"
        self._seed(store_path, store_format, nodes=(2, 3))
        _set_version_field(store_path, store_format, "backend_version", 999)
        stats = make_store(store_path).gc()
        # gc is the explicit "this data is dead" pass: unlike the read path,
        # it removes stale records instead of skipping them in place.
        assert stats.stale == 1
        assert stats.remaining == 1
        assert make_store(store_path).refresh().loaded == 1

    def test_expired_leases_are_reaped(self, tmp_path, store_format, make_store):
        store = make_store(tmp_path / "store")
        doomed = store.lease_manager("crashed-worker", ttl=0.05)
        assert doomed.try_claim("a" * 64)
        assert doomed.try_claim("b" * 64)
        live = store.lease_manager("live-worker", ttl=3600.0)
        assert live.try_claim("c" * 64)
        time.sleep(0.1)  # let the short leases lapse
        stats = store.gc()
        assert stats.leases_removed == 2
        # The live worker's claim is untouched.
        remaining = store.lease_manager("observer").scan()
        assert [info.token for info in remaining] == ["c" * 64]
        assert remaining[0].worker == "live-worker"

    def test_gc_on_empty_store(self, tmp_path, make_store):
        stats = make_store(tmp_path / "store").gc(ttl=1.0, max_records=10)
        assert stats.examined == 0
        assert stats.purged == 0
        assert stats.remaining == 0
