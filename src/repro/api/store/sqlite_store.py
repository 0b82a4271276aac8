"""Single-file SQLite result store: the one engine stores are written with.

Every record is one row of one WAL-mode SQLite file
(``<store>/store.sqlite3``), so a cold ``get_many`` over an arbitrary grid
is a handful of indexed ``SELECT``\\ s regardless of store size, and
``put_many`` writes a whole batch of results in one transaction.

Records are versioned three ways — the store format itself, the scenario
spec (:data:`~repro.api.scenario.SCENARIO_SPEC_VERSION`), and the producing
backend's ``version`` attribute.  A row written under any other version is
*stale*: skipped in place on read (it is valid data for another code
version) and purged by :meth:`SqliteResultStore.gc`.  Corruption is never
fatal, at two granularities:

* **row-level** — a row whose ``result`` payload fails to decode is counted
  corrupt, a JSON dump of the row is quarantined into
  ``<store>/.quarantine/``, and the row is deleted so the next put of that
  point writes a fresh record;
* **file-level** — an unopenable/unreadable database file is itself moved
  into quarantine and a fresh empty database takes its place.

Unusable probe outcomes are memoised by the row's ``created`` stamp: a
stale or corrupt row is decoded once, not on every ``get``, while a peer
overwriting the row (which rewrites ``created``) is still seen at once.

WAL mode plus a busy timeout makes concurrent cross-process writers safe;
within a process a single connection (``check_same_thread=False``) is
shared, with every database operation serialised under the store lock.

A connection must not cross ``fork()`` (process-pool workers are forked
while other threads record results): a fork hook holds every open store's
lock across the fork, so no thread is inside SQLite when it happens, and the
child drops the inherited connections unclosed and reconnects if it needs
to.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import sqlite3
import threading
import time
import weakref
from collections.abc import Sequence
from pathlib import Path

from ...exceptions import StoreError
from ..backends import backend_version
from ..results import PredictionResult
from ..scenario import SCENARIO_SPEC_VERSION
from .base import (
    LEASES_DIR,
    QUARANTINE_DIR,
    STORE_FORMAT_VERSION,
    BaseResultStore,
    GcStats,
    StoreStats,
    _canonical_options,
    point_token,
)
from .leases import LeaseManager

logger = logging.getLogger(__name__)

#: Name of the database file inside the store directory.
DB_FILENAME = "store.sqlite3"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    token TEXT PRIMARY KEY,
    format INTEGER NOT NULL,
    spec_version INTEGER NOT NULL,
    backend TEXT NOT NULL,
    -- no declared type: BLOB affinity stores the backend's version verbatim
    -- (int, string, or NULL for an unregistered backend)
    backend_version,
    options TEXT NOT NULL,
    key TEXT NOT NULL,
    result TEXT NOT NULL,
    created REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS records_created ON records (created);
"""

_ROW_FIELDS = (
    "token",
    "format",
    "spec_version",
    "backend",
    "backend_version",
    "options",
    "key",
    "result",
    "created",
)

_SELECT = f"SELECT {', '.join(_ROW_FIELDS)} FROM records"

#: Every store of this process, for the fork hook below.
_OPEN_STORES: "weakref.WeakSet[SqliteResultStore]" = weakref.WeakSet()
#: Serialises forks, and holds the stores one fork has locked.
_FORK_LOCK = threading.Lock()
_FORK_HELD: "list[SqliteResultStore]" = []
#: Connections a forked child inherited: kept referenced so the child never
#: closes (and so never touches) a connection its parent is still using.
_INHERITED: list[sqlite3.Connection] = []


def _before_fork() -> None:
    _FORK_LOCK.acquire()
    _FORK_HELD[:] = list(_OPEN_STORES)
    for store in _FORK_HELD:
        store._lock.acquire()


def _after_fork(in_child: bool) -> None:
    for store in _FORK_HELD:
        if in_child and store._conn is not None:
            _INHERITED.append(store._conn)
            store._conn = None
        store._lock.release()
    _FORK_HELD.clear()
    _FORK_LOCK.release()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_before_fork,
        after_in_parent=lambda: _after_fork(in_child=False),
        after_in_child=lambda: _after_fork(in_child=True),
    )


class SqliteResultStore(BaseResultStore):
    """Disk-backed result mapping, single-file SQLite engine."""

    format_name = "sqlite"

    def __init__(self, path: str | os.PathLike) -> None:
        super().__init__(path)
        self._db_path = self._path / DB_FILENAME
        self._conn: sqlite3.Connection | None = None
        # Unusable-probe memo: token -> ``created`` stamp the row was last
        # found stale/corrupt at.  A peer overwriting the row rewrites
        # ``created``, so the memo never hides a fresh record.  Guarded by
        # ``self._lock``; invalidated by put() and cleared by refresh().
        self._stale_rows: dict[str, float] = {}
        _OPEN_STORES.add(self)

    # -- connection management -------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        """Open (or recover) the database.  Caller holds ``self._lock``."""
        if self._conn is not None:
            return self._conn
        self._path.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = self._open_db()
        except sqlite3.Error as exc:
            # File-level corruption: quarantine the damaged database and
            # start fresh.
            self._quarantine_db(str(exc))
            try:
                self._conn = self._open_db()
            except sqlite3.Error as fresh_exc:
                raise StoreError(
                    f"cannot open store database {str(self._db_path)!r}: {fresh_exc}"
                ) from fresh_exc
        return self._conn

    def _open_db(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self._db_path, timeout=30.0, check_same_thread=False
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            conn.executescript(_SCHEMA)
            conn.commit()
        except sqlite3.Error:
            conn.close()
            raise
        return conn

    def _quarantine_db(self, detail: str) -> None:
        self._conn = None
        target_dir = self._path / QUARANTINE_DIR
        target = target_dir / f"unreadable-db--{DB_FILENAME}.{os.getpid()}"
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(self._db_path, target)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(self._db_path)
            target = None
        for suffix in ("-wal", "-shm"):
            with contextlib.suppress(OSError):
                os.unlink(f"{self._db_path}{suffix}")
        logger.warning(
            "store database %s is unreadable (%s)%s; starting fresh",
            self._db_path,
            detail,
            f"; quarantined to {target}" if target else "",
        )

    def close(self) -> None:
        """Close the database connection (reopened lazily on next use)."""
        with self._lock:
            if self._conn is not None:
                with contextlib.suppress(sqlite3.Error):
                    self._conn.close()
                self._conn = None

    # -- lookup ---------------------------------------------------------------

    def get(
        self, key: str, backend: str, options: dict | None = None
    ) -> PredictionResult | None:
        """The stored result of one point, or ``None``.

        ``options`` are the backend's constructor options: a record is only a
        hit for the configuration that produced it.  A miss probes the
        database before giving up, so rows committed by a concurrent process
        are picked up without an explicit :meth:`refresh`.
        """
        options_key = _canonical_options(options)
        index_key = (key, backend, options_key)
        token = point_token(key, backend, options_key)
        with self._lock:
            hit = self._index.get(index_key)
            if hit is not None:
                return hit
            row = self._fetch_one(token)
            if row is None:
                return None
            if self._stale_rows.get(token) == row[8]:
                return None  # unchanged since it was last found unusable
            loaded = self._load_row(row, StoreStats())
            if loaded is None or loaded[:3] != index_key:
                self._stale_rows[token] = row[8]
                return None
            self._stale_rows.pop(token, None)
            self._index[index_key] = loaded[3]
            return loaded[3]

    def get_many(
        self, points: Sequence[tuple[str, str, dict | None]]
    ) -> dict[tuple[str, str], PredictionResult]:
        """Bulk lookup; misses are resolved with batched indexed ``SELECT``\\ s."""
        found: dict[tuple[str, str], PredictionResult] = {}
        with self._lock:
            misses: dict[str, tuple[str, str, str]] = {}
            for key, backend, options in points:
                options_key = _canonical_options(options)
                index_key = (key, backend, options_key)
                hit = self._index.get(index_key)
                if hit is not None:
                    found[(key, backend)] = hit
                    continue
                misses[point_token(key, backend, options_key)] = index_key
            if not misses:
                return found
            tokens = list(misses)
            stats = StoreStats()
            for start in range(0, len(tokens), 500):
                chunk = tokens[start : start + 500]
                rows = self._execute(
                    f"{_SELECT} WHERE token IN ({','.join('?' * len(chunk))})",
                    chunk,
                ).fetchall()
                for row in rows:
                    token = row[0]
                    index_key = misses[token]
                    if self._stale_rows.get(token) == row[8]:
                        continue  # unchanged since it was last found unusable
                    loaded = self._load_row(row, stats)
                    if loaded is None or loaded[:3] != index_key:
                        self._stale_rows[token] = row[8]
                        continue
                    self._stale_rows.pop(token, None)
                    self._index[index_key] = loaded[3]
                    found[(index_key[0], index_key[1])] = loaded[3]
        return found

    # -- writes ---------------------------------------------------------------

    def put_many(
        self,
        records: Sequence[tuple[str, str, PredictionResult, dict | None]],
        created: Sequence[float] | None = None,
    ) -> None:
        """Persist many results (upserts) in **one transaction**.

        Each row's ``created`` stamp is now, or the matching entry of
        ``created`` (migration carries the legacy files' mtimes this way).
        """
        if not records:
            return
        rows = []
        indexed = []
        stamps = created if created is not None else [time.time()] * len(records)
        for record, stamp in zip(records, stamps, strict=True):
            key, backend, result, options = record
            options_key = _canonical_options(options)
            try:
                payload = json.dumps(result.to_dict(), sort_keys=True)
            except (TypeError, ValueError) as exc:
                raise StoreError(
                    f"cannot serialise store record for key {key!r}: {exc}"
                ) from exc
            rows.append(
                (
                    point_token(key, backend, options_key),
                    STORE_FORMAT_VERSION,
                    SCENARIO_SPEC_VERSION,
                    backend,
                    backend_version(backend),
                    options_key,
                    key,
                    payload,
                    stamp,
                )
            )
            indexed.append(((key, backend, options_key), result))
        with self._lock:
            conn = self._connect()
            try:
                with conn:  # one transaction for the whole batch
                    conn.executemany(
                        f"INSERT OR REPLACE INTO records ({', '.join(_ROW_FIELDS)}) "
                        f"VALUES ({','.join('?' * len(_ROW_FIELDS))})",
                        rows,
                    )
            except sqlite3.Error as exc:
                raise StoreError(
                    f"cannot write store records to {str(self._db_path)!r}: {exc}"
                ) from exc
            for index_key, result in indexed:
                self._index[index_key] = result
            for row in rows:
                self._stale_rows.pop(row[0], None)

    # -- maintenance ----------------------------------------------------------

    def refresh(self) -> StoreStats:
        """Full table scan, merged over the live index.

        Merging (rather than wholesale replacement) closes the race where a
        concurrent ``put`` commits after the scan already read the table:
        its index entry must survive — see
        :meth:`BaseResultStore._publish_refresh`.
        """
        stats = StoreStats()
        index: dict[tuple[str, str, str], PredictionResult] = {}
        with self._lock:
            self._stale_rows.clear()
            if self._db_path.exists() or self._conn is not None:
                for row in self._execute(f"{_SELECT} ORDER BY token").fetchall():
                    loaded = self._load_row(row, stats)
                    if loaded is not None:
                        key, backend, options_key, result = loaded
                        index[(key, backend, options_key)] = result
        return self._publish_refresh(index, stats)

    def gc(
        self,
        ttl: float | None = None,
        max_records: int | None = None,
        dry_run: bool = False,
    ) -> GcStats:
        """TTL expiry, stale purge, size-capped eviction, then ``VACUUM``.

        Row age is its ``created`` column (rewritten on every put).  After a
        non-dry pass the database is vacuumed so reclaimed pages actually
        shrink the file.
        """
        stats = GcStats(dry_run=dry_run)
        now = time.time()
        purged_keys: list[tuple[str, str, str]] = []
        with self._lock:
            if not self._db_path.exists() and self._conn is None:
                self._gc_leases(stats, dry_run)
                return stats
            size_before = 0
            with contextlib.suppress(OSError):
                size_before = self._db_path.stat().st_size
            doomed: list[str] = []
            survivors: list[tuple[float, str]] = []
            for row in self._execute(f"{_SELECT} ORDER BY created").fetchall():
                stats.examined += 1
                scan = StoreStats()
                loaded = self._load_row(row, scan, quarantine_and_delete=not dry_run)
                token, created = row[0], row[8]
                if scan.corrupt:
                    stats.corrupt += 1
                    continue  # quarantined (and deleted) by _load_row
                if scan.stale:
                    stats.stale += 1
                    doomed.append(token)
                    continue
                if loaded is None:
                    continue
                if ttl is not None and now - created > ttl:
                    stats.expired += 1
                    doomed.append(token)
                    purged_keys.append(loaded[:3])
                    continue
                survivors.append((created, token, loaded[:3]))
            if max_records is not None and len(survivors) > max_records:
                excess = len(survivors) - max_records
                for _created, token, index_key in survivors[:excess]:
                    stats.evicted += 1
                    doomed.append(token)
                    purged_keys.append(index_key)
                survivors = survivors[excess:]
            stats.remaining = len(survivors)
            if not dry_run and doomed:
                conn = self._connect()
                with conn:
                    for start in range(0, len(doomed), 500):
                        chunk = doomed[start : start + 500]
                        conn.execute(
                            f"DELETE FROM records WHERE token IN "
                            f"({','.join('?' * len(chunk))})",
                            chunk,
                        )
            if not dry_run:
                conn = self._connect()
                with contextlib.suppress(sqlite3.Error):
                    conn.execute("VACUUM")
                with contextlib.suppress(OSError):
                    stats.reclaimed_bytes = max(
                        0, size_before - self._db_path.stat().st_size
                    )
            elif doomed:
                # Rough dry-run estimate: average row weight times doomed rows.
                if stats.examined:
                    stats.reclaimed_bytes = int(
                        size_before * len(doomed) / stats.examined
                    )
        self._drop_indexed(purged_keys)
        self._gc_leases(stats, dry_run)
        return stats

    def _gc_leases(self, stats: GcStats, dry_run: bool) -> None:
        """Reap expired claim files under ``leases/``."""
        leases_dir = self._path / LEASES_DIR
        if not leases_dir.is_dir():
            return
        manager = LeaseManager(leases_dir, worker_id="gc")
        for info in manager.scan():
            if info.expired():
                stats.leases_removed += 1
                if not dry_run:
                    manager.reap(info.token)

    def _drop_indexed(self, index_keys: Sequence[tuple[str, str, str]]) -> None:
        """Forget purged records in memory so gc and the index agree."""
        with self._lock:
            for index_key in index_keys:
                self._index.pop(index_key, None)

    # -- internals ------------------------------------------------------------

    def _execute(self, sql: str, params: Sequence = ()) -> sqlite3.Cursor:
        """Run one statement, recovering once from file-level corruption.

        Caller holds ``self._lock``.
        """
        conn = self._connect()
        try:
            return conn.execute(sql, params)
        except sqlite3.DatabaseError as exc:
            self._quarantine_db(str(exc))
            return self._connect().execute(sql, params)

    def _fetch_one(self, token: str) -> tuple | None:
        return self._execute(f"{_SELECT} WHERE token = ?", (token,)).fetchone()

    def _quarantine_row(self, row: tuple, reason: str) -> Path | None:
        """Preserve a corrupt row as a JSON file under ``.quarantine/``."""
        target_dir = self._path / QUARANTINE_DIR
        target = target_dir / f"{reason}--{row[0]}.json"
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            target.write_text(
                json.dumps(dict(zip(_ROW_FIELDS, row)), sort_keys=True, default=repr)
            )
        except OSError:
            return None
        return target

    def _load_row(
        self, row: tuple, stats: StoreStats, quarantine_and_delete: bool = True
    ) -> tuple[str, str, str, PredictionResult] | None:
        """Decode one row; corruption and staleness are never fatal.

        Caller holds ``self._lock``.  A corrupt row is quarantined to a JSON
        file and (when ``quarantine_and_delete``) deleted from the table —
        the row-level analogue of moving a torn record file aside.
        """
        (token, fmt, spec, backend, b_version, options_key, key, payload, _) = row
        if fmt != STORE_FORMAT_VERSION or spec != SCENARIO_SPEC_VERSION or (
            b_version != backend_version(backend)
        ):
            stats.stale += 1
            logger.info("skipping stale store row %s (version mismatch)", token)
            return None
        try:
            result = PredictionResult.from_dict(json.loads(payload))
        except Exception as exc:  # noqa: BLE001 — any decode failure is corruption
            stats.corrupt += 1
            quarantined = self._quarantine_row(row, "undecodable")
            if quarantined is not None:
                stats.quarantined += 1
            if quarantine_and_delete:
                with contextlib.suppress(sqlite3.Error, StoreError):
                    conn = self._connect()
                    with conn:
                        conn.execute("DELETE FROM records WHERE token = ?", (token,))
            logger.warning(
                "skipping corrupt store row %s (undecodable: %s)%s",
                token,
                exc,
                f"; quarantined to {quarantined}" if quarantined else "",
            )
            return None
        stats.loaded += 1
        return key, backend, options_key, result
