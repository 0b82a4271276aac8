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
* **file-level** — a file SQLite reports as not a database (or malformed)
  is itself moved into quarantine and a fresh empty database takes its
  place.  A *locked* database is not a corrupt one: a busy timeout raises
  :class:`~repro.exceptions.StoreError` and leaves the file alone.

A stale row is recognised by its three version columns before its
payload is decoded, so skipping one costs a comparison, not a parse.

The same file holds the cooperative-sweep ``leases`` table
(:mod:`repro.api.store.leases`): :meth:`SqliteResultStore.lease_manager`
hands out a manager whose claims go through this store's connection, so
every worker sharing the store path shares one claim namespace.

WAL mode plus a busy timeout makes concurrent cross-process writers safe;
within a process a single connection (``check_same_thread=False``) is
shared, with every database operation serialised under the store lock.

A connection must not cross ``fork()`` (process-pool workers are forked
while other threads record results): a fork hook holds every open store's
lock across the fork, so no thread is inside SQLite when it happens, and the
child drops the inherited connections unclosed and reconnects if it needs
to.  A collected store's connection is not closed by the collector (which
may run in any thread, mid-fork) but later, under a live store's lock or in
the fork hook.
"""

from __future__ import annotations

import contextlib
import functools
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
    QUARANTINE_DIR,
    STORE_FORMAT_VERSION,
    BaseResultStore,
    GcStats,
    StoreStats,
    TokenMemo,
    _canonical_options,
    point_token,
)
from .leases import DEFAULT_LEASE_TTL, LeaseManager

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
CREATE TABLE IF NOT EXISTS leases (
    token TEXT PRIMARY KEY,
    worker TEXT NOT NULL,
    acquired REAL NOT NULL,
    renewed REAL NOT NULL,
    expires_at REAL NOT NULL
);
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
#: Most tokens one bulk-lookup ``SELECT`` binds.
_LOOKUP_CHUNK = 500


@functools.lru_cache(maxsize=_LOOKUP_CHUNK)
def _select_tokens(count: int) -> str:
    """The ``SELECT`` of ``count`` tokens, built once per chunk length."""
    return f"{_SELECT} WHERE token IN ({','.join('?' * count)})"

#: Seconds a statement waits for a peer's lock before it fails.
_BUSY_TIMEOUT_S = 30.0


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Put the database in WAL mode (a no-op once the file is WAL).

    Switching a new file to WAL needs an exclusive lock, and SQLite does
    not apply the busy timeout to the switch: when peers open the same new
    file at once, every switch but one fails at once with "database is
    locked".  A loser retries until the winner's switch is visible.  Only
    the switch is retried, so a file that is already WAL but locked fails
    after the busy timeout like any other statement.
    """
    deadline = time.monotonic() + _BUSY_TIMEOUT_S
    while conn.execute("PRAGMA journal_mode").fetchone()[0] != "wal":
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.01)


#: Every store of this process, for the fork hook below.
_OPEN_STORES: "weakref.WeakSet[SqliteResultStore]" = weakref.WeakSet()
#: Serialises forks, and holds the stores one fork has locked.
_FORK_LOCK = threading.Lock()
_FORK_HELD: "list[SqliteResultStore]" = []
#: Connections a forked child inherited: kept referenced so the child never
#: closes (and so never touches) a connection its parent is still using.
_INHERITED: list[sqlite3.Connection] = []
#: Connections of garbage-collected stores, waiting to be closed.  The
#: collector may run in any thread at any moment, and closing a connection
#: there could put that thread inside SQLite (holding its process-wide
#: mutexes) just as another thread forks, leaving a child that hangs in its
#: first ``connect``.  They are closed where no fork can start instead: by a
#: thread holding a live store's lock, or by the fork hook itself.
_ORPHANS: list[sqlite3.Connection] = []


def _close_orphans() -> None:
    """Close collected stores' connections; the caller excludes forks."""
    while _ORPHANS:
        with contextlib.suppress(IndexError):  # a peer thread took the last
            _ORPHANS.pop().close()


def _before_fork() -> None:
    _FORK_LOCK.acquire()
    _FORK_HELD[:] = list(_OPEN_STORES)
    for store in _FORK_HELD:
        store._lock.acquire()
    _close_orphans()


def _after_fork(in_child: bool) -> None:
    if in_child:
        # A store collected in another thread after the hook's drain.
        _INHERITED.extend(_ORPHANS)
        _ORPHANS.clear()
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
        _OPEN_STORES.add(self)

    def __del__(self, _orphans: list = _ORPHANS) -> None:
        # ``_orphans`` is bound here because module globals may already be
        # cleared when a store is collected at interpreter exit.
        conn = getattr(self, "_conn", None)
        if conn is not None:
            _orphans.append(conn)

    # -- connection management -------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        """Open (or recover) the database.  Caller holds ``self._lock``."""
        if self._conn is not None:
            return self._conn
        _close_orphans()
        self._path.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = self._open_db()
        except sqlite3.OperationalError as exc:
            raise self._unavailable(exc) from exc
        except sqlite3.DatabaseError as exc:
            # File-level corruption: quarantine the damaged database and
            # start fresh.
            self._quarantine_db(str(exc))
            try:
                self._conn = self._open_db()
            except sqlite3.Error as fresh_exc:
                raise self._unavailable(fresh_exc) from fresh_exc
        return self._conn

    def _unavailable(self, exc: sqlite3.Error) -> StoreError:
        return StoreError(f"cannot use store database {str(self._db_path)!r}: {exc}")

    def _open_db(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self._db_path, timeout=_BUSY_TIMEOUT_S, check_same_thread=False
        )
        try:
            _enable_wal(conn)
            conn.execute("PRAGMA synchronous=NORMAL")
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

    def get_many(
        self,
        points: Sequence[tuple[str, str, dict | None]],
        tokens: TokenMemo | None = None,
    ) -> dict[tuple[str, str], PredictionResult]:
        """Bulk lookup: one indexed ``SELECT`` per 500 points.

        Every point is read from the database, so rows committed by a
        concurrent process are seen at once.  ``tokens`` (see
        :data:`~repro.api.store.base.TokenMemo`) supplies known point tokens
        and records the ones computed here.
        """
        found: dict[tuple[str, str], PredictionResult] = {}
        tokens = {} if tokens is None else tokens
        wanted: dict[str, tuple[str, str, str]] = {}
        for key, backend, options in points:
            point = (key, backend, _canonical_options(options))
            token = tokens.get(point)
            if token is None:
                token = tokens[point] = point_token(*point)
            wanted[token] = point
        if not wanted:
            return found
        order = list(wanted)
        stats = StoreStats()
        with self._lock:
            for start in range(0, len(order), _LOOKUP_CHUNK):
                chunk = order[start : start + _LOOKUP_CHUNK]
                for row in self._execute(_select_tokens(len(chunk)), chunk).fetchall():
                    point = wanted[row[0]]
                    loaded = self._load_row(row, stats)
                    if loaded is not None and loaded[:3] == point:
                        found[point[:2]] = loaded[3]
        return found

    # -- writes ---------------------------------------------------------------

    def put_many(
        self,
        records: Sequence[tuple[str, str, PredictionResult, dict | None]],
        created: Sequence[float] | None = None,
        tokens: TokenMemo | None = None,
    ) -> None:
        """Persist many results (upserts) in **one transaction**.

        Each row's ``created`` stamp is now, or the matching entry of
        ``created`` (migration carries the legacy files' mtimes this way).
        Tokens already in ``tokens`` are reused instead of recomputed.
        """
        if not records:
            return
        rows = []
        stamps = created if created is not None else [time.time()] * len(records)
        tokens = {} if tokens is None else tokens
        for record, stamp in zip(records, stamps, strict=True):
            key, backend, result, options = record
            options_key = _canonical_options(options)
            point = (key, backend, options_key)
            try:
                payload = json.dumps(result.to_dict(), sort_keys=True)
            except (TypeError, ValueError) as exc:
                raise StoreError(
                    f"cannot serialise store record for key {key!r}: {exc}"
                ) from exc
            rows.append(
                (
                    tokens.get(point) or point_token(*point),
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

    def lease_manager(self, worker_id: str, ttl: float | None = None) -> LeaseManager:
        """A claim/lease manager over this store's ``leases`` table.

        Every worker sharing this store path shares the claim namespace, so
        a point claimed through one store object (or process) is visibly
        claimed through all of them.
        """
        return LeaseManager(self, worker_id, ttl=DEFAULT_LEASE_TTL if ttl is None else ttl)

    # -- maintenance ----------------------------------------------------------

    def refresh(self) -> StoreStats:
        """Full table scan: decode every row and count what it holds.

        Corrupt rows are quarantined and deleted on the way, as a lookup
        would; nothing is kept in memory.
        """
        stats = StoreStats()
        with self._lock:
            if self._db_path.exists() or self._conn is not None:
                for row in self._execute(f"{_SELECT} ORDER BY token").fetchall():
                    self._load_row(row, stats)
        return stats

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
        with self._lock:
            if not self._db_path.exists() and self._conn is None:
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
                    continue
                survivors.append((created, token))
            if max_records is not None and len(survivors) > max_records:
                excess = len(survivors) - max_records
                for _created, token in survivors[:excess]:
                    stats.evicted += 1
                    doomed.append(token)
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
        stats.leases_removed = self.lease_manager("gc").reap_expired(dry_run)
        return stats

    # -- internals ------------------------------------------------------------

    def _execute(self, sql: str, params: Sequence | dict = ()) -> sqlite3.Cursor:
        """Run one statement, recovering once from file-level corruption.

        Caller holds ``self._lock``.
        """
        conn = self._connect()
        try:
            return conn.execute(sql, params)
        except sqlite3.OperationalError as exc:
            raise self._unavailable(exc) from exc
        except sqlite3.DatabaseError as exc:
            self._quarantine_db(str(exc))
            return self._connect().execute(sql, params)

    def _query(self, sql: str, params: Sequence | dict = ()) -> list[tuple]:
        """Every row of one read; none while no database file exists yet."""
        with self._lock:
            if not self._db_path.exists() and self._conn is None:
                return []
            return self._execute(sql, params).fetchall()

    def _write(self, sql: str, params: Sequence | dict = ()) -> list[tuple]:
        """Commit one statement in its own transaction; the rows it returned."""
        with self._lock:
            conn = self._connect()
            try:
                with conn:
                    return conn.execute(sql, params).fetchall()
            except sqlite3.Error as exc:
                raise self._unavailable(exc) from exc

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
