"""Durable result store: one SQLite engine, a legacy JSON reader, the fabric.

``repro.api.store`` is a package of four layers:

* :mod:`~repro.api.store.base` — the :class:`BaseResultStore` contract
  (versioning, corruption/quarantine, the index and lease namespace) and
  shared helpers;
* :mod:`~repro.api.store.sqlite_store` — :class:`SqliteResultStore`, the
  single-file WAL-mode SQLite engine every store is written with;
* :mod:`~repro.api.store.json_store` — :class:`ResultStore`, a read-only
  reader of the retired sharded-JSON layout, the source of
  :func:`migrate_store`;
* :mod:`~repro.api.store.leases` — the claim/lease protocol cooperative
  sweep workers use to drain one grid with zero duplicate evaluations.

:func:`open_store` is the front door the CLI, service and daemon share.  It
opens SQLite and refuses, up front, a directory that holds only legacy JSON
records: those are imported once with ``repro store migrate PATH``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ...exceptions import ValidationError
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
from .json_store import RECORDS_DIR, ResultStore
from .leases import DEFAULT_LEASE_TTL, LeaseInfo, LeaseManager
from .sqlite_store import DB_FILENAME, SqliteResultStore


def detect_store_format(path: str | os.PathLike) -> str | None:
    """The layout an existing store directory holds, or ``None``.

    A ``store.sqlite3`` file marks the SQLite engine (also once a legacy
    store has been migrated); a ``records/`` directory alone marks legacy
    sharded JSON.  An empty or absent directory has no format yet.
    """
    root = Path(path)
    if (root / DB_FILENAME).is_file():
        return SqliteResultStore.format_name
    if (root / RECORDS_DIR).is_dir():
        return ResultStore.format_name
    return None


def open_store(path: str | os.PathLike) -> SqliteResultStore:
    """Open (or create) the SQLite result store at ``path``.

    A directory holding only legacy JSON records is refused rather than
    silently shadowed by a fresh, empty database.
    """
    if detect_store_format(path) == ResultStore.format_name:
        raise ValidationError(
            f"store at {str(path)!r} holds legacy JSON records; run "
            f"`repro store migrate {path}` to import them into SQLite"
        )
    return SqliteResultStore(path)


def migrate_store(path: str | os.PathLike) -> StoreStats:
    """Import a legacy JSON store's records into ``path/store.sqlite3``.

    Every valid, current-version record is written in one ``put_many``,
    each with its file's mtime as ``created`` so ``gc --ttl`` ages are
    unchanged.  Stale and corrupt records are skipped and counted, and
    ``records/`` is left untouched: re-running is a no-op upsert.  The
    database is created even when no record is usable, so a store of only
    stale records opens (empty) afterwards.
    """
    if not (Path(path) / RECORDS_DIR).is_dir():
        raise ValidationError(f"no legacy JSON records to migrate at {str(path)!r}")
    records, stats = ResultStore(path).scan()
    target = SqliteResultStore(path)
    try:
        with target._lock:  # the database marks the store migrated, even if empty
            target._connect()
        target.put_many(
            [
                (key, backend, result, json.loads(options_key))
                for key, backend, options_key, result, _ in records
            ],
            created=[mtime for *_, mtime in records],
        )
    finally:
        target.close()
    return stats


__all__ = [
    "BaseResultStore",
    "DB_FILENAME",
    "DEFAULT_LEASE_TTL",
    "GcStats",
    "LEASES_DIR",
    "LeaseInfo",
    "LeaseManager",
    "QUARANTINE_DIR",
    "ResultStore",
    "STORE_FORMAT_VERSION",
    "SqliteResultStore",
    "StoreStats",
    "_canonical_options",
    "detect_store_format",
    "migrate_store",
    "open_store",
    "point_token",
]
