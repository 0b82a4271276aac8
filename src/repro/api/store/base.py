"""Common contract of the result store and its legacy JSON reader.

A result store materialises :class:`~repro.api.results.PredictionResult`
records keyed by ``(Scenario.cache_key(), backend, canonical backend
options)`` so sweeps, figure runs, and benches pay for each evaluation
exactly once across process lifetimes.  One engine writes stores:

* :class:`~repro.api.store.sqlite_store.SqliteResultStore` — a single
  WAL-mode SQLite file; ``put_many`` writes a whole batch in one
  transaction.

:class:`~repro.api.store.json_store.ResultStore` reads the retired
sharded-JSON layout (one file per record) and is only the source of
``repro store migrate``.  Both apply the same versioning (store format +
scenario spec + producing backend version ⇒ anything else is *stale* and
skipped in place) and the same never-fatal corruption handling (skip and
count).  :func:`~repro.api.store.open_store` opens the SQLite engine and
refuses an un-migrated JSON directory.

The store directory also hosts the cooperative-sweep lease files
(``<store>/leases/``, see :mod:`repro.api.store.leases`):
:meth:`BaseResultStore.lease_manager` hands out a
:class:`~repro.api.store.leases.LeaseManager` rooted there, so k workers
sharing one store path share one claim namespace too.
"""

from __future__ import annotations

import abc
import hashlib
import json
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar

from ...exceptions import StoreError

if TYPE_CHECKING:
    from ..results import PredictionResult
    from .leases import LeaseManager

#: Version of the on-disk record envelope; bump on layout changes.
STORE_FORMAT_VERSION = 1

#: Sibling directory corrupt records are moved into (reason-prefixed names).
QUARANTINE_DIR = ".quarantine"

#: Sibling directory cooperative-sweep claim files live in.
LEASES_DIR = "leases"


def _canonical_options(options: "dict | None") -> str:
    """Stable string form of a backend's constructor options.

    Options change what a backend computes, so they partition the store:
    they are folded into the record digest and envelope.  ``default=repr``
    keeps this total — unserialisable option values yield a stable-enough
    key instead of an exception on lookup.
    """
    if not options:
        return "{}"
    return json.dumps(options, sort_keys=True, default=repr)


def point_token(key: str, backend: str, options_key: str) -> str:
    """Stable digest naming one ``(backend, options, cache key)`` point.

    The store and the lease protocol key off this token: it names the
    SQLite row (and a legacy JSON record file) and the claim file of one
    point, so a lease guards exactly one record slot.
    """
    return hashlib.sha256(f"{backend}\n{options_key}\n{key}".encode()).hexdigest()


@dataclass
class StoreStats:
    """Outcome of one disk scan: how many records were usable."""

    loaded: int = 0
    #: Unparseable or structurally invalid record files (skipped, logged).
    corrupt: int = 0
    #: Well-formed records written under a different format/spec/backend version.
    stale: int = 0
    #: Corrupt records successfully moved into the quarantine directory
    #: (at most :attr:`corrupt`; a quarantine move can itself fail).
    quarantined: int = 0


@dataclass
class GcStats:
    """Outcome of one :meth:`BaseResultStore.gc` maintenance pass."""

    #: Records examined by the sweep.
    examined: int = 0
    #: Records purged because they outlived the TTL.
    expired: int = 0
    #: Records purged because they were written under another version.
    stale: int = 0
    #: Oldest records purged to respect ``max_records``.
    evicted: int = 0
    #: Corrupt records quarantined while sweeping.
    corrupt: int = 0
    #: Usable records remaining after the pass.
    remaining: int = 0
    #: Expired or orphaned lease files removed.
    leases_removed: int = 0
    #: Bytes returned to the filesystem (compaction delta; best-effort).
    reclaimed_bytes: int = 0
    #: Whether this was a report-only pass (nothing was deleted).
    dry_run: bool = False

    @property
    def purged(self) -> int:
        """Total records removed (expired + stale + evicted)."""
        return self.expired + self.stale + self.evicted

    def describe(self) -> str:
        """One-line human-readable summary of the pass."""
        verb = "would purge" if self.dry_run else "purged"
        return (
            f"gc: examined {self.examined} records, {verb} {self.purged} "
            f"({self.expired} expired, {self.stale} stale, {self.evicted} evicted), "
            f"{self.corrupt} quarantined, {self.leases_removed} stale leases, "
            f"{self.reclaimed_bytes} bytes reclaimed, {self.remaining} remaining"
        )


class BaseResultStore(abc.ABC):
    """Disk-backed ``(cache key, backend, options) -> PredictionResult`` mapping.

    Subclasses provide the storage engine; the in-memory index, the lease
    namespace, and the directory-level checks live here.  All index access
    happens under ``self._lock``; engine-level synchronisation (SQLite
    transactions) is the subclass's business.
    """

    #: Short name of the on-disk layout (``"sqlite"``, or ``"json"`` for the
    #: legacy reader), as ``repro store info`` reports it.
    format_name: ClassVar[str]

    def __init__(self, path: str | os.PathLike) -> None:
        self._path = Path(path)
        if self._path.exists() and not self._path.is_dir():
            raise StoreError(
                f"store path {str(self._path)!r} exists and is not a directory"
            )
        self._lock = threading.Lock()
        # Populated lazily: get() probes exactly the records it needs, so
        # opening a store stays O(1) however many records it has grown to.
        # refresh() performs the full scan when a complete view is wanted.
        self._index: dict[tuple[str, str, str], PredictionResult] = {}
        self.stats = StoreStats()

    @property
    def path(self) -> Path:
        """Root directory of the store."""
        return self._path

    def __len__(self) -> int:
        """Number of *indexed* records (run :meth:`refresh` for the disk total)."""
        with self._lock:
            return len(self._index)

    def keys(self) -> list[tuple[str, str, str]]:
        """All indexed ``(cache key, backend, canonical options)`` triples."""
        with self._lock:
            return list(self._index)

    def point_token(self, key: str, backend: str, options: dict | None = None) -> str:
        """The digest naming this point's record slot and claim file."""
        return point_token(key, backend, _canonical_options(options))

    def lease_manager(self, worker_id: str, ttl: float | None = None) -> "LeaseManager":
        """A claim/lease manager rooted in this store's ``leases/`` directory.

        Every worker sharing this store path shares the claim namespace, so
        a point claimed through one store object (or process, or machine on
        a shared filesystem) is visibly claimed through all of them.
        """
        from .leases import DEFAULT_LEASE_TTL, LeaseManager

        return LeaseManager(
            self._path / LEASES_DIR,
            worker_id,
            ttl=DEFAULT_LEASE_TTL if ttl is None else ttl,
        )

    def _publish_refresh(
        self, index: dict[tuple[str, str, str], "PredictionResult"], stats: StoreStats
    ) -> StoreStats:
        """Install a completed scan, *merging* entries indexed since it began.

        A ``put()`` racing the scan publishes its record to disk and to
        ``self._index`` after the scan already passed that slot; wholesale
        replacement would drop it from memory even though it is durably on
        disk (the lost-index-entry race).  Merging keeps such entries.  The
        flip side — an entry whose record was deleted mid-scan survives in
        memory — is resolved by :meth:`gc`, which drops the entries it
        purges explicitly.
        """
        with self._lock:
            for index_key, result in self._index.items():
                index.setdefault(index_key, result)
            self._index = index
            self.stats = stats
        return stats

    # -- engine contract -------------------------------------------------------

    @abc.abstractmethod
    def get(
        self, key: str, backend: str, options: dict | None = None
    ) -> "PredictionResult | None":
        """The stored result of one point, or ``None``."""

    @abc.abstractmethod
    def get_many(
        self, points: Sequence[tuple[str, str, dict | None]]
    ) -> dict[tuple[str, str], "PredictionResult"]:
        """Bulk lookup of ``(cache key, backend, options)`` points."""

    def put(
        self,
        key: str,
        backend: str,
        result: "PredictionResult",
        options: dict | None = None,
    ) -> None:
        """Persist one result (a batch of one)."""
        self.put_many([(key, backend, result, options)])

    @abc.abstractmethod
    def put_many(
        self, records: Sequence[tuple[str, str, "PredictionResult", dict | None]]
    ) -> None:
        """Persist many results in one transaction."""

    @abc.abstractmethod
    def refresh(self) -> StoreStats:
        """Rescan the engine, merging the result into the in-memory index."""

    @abc.abstractmethod
    def gc(
        self,
        ttl: float | None = None,
        max_records: int | None = None,
        dry_run: bool = False,
    ) -> GcStats:
        """Expire, purge, and compact so the store stops growing without bound.

        * ``ttl`` — purge records older than this many seconds (age is the
          record's last write time);
        * ``max_records`` — after TTL/stale purging, evict the oldest
          records until at most this many remain;
        * stale records (written under another format/spec/backend version)
          are always purged — unlike a read path skip, gc is the explicit
          "this data is dead" operation;
        * corrupt records are quarantined exactly as the read path would;
        * expired lease files are always reaped;
        * ``dry_run`` reports what a real pass would do without deleting.
        """
