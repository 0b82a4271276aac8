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

The SQLite file also holds the cooperative-sweep leases (a ``leases``
table, see :mod:`repro.api.store.leases`):
:meth:`~repro.api.store.sqlite_store.SqliteResultStore.lease_manager` hands
out a :class:`~repro.api.store.leases.LeaseManager` over it, so k workers
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

#: Version of the on-disk record envelope; bump on layout changes.
STORE_FORMAT_VERSION = 1

#: Sibling directory corrupt records are moved into (reason-prefixed names).
QUARANTINE_DIR = ".quarantine"


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


#: Point tokens already computed, keyed ``(cache key, backend, canonical
#: options)``.  A caller that probes and then writes the same points passes
#: one memo to both ``get_many`` and ``put_many``, so each point's digest is
#: computed once.  It is a pure function of its key, so a stale memo cannot
#: misname a row; it lives as long as the caller's one sweep call.
TokenMemo = dict[tuple[str, str, str], str]


def point_token(key: str, backend: str, options_key: str) -> str:
    """Stable digest naming one ``(backend, options, cache key)`` point.

    The store and the lease protocol key off this token: it names the
    SQLite record row (and a legacy JSON record file) and the lease row of
    one point, so a lease guards exactly one record slot.
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
    #: Expired leases removed.
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

    Subclasses provide the storage engine; the directory-level checks live
    here.  A store holds no records in memory: every lookup reads the
    engine, and the service's cache is the one in-memory copy of a result.
    Engine-level synchronisation (SQLite transactions) happens under
    ``self._lock``.
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

    @property
    def path(self) -> Path:
        """Root directory of the store."""
        return self._path

    def point_token(self, key: str, backend: str, options: dict | None = None) -> str:
        """The digest naming this point's record slot and lease."""
        return point_token(key, backend, _canonical_options(options))

    # -- engine contract -------------------------------------------------------

    def get(
        self, key: str, backend: str, options: dict | None = None
    ) -> "PredictionResult | None":
        """The stored result of one point, or ``None`` (a lookup of one)."""
        return self.get_many([(key, backend, options)]).get((key, backend))

    @abc.abstractmethod
    def get_many(
        self,
        points: Sequence[tuple[str, str, dict | None]],
        tokens: TokenMemo | None = None,
    ) -> dict[tuple[str, str], "PredictionResult"]:
        """Bulk lookup of ``(cache key, backend, options)`` points.

        ``options`` are the backend's constructor options: a record is only
        a hit for the configuration that produced it.  Points without a
        usable record are absent from the result.
        """

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
        self,
        records: Sequence[tuple[str, str, "PredictionResult", dict | None]],
        created: Sequence[float] | None = None,
        tokens: TokenMemo | None = None,
    ) -> None:
        """Persist many results in one transaction."""

    @abc.abstractmethod
    def refresh(self) -> StoreStats:
        """Scan every record and count the usable, stale and corrupt ones."""

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
        * expired leases are always reaped;
        * ``dry_run`` reports what a real pass would do without deleting.
        """
