"""Claim/lease protocol: k workers drain one grid with zero duplicate work.

A cooperative sweep needs exactly one guarantee the result store alone does
not give: *at most one live worker evaluates a given point at a time*.  The
store already makes concurrent writers safe (an upsert per point, both
contents identical); leases make them *efficient* by preventing the
duplicate evaluation in the first place — and, unlike a lock, a lease
expires, so a crashed worker's points return to the pool instead of
deadlocking the sweep.

A lease is one row of the ``leases`` table in the store's SQLite file,
keyed by the point's token.  Every transition is a guard plus an action
written as **one statement**, so SQLite's write lock makes it atomic across
threads, processes and store objects — there is no read-then-write window
for a peer to slip into.  Claim and release take a whole slice of tokens
in that one statement, and so does each heartbeat's renewal:

* **Claim** — insert each row, or overwrite it *only where* the current
  owner's lease has expired or the owner is this worker; the tokens the
  statement returns are the claims won.
* **Renew** — push ``expires_at`` forward *only where* this worker still
  owns the row; a token that no longer matches was taken over and moves to
  :attr:`LeaseManager.lost`.  :meth:`LeaseManager.heartbeat` renews on a
  background thread so one long evaluation cannot expire its own lease.
* **Release** — delete each row *only where* this worker owns it, after the
  point's result is durably in the store, so the "claimed" and "answered"
  states never gap and a loser can never delete the winner's claim.
* **Reap** — ``store gc`` deletes every row whose ``expires_at`` has passed.

Timestamps are wall-clock (``time.time``) because workers on different
machines may share a store; the TTL should therefore comfortably exceed
both the heartbeat interval and any plausible clock skew.  The default
heartbeat interval is ``ttl / 3``.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ...exceptions import ValidationError

if TYPE_CHECKING:
    from .sqlite_store import SqliteResultStore

#: Default lease time-to-live in seconds.  Long enough that a heartbeat at
#: ttl/3 survives severe scheduler delay; short enough that a crashed
#: worker's points return to the pool quickly.
DEFAULT_LEASE_TTL = 30.0

_FIELDS = "token, worker, acquired, renewed, expires_at"

#: Parameters: ``?1`` worker, ``?2`` now, ``?3`` expiry, then one per token.
_CLAIM = f"""
INSERT INTO leases ({_FIELDS}) VALUES {{rows}}
ON CONFLICT (token) DO UPDATE SET
    worker = excluded.worker,
    acquired = excluded.acquired,
    renewed = excluded.renewed,
    expires_at = excluded.expires_at
WHERE leases.expires_at < ?2 OR leases.worker = ?1
RETURNING token
"""

#: Parameters: ``?1`` worker, ``?2`` now, ``?3`` expiry, then one per token.
_RENEW = """
UPDATE leases SET renewed = ?2, expires_at = ?3
WHERE worker = ?1 AND token IN ({tokens}) RETURNING token
"""

_RELEASE = "DELETE FROM leases WHERE worker = ? AND token IN ({tokens})"

_REAP = "DELETE FROM leases WHERE expires_at < :now RETURNING token"

_COUNT_EXPIRED = "SELECT COUNT(*) FROM leases WHERE expires_at < :now"

_SELECT = f"SELECT {_FIELDS} FROM leases"


@dataclass(frozen=True)
class LeaseInfo:
    """One lease row."""

    token: str
    worker: str
    acquired: float
    renewed: float
    #: Wall-clock time after which the claim is dead.
    expires_at: float

    def expired(self, now: float | None = None) -> bool:
        """Whether the claim's TTL has lapsed."""
        return (time.time() if now is None else now) > self.expires_at


class LeaseManager:
    """Claim, renew, and release point leases for one worker.

    One manager serves one ``worker_id``; the claim namespace (the store's
    ``leases`` table) is shared by every manager of every store object
    opened on the same path.  Thread-safe: statements run under the store's
    lock, and the heartbeat thread and the claiming thread share the
    held-lease ledger under a lock of its own.
    """

    def __init__(
        self,
        store: "SqliteResultStore",
        worker_id: str,
        ttl: float = DEFAULT_LEASE_TTL,
    ) -> None:
        if not worker_id:
            raise ValidationError("worker_id must be a non-empty string")
        if ttl <= 0:
            raise ValidationError(f"lease ttl must be positive, got {ttl}")
        self._store = store
        self.worker_id = worker_id
        self.ttl = float(ttl)
        self._lock = threading.Lock()
        self._held: set[str] = set()
        #: Leases this worker held but lost to a takeover (it heartbeated
        #: too late); exposed so a sweep can re-check those points.
        self.lost: set[str] = set()

    def held(self) -> list[str]:
        """Tokens this manager currently believes it owns."""
        with self._lock:
            return sorted(self._held)

    def _mark_lost(self, token: str) -> None:
        with self._lock:
            if token in self._held:
                self._held.discard(token)
                self.lost.add(token)

    def read(self, token: str) -> LeaseInfo | None:
        """The current claim on ``token`` (live or expired), or ``None``."""
        rows = self._store._query(f"{_SELECT} WHERE token = ?", (token,))
        return LeaseInfo(*rows[0]) if rows else None

    def scan(self) -> list[LeaseInfo]:
        """All current claims in the namespace (any owner), by token."""
        return [LeaseInfo(*row) for row in self._store._query(f"{_SELECT} ORDER BY token")]

    def claim_many(self, tokens: Iterable[str]) -> set[str]:
        """Claim a slice of points in one statement; the tokens now this worker's.

        Wins an unclaimed point, re-claims one of this worker's own, and
        takes over an expired claim; a live peer's claim is left alone.  A
        token this manager believed it held but a peer now owns moves to
        :attr:`lost`.
        """
        wanted = list(dict.fromkeys(tokens))
        if not all(wanted):
            raise ValidationError("lease token must be a non-empty string")
        if not wanted:
            return set()
        now = time.time()
        rows = ", ".join(f"(?{n}, ?1, ?2, ?2, ?3)" for n in range(4, 4 + len(wanted)))
        params = (self.worker_id, now, now + self.ttl, *wanted)
        won = {row[0] for row in self._store._write(_CLAIM.format(rows=rows), params)}
        with self._lock:
            self._held.update(won)
            self.lost.difference_update(won)
        for token in set(wanted) - won:
            self._mark_lost(token)
        return won

    def try_claim(self, token: str) -> bool:
        """Claim one point (:meth:`claim_many` of one); ``True`` iff won."""
        return token in self.claim_many([token])

    def renew_many(self, tokens: Iterable[str]) -> set[str]:
        """Refresh held leases' TTL in one statement; the tokens renewed.

        A lease can be lost when this worker stalled past its TTL and a peer
        took the claim over (or ``store gc`` reaped it): a held token the
        statement does not return moves to :attr:`lost`, and the loser must
        treat the point as no longer its own.  Tokens not held are ignored.
        """
        with self._lock:
            mine = [token for token in dict.fromkeys(tokens) if token in self._held]
        if not mine:
            return set()
        now = time.time()
        marks = ", ".join(f"?{n}" for n in range(4, 4 + len(mine)))
        params = (self.worker_id, now, now + self.ttl, *mine)
        renewed = {row[0] for row in self._store._write(_RENEW.format(tokens=marks), params)}
        for token in set(mine) - renewed:
            self._mark_lost(token)
        return renewed

    def renew(self, token: str) -> bool:
        """Refresh one held lease (:meth:`renew_many` of one); ``False`` when lost."""
        return token in self.renew_many([token])

    def renew_all(self) -> int:
        """Refresh every held lease in one statement; how many were renewed."""
        return len(self.renew_many(self.held()))

    def release_many(self, tokens: Iterable[str]) -> None:
        """Drop held leases in one statement (after their results are stored).

        A claim a peer took over in the meantime is not this worker's to
        delete, and stays.
        """
        with self._lock:
            mine = [token for token in dict.fromkeys(tokens) if token in self._held]
            self._held.difference_update(mine)
        if mine:
            marks = ", ".join("?" * len(mine))
            self._store._write(_RELEASE.format(tokens=marks), (self.worker_id, *mine))

    def release(self, token: str) -> None:
        """Drop one held lease (:meth:`release_many` of one)."""
        self.release_many([token])

    def release_all(self) -> None:
        """Drop every held lease."""
        self.release_many(self.held())

    def reap_expired(self, dry_run: bool = False) -> int:
        """Delete every expired claim (any owner); how many there were."""
        params = {"now": time.time()}
        if dry_run:
            return self._store._query(_COUNT_EXPIRED, params)[0][0]
        return len(self._store._write(_REAP, params))

    @contextlib.contextmanager
    def heartbeat(self, interval: float | None = None) -> Iterator["LeaseManager"]:
        """Renew held leases on a background thread while the body runs.

        ``interval`` defaults to ``ttl / 3`` so two consecutive missed
        beats still leave slack before expiry.
        """
        period = self.ttl / 3.0 if interval is None else interval
        if period <= 0:
            raise ValidationError(f"heartbeat interval must be positive, got {period}")
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(period):
                self.renew_all()

        thread = threading.Thread(
            target=beat, name=f"lease-heartbeat-{self.worker_id}", daemon=True
        )
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join(timeout=max(1.0, period * 2))
