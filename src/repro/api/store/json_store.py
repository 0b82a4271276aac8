"""Read-only reader of the retired sharded-JSON store layout.

Stores used to keep each record as one JSON file under
``<store>/records/<hh>/<digest>.json``, where ``digest`` is the point token
(see :func:`~repro.api.store.base.point_token`) and ``hh`` its first two hex
characters.  New stores are SQLite only; this reader is what
``repro store migrate`` imports such a directory through.  It applies the
same triple versioning as the SQLite engine (store format, scenario spec,
producing backend version) and skips and counts stale and corrupt files,
but never writes: ``put`` and ``gc`` raise :class:`StoreError`, and corrupt
files are left where they are.
"""

from __future__ import annotations

import json
import logging
import os
from collections.abc import Sequence
from pathlib import Path

from ...exceptions import StoreError
from ..backends import backend_version
from ..results import PredictionResult
from ..scenario import SCENARIO_SPEC_VERSION
from .base import (
    STORE_FORMAT_VERSION,
    BaseResultStore,
    GcStats,
    StoreStats,
    _canonical_options,
    point_token,
)

logger = logging.getLogger(__name__)

#: Directory of a legacy store that holds the sharded record files.
RECORDS_DIR = "records"

#: Fields every record envelope must carry to be considered well-formed.
_REQUIRED_FIELDS = (
    "format",
    "spec_version",
    "backend",
    "backend_version",
    "options",
    "key",
    "result",
)

#: One usable legacy record: key, backend, canonical options, result and the
#: file's mtime (its last write time, which ``gc --ttl`` ages from).
LegacyRecord = tuple[str, str, str, PredictionResult, float]


def _read_only(path: Path) -> StoreError:
    return StoreError(
        f"store at {str(path)!r} is a legacy JSON store and is read-only; "
        f"run `repro store migrate {path}` to import it into SQLite"
    )


class ResultStore(BaseResultStore):
    """Read-only view of a legacy sharded-JSON store directory."""

    format_name = "json"

    def __init__(self, path: str | os.PathLike) -> None:
        super().__init__(path)
        self._records_dir = self._path / RECORDS_DIR

    # -- lookup ---------------------------------------------------------------

    def get(
        self, key: str, backend: str, options: dict | None = None
    ) -> PredictionResult | None:
        """The stored result of one point, or ``None``."""
        options_key = _canonical_options(options)
        index_key = (key, backend, options_key)
        with self._lock:
            hit = self._index.get(index_key)
        if hit is not None:
            return hit
        token = point_token(key, backend, options_key)
        loaded = self._read_record(
            self._records_dir / token[:2] / f"{token}.json", StoreStats()
        )
        if loaded is None or loaded[:3] != index_key:
            return None
        with self._lock:
            self._index[index_key] = loaded[3]
        return loaded[3]

    def get_many(
        self, points: Sequence[tuple[str, str, dict | None]]
    ) -> dict[tuple[str, str], PredictionResult]:
        """Bulk lookup; points without a usable record are absent."""
        found = {}
        for key, backend, options in points:
            result = self.get(key, backend, options)
            if result is not None:
                found[(key, backend)] = result
        return found

    def scan(self) -> tuple[list[LegacyRecord], StoreStats]:
        """Every usable record with its mtime, and the scan's counts."""
        stats = StoreStats()
        records: list[LegacyRecord] = []
        if self._records_dir.is_dir():
            for record_file in sorted(self._records_dir.glob("??/*.json")):
                try:
                    mtime = record_file.stat().st_mtime
                except OSError:
                    continue  # vanished mid-scan
                loaded = self._read_record(record_file, stats)
                if loaded is not None:
                    records.append((*loaded, mtime))
        return records, stats

    def refresh(self) -> StoreStats:
        """Rescan the directory, merged over the live index."""
        records, stats = self.scan()
        index = {record[:3]: record[3] for record in records}
        return self._publish_refresh(index, stats)

    # -- writes are retired ----------------------------------------------------

    def put_many(
        self, records: Sequence[tuple[str, str, PredictionResult, dict | None]]
    ) -> None:
        raise _read_only(self._path)

    def gc(
        self,
        ttl: float | None = None,
        max_records: int | None = None,
        dry_run: bool = False,
    ) -> GcStats:
        raise _read_only(self._path)

    # -- internals ------------------------------------------------------------

    def _read_record(
        self, path: Path, stats: StoreStats
    ) -> tuple[str, str, str, PredictionResult] | None:
        """Parse one record file; corruption and staleness are never fatal."""
        try:
            with open(path, encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            return self._corrupt(path, stats, f"unreadable: {exc}")
        if not isinstance(record, dict) or any(
            field not in record for field in _REQUIRED_FIELDS
        ):
            return self._corrupt(path, stats, "malformed")
        if (
            record["format"] != STORE_FORMAT_VERSION
            or record["spec_version"] != SCENARIO_SPEC_VERSION
            or record["backend_version"] != backend_version(record["backend"])
        ):
            stats.stale += 1
            logger.info("skipping stale store record %s (version mismatch)", path)
            return None
        try:
            result = PredictionResult.from_dict(record["result"])
        except Exception as exc:  # noqa: BLE001 — any decode failure is corruption
            return self._corrupt(path, stats, f"undecodable: {exc}")
        stats.loaded += 1
        return record["key"], record["backend"], record["options"], result

    @staticmethod
    def _corrupt(path: Path, stats: StoreStats, detail: str) -> None:
        stats.corrupt += 1
        logger.warning("skipping corrupt store record %s (%s)", path, detail)
        return None
