"""The package's one on-disk JSON persistence layer.

:func:`atomic_write_json` writes every JSON file the package keeps (run
manifests, bench reports, the budget ledger, verify reproducers, cache
entries).  :class:`JsonStore` is the one content-addressed store, behind
the runner's table cache (:mod:`repro.runner.cache`) and the solve
service's shared disk tier (:mod:`repro.service.cache`).
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

__all__ = ["STORE_FORMAT", "JsonStore", "atomic_write_json"]

#: Entry schema version (bump to turn every stored entry into a miss).
STORE_FORMAT = 1


def atomic_write_json(path: Path | str, obj, *, indent: int | None = None):
    """Write *obj* as sorted-key JSON to *path* via temp file + rename.

    The parent must exist; a failed write removes its temp file, raises,
    and leaves *path* as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(obj, indent=indent, sort_keys=True) + "\n")
        tmp.replace(path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _size(path: Path) -> int | None:
    """*path*'s size in bytes; None if it is not there."""
    try:
        return path.stat().st_size
    except OSError:
        return None


class JsonStore:
    """Entries ``<dir>/<key>.json`` holding ``{"format", "key", "value"}``.

    An unusable directory raises :class:`OSError` at construction; after
    that, every failure (missing file, torn write, bad JSON, wrong
    schema, a disagreeing embedded key) reads as a miss and a failed
    write is dropped.  The store keeps running totals of resident
    entries and bytes: one scan seeds them (the first budgeted put, or
    the first :meth:`stats`), and after that each put adds its own size
    (less the size of a file it overwrote) and, when it creates a file,
    one entry.  With *max_bytes*, a put that takes the total past the
    budget prunes entries least-recently-used first (by mtime; a hit
    touches its entry), which rescans and resets both totals.  Other
    stores' puts into the same directory are seen only at that rescan.
    """

    def __init__(
        self, directory: Path | str, *, max_bytes: int | None = None
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Resident bytes and entries as this store counts them; ``None``
        #: until a scan seeds them (see the class docstring).
        self._resident: int | None = None
        self._count: int | None = None

    def get(self, key: str) -> dict | None:
        """The stored value, or ``None`` on miss/corruption."""
        path = self.directory / f"{key}.json"
        try:
            entry = json.loads(path.read_text())
            if entry["format"] != STORE_FORMAT or entry["key"] != key:
                return None
            value = entry["value"]
            if not isinstance(value, dict):
                return None
        except (OSError, ValueError, KeyError, TypeError):
            return None
        with contextlib.suppress(OSError):
            os.utime(path)  # a hit makes the entry young for prune()
        return value

    def put(self, key: str, value: dict) -> Path | None:
        """Store *value* under *key*: the entry path, or ``None`` if dropped."""
        path = self.directory / f"{key}.json"
        entry = {"format": STORE_FORMAT, "key": key, "value": value}
        counted = self._resident is not None
        replaced = _size(path) if counted else None
        try:
            atomic_write_json(path, entry)
        except OSError:
            return None
        if counted:
            self._resident += (_size(path) or 0) - (replaced or 0)
            self._count += replaced is None
        elif self.max_bytes is not None:
            self._seed(self._entries())
        if self.max_bytes is not None and self._resident > self.max_bytes:
            self.prune()
        return path

    def _seed(self, entries: list[tuple[float, int, Path]]) -> None:
        """Reset the running totals to those of a fresh scan."""
        self._resident = sum(size for _, size, _ in entries)
        self._count = len(entries)

    def _entries(self) -> list[tuple[float, int, Path]]:
        """``(mtime, size, path)`` per entry, skipping vanished files."""
        entries = []
        for path in self.directory.glob("*.json"):
            with contextlib.suppress(OSError):  # another process pruned it
                stat = path.stat()
                entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def prune(self) -> int:
        """Evict oldest-mtime entries until the budget fits; returns the count."""
        if self.max_bytes is None:
            return 0
        entries = sorted(self._entries())
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            with contextlib.suppress(OSError):
                path.unlink()
            total -= size
            evicted += 1
        self._seed(entries[evicted:])
        return evicted

    def stats(self) -> dict:
        """JSON-ready snapshot (entry count and resident bytes).

        Read from the running totals, so only the first call (when no
        put has seeded them) scans the directory.
        """
        if self._resident is None:
            self._seed(self._entries())
        return {
            "dir": str(self.directory),
            "entries": self._count,
            "bytes": self._resident,
            "max_bytes": self.max_bytes,
        }
