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


class JsonStore:
    """Entries ``<dir>/<key>.json`` holding ``{"format", "key", "value"}``.

    An unusable directory raises :class:`OSError` at construction; after
    that, every failure (missing file, torn write, bad JSON, wrong
    schema, a disagreeing embedded key) reads as a miss and a failed
    write is dropped.  With *max_bytes*, each put prunes entries
    least-recently-used first (by mtime; a hit touches its entry).
    """

    def __init__(
        self, directory: Path | str, *, max_bytes: int | None = None
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self.directory.mkdir(parents=True, exist_ok=True)

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
        try:
            atomic_write_json(path, entry)
        except OSError:
            return None
        if self.max_bytes is not None:
            self.prune()
        return path

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
        return evicted

    def stats(self) -> dict:
        """JSON-ready snapshot (entry count and resident bytes)."""
        sizes = [size for _, size, _ in self._entries()]
        return {
            "dir": str(self.directory),
            "entries": len(sizes),
            "bytes": sum(sizes),
            "max_bytes": self.max_bytes,
        }
