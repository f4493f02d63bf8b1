"""On-disk result cache for experiment tables.

Results live under ``results/.cache/`` (override with the
``REPRO_CACHE_DIR`` environment variable) as one entry of the package's
content-addressed :class:`~repro._store.JsonStore` per result, named by
a content hash of everything the result depends on:

* the experiment name,
* the resolved run parameters (canonically serialised by
  :func:`canonical_json`, so two dicts with the same items in different
  insertion order produce the same key),
* the seed (``None`` means "the experiment's built-in default"),
* a code-version fingerprint covering every ``.py`` file in the
  ``repro`` package — *any* source edit invalidates *every* entry.
  Conservative, but cheap, and never stale.

This module converts tables to and from stored dicts.  A corrupt entry
(a row of the wrong arity too) or an unusable cache dir is a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro._store import JsonStore
from repro.analysis.tables import ExperimentTable

__all__ = [
    "cache_key",
    "canonical_json",
    "code_fingerprint",
    "default_cache_dir",
    "envelope_key",
    "load",
    "store",
]

#: Key-scheme version, hashed into every key: a bump misses every entry.
CACHE_FORMAT = 1

_FINGERPRINT: str | None = None


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``results/.cache`` under cwd."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path("results") / ".cache"


def code_fingerprint() -> str:
    """Hash of every ``.py`` source file in the installed ``repro`` package.

    Computed once per process; any change to any module produces a new
    fingerprint and therefore a cold cache.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def canonical_json(value) -> str:
    """The key scheme's JSON text of *value*: compact, key-sorted.

    Tuples encode as lists and a value JSON cannot encode as its
    ``repr``.  Dict keys must be strings; every caller's are (run
    parameters and parsed request bodies).
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=repr
    )


def cache_key(
    experiment: str,
    params: dict,
    seed: int | None = None,
    code_version: str | None = None,
) -> str:
    """Content hash identifying one experiment result."""
    return envelope_key(experiment, canonical_json(params), seed, code_version)


def envelope_key(
    experiment: str,
    params_json: str,
    seed: int | None = None,
    code_version: str | None = None,
) -> str:
    """:func:`cache_key` around params encoded by :func:`canonical_json`.

    The envelope is spliced in the key order ``canonical_json`` sorts
    it into, so the hash matches encoding the whole envelope at once.
    """
    if code_version is None:
        code_version = code_fingerprint()
    payload = (
        f'{{"code":{json.dumps(code_version)},'
        f'"experiment":{json.dumps(experiment)},'
        f'"format":{CACHE_FORMAT},'
        f'"params":{params_json},'
        f'"seed":{canonical_json(seed)}}}'
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _disk(cache_dir: Path | None) -> JsonStore | None:
    """The store over *cache_dir*, or ``None`` when it cannot be created."""
    try:
        return JsonStore(cache_dir or default_cache_dir())
    except OSError:
        return None


def _cell_to_json(cell):
    """JSON-safe cell preserving the CSV rendering exactly."""
    if isinstance(cell, bool):  # bool before int: True is an int
        return cell
    if isinstance(cell, float):  # np.float64 is a float subclass
        return float(cell)
    if isinstance(cell, int):
        return int(cell)
    return str(cell)


def store(
    key: str, table: ExperimentTable, cache_dir: Path | None = None
) -> Path | None:
    """Persist *table* under *key*; the entry path, or ``None`` if dropped."""
    value = {
        "name": table.name,
        "title": table.title,
        "columns": list(table.columns),
        "rows": [[_cell_to_json(c) for c in row] for row in table.rows],
        "notes": list(table.notes),
    }
    disk = _disk(cache_dir)
    return None if disk is None else disk.put(key, value)


def load(key: str, cache_dir: Path | None = None) -> ExperimentTable | None:
    """The cached table for *key*, or ``None`` on miss/corruption."""
    disk = _disk(cache_dir)
    data = None if disk is None else disk.get(key)
    if data is None:
        return None
    try:
        table = ExperimentTable(
            name=data["name"],
            title=data["title"],
            columns=list(data["columns"]),
            notes=list(data["notes"]),
        )
        for row in data["rows"]:
            table.add_row(*row)
    except (ValueError, KeyError, TypeError):
        return None
    return table
