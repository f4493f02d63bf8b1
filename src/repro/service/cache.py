"""Content-addressed result cache for the solve service.

Keys reuse :func:`repro.runner.cache.cache_key` — the same canonical
JSON serialisation and code fingerprint the experiment runner uses — so
two byte-different but content-identical instance payloads hash alike,
and any edit to the ``repro`` sources invalidates served results the
same way it invalidates experiment tables.  :func:`solve_key` builds
the key around an instance the caller has already encoded, so a served
request encodes its instance once.

Two tiers: a bounded in-memory LRU of each solution's encoded JSON
text (``json.dumps(solution, sort_keys=True)``, written once per solve,
so a hit is answered without encoding anything; the bound keeps the
footprint flat under sustained unique traffic), and an
optional **disk tier** shared between shards, the package's one
content-addressed :class:`~repro._store.JsonStore` (under
``results/.cache/service/`` by default): entries are
location-independent by key, so a fleet member hits results any other
shard solved.

Hits and misses are reported both through the instance counters
(``/metrics``) and the :mod:`repro.obs` registry; disk hits are broken
out separately so the cross-shard test wall can pin them.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro._store import JsonStore
from repro.obs import counters as obs_counters
from repro.runner.cache import canonical_json, envelope_key

__all__ = ["ResultCache", "solve_key"]


def solve_key(instance_json: str, algorithm: str, eps: float) -> str:
    """:meth:`ResultCache.key` of an instance encoded by ``canonical_json``.

    Equals ``cache_key(f"service:{algorithm}", {"instance": instance,
    "eps": eps})``; the params dict is spliced around *instance_json*.
    """
    params_json = f'{{"eps":{canonical_json(eps)},"instance":{instance_json}}}'
    return envelope_key(f"service:{algorithm}", params_json)


class ResultCache:
    """Bounded in-memory LRU, optionally backed by a shared disk tier.

    Entries are solutions' encoded JSON texts: :meth:`put` takes the
    solution dict and returns its text, :meth:`get` returns the text.
    With a disk tier attached, a memory miss falls through to disk; a
    disk hit is promoted into memory (and counted separately, so the
    cross-shard tests can tell tiers apart), and every put lands in
    both tiers.  ``hits``/``misses`` keep their original meaning —
    memory hits and overall misses — so the pinned single-process
    accounting is unchanged.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        *,
        disk_dir: Path | str | None = None,
        disk_max_bytes: int | None = None,
        counters: obs_counters.Counters | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._data: OrderedDict[str, str] = OrderedDict()
        self._counters = counters
        self.disk = (
            JsonStore(disk_dir, max_bytes=disk_max_bytes)
            if disk_dir is not None
            else None
        )
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0

    def _emit(self, **values: float) -> None:
        if self._counters is not None:
            for name, value in values.items():
                self._counters.add(f"service.cache.{name}", value)
        else:
            obs_counters.emit("service.cache", **values)

    @staticmethod
    def key(instance: dict[str, Any], algorithm: str, eps: float) -> str:
        """Content hash of one solve: instance + solver + accuracy."""
        return solve_key(canonical_json(instance), algorithm, eps)

    def get(self, key: str) -> str | None:
        """The solution's JSON text, or ``None`` (counted either way)."""
        text = self._data.get(key)
        if text is not None:
            self._data.move_to_end(key)
            self.hits += 1
            self._emit(hits=1)
            return text
        if self.disk is not None:
            solution = self.disk.get(key)
            if solution is not None:
                text = self._promote(key, solution)
                self.disk_hits += 1
                self._emit(disk_hits=1)
                return text
        self.misses += 1
        self._emit(misses=1)
        return None

    def put(self, key: str, solution: dict) -> str:
        """Store *solution* in both tiers; returns its JSON text.

        Evicts the memory tier's LRU entry on overflow.
        """
        text = self._promote(key, solution)
        if self.disk is not None:
            self.disk.put(key, solution)
        return text

    def _promote(self, key: str, solution: dict) -> str:
        text = self._data[key] = json.dumps(solution, sort_keys=True)
        self._data.move_to_end(key)
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
        return text

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> dict:
        """JSON-ready snapshot for ``/metrics``."""
        out = {
            "entries": len(self._data),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
        }
        if self.disk is not None:
            out["disk_hits"] = self.disk_hits
            out["disk"] = self.disk.stats()
        return out
