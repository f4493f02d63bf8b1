"""The fleet's front door: one public port over N in-process shards.

The router owns the address clients talk to and hands each client
request (``/solve``, ``/result/<id>``) to a shard's
:meth:`~repro.service.server.SolveService.handle`, awaited directly on
the shared event loop: no request is re-encoded or sent over a socket a
second time, and the shard's ``(status, payload, extra_headers)``
answer is written to the client unchanged.  ``/healthz`` and
``/metrics`` read the shards' live objects instead, so the router's
own reads are not counted as shard requests.

``POST /solve``
    Round-robin over the shards; the shard's answer (status, body,
    request-id header) passes through.  A stopped shard is skipped,
    counted in ``router.proxy.errors``, and the next one tried; only
    when every shard is stopped does the client see ``502``.

``GET /result/<id>``
    Request ids carry their shard (``s<k>-r...``), so async ticket
    lookups go straight to the shard that minted them; unprefixed ids
    fall back to asking every shard.

``GET /healthz``
    Aggregated fleet health: ``ok`` only when every shard is ``ok``,
    with the per-shard verdicts inlined (a stopped shard is ``down``).

``GET /metrics``
    The fleet exposition.  The router reads each running shard's
    families (:meth:`~repro.service.server.SolveService
    .metrics_families`) straight from its live objects, prefixes
    ``shard=<k>`` to every sample and groups the samples by family
    name, shards in ``str(k)`` order.  Per-shard series stay disjoint,
    so every family (``repro_solve_requests_total`` included)
    decomposes exactly into its per-shard parts and the pinned
    ``solve.total`` invariant holds fleet-wide.  ``?format=json``
    returns the JSON fleet view with the per-shard obs-counter
    registries summed.

Client connections are served and drained by the same
:class:`~repro.service.http.HttpFront` as the shard server, and 404/405
come from the same :data:`~repro.service.http.ROUTES` table; the router
supplies its ``_route`` coroutine.  Each shard keeps its own listener
(for direct scrapes); the router never connects to it.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Any

from repro.obs import counters as obs_counters
from repro.obs.runtime.prometheus import Family, Sample, render
from repro.service.http import HttpFront, refusal, route_of
from repro.service.server import SolveService

__all__ = ["ShardRouter"]

_UNROUTED = 502, {"status": "error", "error": "no shard reachable"}, None


class ShardRouter:
    """Round-robin front door over in-process :class:`SolveService` shards."""

    def __init__(self, shards: list[SolveService]) -> None:
        self.shards = list(shards)
        if not self.shards:
            raise ValueError("router needs at least one shard")
        self._rr = itertools.count()
        self._registry = obs_counters.Counters()
        self._http = HttpFront(self._route)
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        self._started_at = time.time()
        self.host: str | None = None
        self.port: int | None = None

    # -- lifecycle ------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        if self._server is not None:
            raise RuntimeError("router already started")
        self._server = await self._http.listen(host, port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting and finish the router's own connections.

        Draining the *shards* is the fleet's job
        (:meth:`repro.service.shard.fleet.LocalFleet.stop`); the router
        only drains its own connections, so no client sees a torn
        response and no handler task is left pending.
        """
        self._draining = True
        await self._http.drain()

    # -- routing --------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, Any, dict[str, str] | None]:
        path, _, query = path.partition("?")
        self._registry.add("router.http.requests")
        route = route_of(path)
        refused = refusal(method, route)
        if refused is not None:
            return *refused, None
        try:
            if route == "/solve":
                return await self._proxy_solve(body)
            if route == "/result/":
                return await self._proxy_result(path)
            if route == "/healthz":
                return 200, self._health(), None
            if "format=json" in query.split("&"):
                return 200, self._metrics_json(), None
            return 200, self._metrics_text(), None
        except Exception as exc:  # noqa: BLE001 - must answer something
            self._registry.add("router.errors.internal")
            return 500, {"status": "error", "error": str(exc)}, None

    async def _proxy_solve(
        self, body: bytes
    ) -> tuple[int, Any, dict[str, str] | None]:
        if self._draining:
            return 503, {"status": "error", "error": "draining"}, None
        n = len(self.shards)
        start = next(self._rr) % n
        for hop in range(n):
            index = (start + hop) % n
            shard = self.shards[index]
            if shard.stopped:
                self._registry.add("router.proxy.errors")
                continue
            self._registry.add("router.solve.proxied")
            self._registry.add(f"router.solve.shard_{index}")
            return await shard.handle("POST", "/solve", body)
        self._registry.add("router.solve.unrouted")
        return _UNROUTED

    async def _proxy_result(
        self, path: str
    ) -> tuple[int, Any, dict[str, str] | None]:
        req_id = path[len("/result/"):]
        order = range(len(self.shards))
        if req_id.startswith("s"):
            shard, sep, _ = req_id[1:].partition("-")
            if sep and shard.isdigit() and int(shard) < len(self.shards):
                order = [int(shard)]
        last = None
        for index in order:
            shard = self.shards[index]
            if shard.stopped:
                self._registry.add("router.proxy.errors")
                continue
            last = await shard.handle("GET", path, b"")
            if last[0] != 404:
                return last
        return _UNROUTED if last is None else last

    # -- fleet views ----------------------------------------------------

    def _health(self) -> dict:
        shards = [
            {"shard": str(index), "status": "down"}
            if shard.stopped
            else shard.health()
            for index, shard in enumerate(self.shards)
        ]
        statuses = [str(report.get("status", "down")) for report in shards]
        if all(status == "ok" for status in statuses):
            fleet = "ok"
        elif any(status == "draining" for status in statuses):
            fleet = "draining"
        else:
            fleet = "degraded"
        return {
            "status": fleet,
            "role": "router",
            "shards": shards,
            "uptime_s": time.time() - self._started_at,
        }

    def _metrics_text(self) -> str:
        """Every running shard's families with ``shard`` as first label,
        shards in ``str(k)`` order, plus ``repro_shard_up``."""
        up = Family(
            "repro_shard_up",
            "gauge",
            "Whether the shard answered the last fleet scrape.",
        )
        fleet = {up.name: up}
        for shard_id, shard in sorted(
            (str(index), shard) for index, shard in enumerate(self.shards)
        ):
            label = ("shard", shard_id)
            up.samples.append(
                Sample(up.name, (label,), 0.0 if shard.stopped else 1.0)
            )
            if shard.stopped:
                continue
            for family in shard.metrics_families():
                merged = fleet.setdefault(
                    family.name, Family(family.name, family.kind, family.help)
                )
                merged.samples.extend(
                    Sample(sample.name, (label, *sample.labels), sample.value)
                    for sample in family.samples
                )
        return render(fleet.values())

    def _metrics_json(self) -> dict:
        """The JSON fleet view: summed counters + per-shard counters."""
        totals = obs_counters.Counters()
        totals.merge(self._registry.snapshot())
        shards = []
        for index, shard in enumerate(self.shards):
            if shard.stopped:
                shards.append({"shard": str(index), "up": False})
                continue
            counters = shard.counters()
            totals.merge(counters)
            shards.append(
                {"shard": str(index), "up": True, "counters": counters}
            )
        return {
            "fleet": {
                "role": "router",
                "shards": len(self.shards),
                "draining": self._draining,
            },
            "counters": totals.snapshot(),
            "shards": shards,
        }

    def stats(self) -> dict:
        """Router-side counters (proxy volume, per-shard spread, errors)."""
        return {
            "shards": len(self.shards),
            "counters": self._registry.snapshot(),
        }
