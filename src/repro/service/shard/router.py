"""The fleet's front door: one public port over N worker shards.

The router owns the address clients talk to and fans work out:

``POST /solve``
    Round-robin proxy onto the shard fleet over small keep-alive
    connection pools; the shard's response (status, body, request-id
    header) passes through byte for byte.  A dead shard is skipped —
    the request is retried on the next shard, and only when every
    shard fails does the client see ``502``.

``GET /result/<id>``
    Request ids carry their shard (``s<k>-r...``), so async ticket
    lookups route straight to the shard that minted them; unprefixed
    ids fall back to asking every shard.

``GET /healthz``
    Aggregated fleet health: ``ok`` only when every shard is ``ok``,
    with the per-shard verdicts inlined.

``GET /metrics``
    The fleet exposition.  Each shard serves its full registry as a
    mergeable snapshot (``/metrics?format=snapshot``); the router
    relabels every series with ``shard=<k>``
    (:func:`repro.obs.runtime.relabel_snapshot`) and folds them into
    one :class:`~repro.obs.runtime.MetricsRegistry` — per-shard series
    stay disjoint, so every summed family (``repro_solve_requests_total``
    included) decomposes exactly into its per-shard parts and the
    pinned ``solve.total`` invariant holds fleet-wide.
    ``?format=json`` returns the JSON fleet view with the per-shard
    obs-counter registries summed.

Where ``SO_REUSEPORT`` is available the fleet can additionally share a
kernel-balanced data port (see :mod:`repro.service.shard.fleet`); the
router's proxy path is the portable fallback and stays authoritative
for merged telemetry either way.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from typing import Any

from repro.obs import counters as obs_counters
from repro.obs.runtime.metrics import MetricsRegistry, relabel_snapshot
from repro.obs.runtime.prometheus import render
from repro.service.http import (
    MAX_BODY_BYTES,
    HttpError,
    read_request,
    read_response,
    send_request,
    write_response,
)

__all__ = ["ShardRouter"]

#: Pooled keep-alive connections the router keeps per shard.
_POOL_SIZE = 8


class ShardRouter:
    """Round-robin front door over ``[(host, port), ...]`` shards."""

    def __init__(self, shards: list[tuple[str, int]]) -> None:
        self.shards = [(host, int(port)) for host, port in shards]
        if not self.shards:
            raise ValueError("router needs at least one shard")
        self._rr = itertools.count()
        self._pools: list[list[tuple[Any, Any]]] = [
            [] for _ in self.shards
        ]
        self._registry = obs_counters.Counters()
        self._server: asyncio.base_events.Server | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._active_requests = 0
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
        self._server = await asyncio.start_server(
            self._handle_conn, host, port, limit=MAX_BODY_BYTES
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting and close pooled shard connections.

        Draining the *shards* is the fleet's job
        (:meth:`repro.service.shard.fleet.LocalFleet.stop`); the router
        only waits out its own in-flight proxied requests so no client
        sees a torn response.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        for _ in range(1000):
            if self._active_requests == 0:
                break
            await asyncio.sleep(0.01)
        for writer in list(self._writers):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        for pool in self._pools:
            while pool:
                _, writer = pool.pop()
                writer.close()

    # -- shard connection pool ------------------------------------------

    async def _exchange(
        self,
        index: int,
        method: str,
        path: str,
        body: bytes = b"",
        content_type: str = "application/json",
    ) -> tuple[int, dict[str, str], bytes]:
        """One request/response against shard *index*, pooled.

        A stale pooled connection (the shard closed it between
        requests) gets one retry on a fresh connection; transport
        errors on the fresh one propagate to the caller.
        """
        host, port = self.shards[index]
        pool = self._pools[index]
        for attempt, fresh in ((1, False), (2, True)):
            if not fresh and pool:
                reader, writer = pool.pop()
            else:
                reader, writer = await asyncio.open_connection(
                    host, port, limit=MAX_BODY_BYTES
                )
            try:
                await send_request(
                    writer, method, path, body,
                    host=f"{host}:{port}",
                    content_type=content_type,
                )
                status, headers, raw = await read_response(reader)
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                writer.close()
                if attempt == 2:
                    raise
                continue
            if headers.get("connection", "").lower() == "close":
                writer.close()
            elif len(pool) < _POOL_SIZE:
                pool.append((reader, writer))
            else:
                writer.close()
            return status, headers, raw
        raise ConnectionError("unreachable")  # pragma: no cover

    # -- HTTP plumbing (mirrors the shard server's loop) ----------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    await write_response(
                        writer,
                        exc.status,
                        {"status": "error", "error": str(exc)},
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                self._active_requests += 1
                try:
                    status, payload, extra = await self._route(
                        method, path, body
                    )
                finally:
                    self._active_requests -= 1
                await write_response(
                    writer,
                    status,
                    payload,
                    keep_alive=keep_alive,
                    extra_headers=extra,
                )
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- routing --------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, Any, dict[str, str] | None]:
        path, _, query = path.partition("?")
        self._registry.add("router.http.requests")
        try:
            if path == "/solve":
                if method != "POST":
                    return 405, {"status": "error", "error": "POST only"}, None
                return await self._proxy_solve(body)
            if path.startswith("/result/"):
                if method != "GET":
                    return 405, {"status": "error", "error": "GET only"}, None
                return await self._proxy_result(path)
            if path == "/healthz":
                if method != "GET":
                    return 405, {"status": "error", "error": "GET only"}, None
                return 200, await self._health(), None
            if path == "/metrics":
                if method != "GET":
                    return 405, {"status": "error", "error": "GET only"}, None
                if "format=json" in query.split("&"):
                    return 200, await self._metrics_json(), None
                return 200, await self._metrics_text(), None
            return 404, {"status": "error", "error": f"no route for {path}"}, None
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
            try:
                status, headers, raw = await self._exchange(
                    index, "POST", "/solve", body
                )
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                self._registry.add("router.proxy.errors")
                continue
            self._registry.add("router.solve.proxied")
            self._registry.add(f"router.solve.shard_{index}")
            extra = {}
            req_id = headers.get("x-repro-request-id")
            if req_id:
                extra["X-Repro-Request-Id"] = req_id
            content_type = headers.get("content-type", "application/json")
            return status, (raw, content_type), extra or None
        self._registry.add("router.solve.unrouted")
        return 502, {"status": "error", "error": "no shard reachable"}, None

    async def _proxy_result(
        self, path: str
    ) -> tuple[int, Any, dict[str, str] | None]:
        req_id = path[len("/result/"):]
        order = list(range(len(self.shards)))
        if req_id.startswith("s"):
            shard, sep, _ = req_id[1:].partition("-")
            if sep and shard.isdigit() and int(shard) < len(self.shards):
                order = [int(shard)]
        last: tuple[int, Any] | None = None
        for index in order:
            try:
                status, headers, raw = await self._exchange(
                    index, "GET", path
                )
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                self._registry.add("router.proxy.errors")
                continue
            content_type = headers.get("content-type", "application/json")
            if status != 404:
                return status, (raw, content_type), None
            last = (status, (raw, content_type))
        if last is not None:
            return last[0], last[1], None
        return 502, {"status": "error", "error": "no shard reachable"}, None

    # -- fleet views ----------------------------------------------------

    async def _shard_json(
        self, index: int, path: str
    ) -> dict | None:
        """One shard's JSON payload, or ``None`` when unreachable."""
        try:
            status, _, raw = await self._exchange(index, "GET", path)
            if status != 200:
                return None
            payload = json.loads(raw.decode())
            return payload if isinstance(payload, dict) else None
        except (
            ConnectionError,
            OSError,
            asyncio.IncompleteReadError,
            ValueError,
        ):
            return None

    async def _health(self) -> dict:
        reports = await asyncio.gather(
            *(self._shard_json(i, "/healthz") for i in range(len(self.shards)))
        )
        shards = []
        statuses = []
        for index, report in enumerate(reports):
            if report is None:
                shards.append({"shard": str(index), "status": "down"})
                statuses.append("down")
            else:
                shards.append(report)
                statuses.append(str(report.get("status", "down")))
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

    async def _snapshots(self) -> list[dict | None]:
        return list(
            await asyncio.gather(
                *(
                    self._shard_json(i, "/metrics?format=snapshot")
                    for i in range(len(self.shards))
                )
            )
        )

    def _fleet_registry(
        self, snapshots: list[dict | None]
    ) -> MetricsRegistry:
        registry = MetricsRegistry()
        up = registry.gauge(
            "repro_shard_up",
            "Whether the shard answered the last fleet scrape.",
            ("shard",),
        )
        for index, snap in enumerate(snapshots):
            up.set(0.0 if snap is None else 1.0, shard=str(index))
            if snap is None:
                continue
            registry.merge(
                relabel_snapshot(snap.get("registry", {}), shard=str(index))
            )
        return registry

    async def _metrics_text(self) -> str:
        return render(self._fleet_registry(await self._snapshots()).collect())

    async def _metrics_json(self) -> dict:
        """The JSON fleet view: summed counters + per-shard snapshots."""
        snapshots = await self._snapshots()
        totals = obs_counters.Counters()
        totals.merge(self._registry.snapshot())
        shards = []
        for index, snap in enumerate(snapshots):
            if snap is None:
                shards.append({"shard": str(index), "up": False})
                continue
            totals.merge(snap.get("counters", {}))
            shards.append(
                {
                    "shard": str(index),
                    "up": True,
                    "counters": snap.get("counters", {}),
                }
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
