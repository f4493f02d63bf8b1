"""The solve server (``repro serve``).

A zero-dependency asyncio HTTP/JSON server that turns the reproduction
into something that can take traffic.  The request path is the paper's
REJECT-MIN loop in miniature:

1. ``POST /solve`` carries an :func:`repro.io.instance_to_dict` payload
   plus solver choice, client deadline, and weight;
2. a content-addressed cache (:mod:`repro.service.cache`, keyed exactly
   like the experiment runner's) answers repeats without solving; the
   instance is encoded once per request, for the key, and a hit is
   answered from the solution text stored when it was solved;
3. the admission controller (:mod:`repro.service.admission`) prices the
   request's estimated work against the pool's measured capacity with a
   real :class:`~repro.core.rejection.online.OnlinePolicy` — saturation
   produces ``429``, not timeouts;
4. an admitted request picks its venue
   (:attr:`~repro.service.models.SolveRequest.inline`): a cheap sync
   heuristic solve runs inline on the event loop, since it costs less
   than the pool round-trip it would skip; every other request waits
   for one of :data:`DISPATCH_SLOTS_PER_WORKER` × ``workers`` dispatch
   slots, then goes on its own to the persistent process pool shared
   with the experiment runner (:func:`repro.runner.pool.get_executor`).
   While it waits it is still *queued*, so admission can still shed it.
   Both venues settle through one path (lease release, counters, spans,
   cache, status).

``GET /healthz`` reports liveness.  ``GET /metrics`` serves Prometheus
text exposition; ``GET /metrics?format=json`` serves the JSON dump
(admission and cache statistics, per-endpoint latency
histograms, the full :mod:`repro.obs` counter registry with worker-side
solver counters merged in, and the runtime-telemetry section: SLO
attainment, the sampler's time-series ring, and the last-request id
table).  Every request runs under an :func:`repro.obs.trace.span`; each
``POST /solve`` mints a request id that is echoed as
``X-Repro-Request-Id`` and threaded through spans, the access log, the
worker payload, and the metrics label table
(see :mod:`repro.service.telemetry`).

Connections are served, and drained on :meth:`SolveService.stop`, by
the :class:`~repro.service.http.HttpFront` the shard router uses too;
this module supplies only the :meth:`SolveService.handle` coroutine it
calls.  A fleet's router awaits the same ``handle`` of each shard
directly, so a routed request takes no second HTTP hop.  Around the
shared drain the server adds its own steps: ``503`` for requests still
waiting for a dispatch slot (``drain=False``) and awaiting the running
dispatches.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from repro.obs import counters as obs_counters
from repro.obs.runtime.prometheus import Family, render
from repro.obs.trace import active_sink, emit_record, span
from repro.runner.pool import evict_executor, get_executor
from repro.service import worker as worker_mod
from repro.service.admission import AdmissionController
from repro.service.cache import ResultCache
from repro.service.http import HttpFront, refusal, route_of
from repro.service.models import (
    RequestError,
    SolveRequest,
    parse_solve_request,
)
from repro.service.telemetry import _FULL_POWER_W, RuntimeTelemetry

__all__ = ["DISPATCH_SLOTS_PER_WORKER", "SolveService"]

#: Pool-bound requests in flight per worker: one solving and one in the
#: pipe behind it.  Requests past the gate wait in ``_queued``, where
#: admission can still shed them, like the simulator's ready queue; with
#: no gate nothing would ever be queued, so nothing could be shed.  On a
#: 2-core machine (2 workers, 8 closed-loop clients, greedy n = 20-24
#: requests) one slot per worker ran 10-25% below no gate, while two per
#: worker came within about 10% of it.
DISPATCH_SLOTS_PER_WORKER = 2


class SolveService:
    """One server instance: admission + pool dispatch + cache + metrics.

    Parameters
    ----------
    policy:
        Admission policy (default: accept everything that fits).
    workers:
        Worker processes in the solve pool.
    capacity_units:
        Backlog cap in work units; default: measured worker throughput
        × ``workers`` × ``window_s``.
    rate_units_per_s:
        Single-worker service rate override (work units/second);
        default: measured by :func:`repro.service.worker.calibrate` at
        startup.
    window_s:
        Admission window — how many seconds of measured throughput the
        controller is willing to hold as backlog.
    cache_entries:
        Result-cache LRU bound.
    slos:
        SLO objectives for the rolling tracker (default:
        :data:`repro.obs.runtime.DEFAULT_SLOS`).
    access_log:
        Structured request-log sink — anything with ``emit(dict)``
        (e.g. a :class:`repro.obs.trace.JsonlSink`); ``None`` disables.
    sample_interval_s:
        Period of the time-series sampler task.
    shard_id:
        Fleet identity.  When set, request ids carry an ``s<id>-``
        prefix (so the router can route ``/result`` lookups) and the
        id appears in ``/healthz`` and ``/metrics?format=json``.
    budget:
        Optional fleet-wide capacity ledger
        (:mod:`repro.service.shard.budget`); the admission controller
        leases every admitted request's units from it.
    cache_dir:
        Directory for the shared disk cache tier (``None`` disables
        the tier; shards pass one common directory).
    cache_max_bytes:
        Disk-tier byte budget (LRU-by-mtime pruning; ``None`` =
        unbounded).
    """

    def __init__(
        self,
        *,
        policy=None,
        workers: int = 2,
        capacity_units: float | None = None,
        rate_units_per_s: float | None = None,
        window_s: float = 1.0,
        cache_entries: int = 4096,
        slos=None,
        access_log=None,
        sample_interval_s: float = 1.0,
        shard_id: str | None = None,
        budget=None,
        cache_dir: Path | str | None = None,
        cache_max_bytes: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not window_s > 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        self._policy = policy
        self.workers = int(workers)
        self._capacity_override = capacity_units
        self._rate_override = rate_units_per_s
        self.window_s = float(window_s)
        self.shard_id = None if shard_id is None else str(shard_id)
        self._budget = budget
        self._registry = obs_counters.Counters()
        self._cache = ResultCache(
            max_entries=cache_entries,
            disk_dir=cache_dir,
            disk_max_bytes=cache_max_bytes,
            counters=self._registry,
        )
        self.telemetry = RuntimeTelemetry(
            slos=slos,
            access_log=access_log,
            sample_interval_s=sample_interval_s,
        )
        self._sampler_task: asyncio.Task | None = None
        self._controller: AdmissionController | None = None
        self._gate: asyncio.Semaphore | None = None
        self._http = HttpFront(self.handle)
        self._server: asyncio.base_events.Server | None = None
        #: Pool-bound requests waiting for a dispatch slot (sheddable).
        self._queued: dict[str, asyncio.Future] = {}
        self._dispatches: set[asyncio.Task] = set()
        self._tickets: OrderedDict[str, asyncio.Future] = OrderedDict()
        self._draining = False
        self._stopped = False
        self._seq = itertools.count(1)
        self.host: str | None = None
        self.port: int | None = None

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has been called; the router skips it."""
        return self._stopped

    @property
    def capacity_units(self) -> float | None:
        """The admission capacity (known once :meth:`start` calibrated)."""
        return (
            self._controller.capacity_units
            if self._controller is not None
            else self._capacity_override
        )

    def _emit(self, prefix: str, **values: float) -> None:
        """Bump ``<prefix>.<key>`` counters in this server's registry.

        Writing directly (instead of through the ambient
        :func:`repro.obs.counters` sink) keeps per-shard attribution
        correct when several services share one process.
        """
        for key, value in values.items():
            self._registry.add(f"{prefix}.{key}", value)

    # -- lifecycle ------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind, calibrate capacity and start serving; return (host, port)."""
        if self._server is not None:
            raise RuntimeError("service already started")
        loop = asyncio.get_running_loop()
        executor = get_executor(self.workers)
        rate = self._rate_override
        if rate is None:
            with span("service.calibrate"):
                rate = await loop.run_in_executor(
                    executor, worker_mod.calibrate
                )
        capacity = self._capacity_override
        if capacity is None:
            capacity = rate * self.workers * self.window_s
        self._controller = AdmissionController(
            self._policy,
            capacity_units=capacity,
            rate_units_per_s=rate,
            budget=self._budget,
            shard_id=self.shard_id if self.shard_id is not None else "0",
            counters=self._registry,
        )
        self._gate = asyncio.Semaphore(
            DISPATCH_SLOTS_PER_WORKER * self.workers
        )
        self._server = await self._http.listen(host, port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self.telemetry.sample(self._sample_state())  # seed the ring
        self._sampler_task = loop.create_task(self._sampler())
        return self.host, self.port

    async def stop(self, drain: bool = True) -> None:
        """Stop serving; with *drain*, finish every in-flight request.

        New ``/solve`` requests are answered 503 from the moment drain
        begins.  With *drain* every queued and running pool request is
        solved and its (sync) response written before connections are
        closed; without it, requests still waiting for a dispatch slot
        are answered 503 ``"shutting down"`` and only the running ones
        finish.  Either way every request is answered exactly once.  The
        worker pool itself is left warm — it is process-global and shut
        down at interpreter exit.
        """
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        if self._sampler_task is not None:
            self._sampler_task.cancel()
            self._sampler_task = None
        self._http.close()
        if not drain:
            for req_id, future in self._queued.items():
                if not future.done():
                    future.set_result(
                        (
                            503,
                            {
                                "status": "error",
                                "id": req_id,
                                "error": "shutting down",
                            },
                        )
                    )
            self._queued.clear()
        if self._dispatches:
            await asyncio.gather(*self._dispatches, return_exceptions=True)
        # Answer what is still in flight, then close every connection.
        await self._http.drain()

    # -- routing --------------------------------------------------------

    async def handle(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict | str | tuple[bytes, str], dict[str, str] | None]:
        """Answer one request: ``(status, payload, extra_headers)``.

        The one entry point of every request, whether this shard's own
        :class:`~repro.service.http.HttpFront` read it off a connection
        or the fleet's router handed it over.
        """
        path, _, query = path.partition("?")
        route = route_of(path)
        endpoint = "/result" if route == "/result/" else route
        req_id = None
        if route == "/solve" and method == "POST":
            # Minted before parsing so even a 400 is traceable; the
            # shard prefix lets the router route /result lookups.
            prefix = "" if self.shard_id is None else f"s{self.shard_id}-"
            req_id = f"{prefix}r{next(self._seq):08d}"
        loop = asyncio.get_running_loop()
        started = loop.time()
        attrs = {"method": method, "path": endpoint}
        if req_id is not None:
            attrs["req_id"] = req_id
        with span("service.request", **attrs):
            try:
                status, payload = await self._route_inner(
                    method, route, path, query, body, req_id
                )
            except Exception as exc:  # noqa: BLE001 - must answer something
                self._emit("service.errors", internal=1)
                status, payload = 500, {"status": "error", "error": str(exc)}
        seconds = loop.time() - started
        self.telemetry.record_request(endpoint, status, seconds)
        self.telemetry.observe_request(
            endpoint=endpoint,
            method=method,
            status=status,
            seconds=seconds,
            req_id=req_id,
            reason=(
                payload.get("reason")
                if isinstance(payload, dict)
                else None
            ),
        )
        self._emit("service.http", requests=1)
        self._registry.add(f"service.http.status_{status}")
        extra = {"X-Repro-Request-Id": req_id} if req_id else None
        return status, payload, extra

    async def _route_inner(
        self,
        method: str,
        route: str,
        path: str,
        query: str,
        body: bytes,
        req_id: str | None,
    ) -> tuple[int, dict | str | tuple[bytes, str]]:
        refused = refusal(method, route)
        if refused is not None:
            return refused
        if route == "/solve":
            return await self._solve(body, req_id)
        if route == "/healthz":
            return 200, self.health()
        if route == "/metrics":
            if "format=json" in query.split("&"):
                return 200, self.metrics_dict()
            return 200, self.metrics_text()
        return self._result(path[len("/result/") :])

    # -- reads (the router calls these directly) ------------------------

    def health(self) -> dict:
        """The ``/healthz`` payload."""
        controller = self._controller
        health = {
            "status": "draining" if self._draining else "ok",
            "inflight_units": controller.inflight_units if controller else 0.0,
            "utilisation": controller.utilisation if controller else 0.0,
            "uptime_s": time.time() - self.telemetry.started_at,
        }
        if self.shard_id is not None:
            health["shard"] = self.shard_id
        return health

    def metrics_dict(self) -> dict:
        """The ``/metrics?format=json`` payload (also used by tests/CI)."""
        return {
            "service": {
                "host": self.host,
                "port": self.port,
                "workers": self.workers,
                "policy": self._controller.policy.name
                if self._controller
                else None,
                "draining": self._draining,
                "shard": self.shard_id,
            },
            "requests": self.telemetry.requests_dict(),
            "admission": self._controller.stats() if self._controller else {},
            "cache": self._cache.stats(),
            "counters": self.counters(),
            "runtime": self.telemetry.runtime_dict(
                queue_depth=len(self._queued),
                energy_j=self._energy_proxy_j(),
            ),
        }

    def counters(self) -> dict[str, float]:
        """This server's :mod:`repro.obs` counter totals."""
        return self._registry.snapshot()

    def metrics_families(self) -> list[Family]:
        """Every family of the ``GET /metrics`` exposition."""
        controller = self._controller
        return self.telemetry.families(
            counters=self.counters(),
            admission=controller.stats() if controller else {},
            cache=self._cache.stats(),
            info={
                "policy": controller.policy.name if controller else None,
                "workers": self.workers,
            },
            queue_depth=len(self._queued),
            energy_j=self._energy_proxy_j(),
        )

    def metrics_text(self) -> str:
        """The ``GET /metrics`` Prometheus text exposition."""
        return render(self.metrics_families())

    # -- runtime sampling -----------------------------------------------

    def _energy_proxy_j(self) -> float:
        """Energy spent on completed work: seconds of full-speed worker
        time (units / measured rate) priced on the admission curve."""
        controller = self._controller
        if controller is None or not controller.rate_units_per_s:
            return 0.0
        seconds = controller.completed_units / controller.rate_units_per_s
        return seconds * _FULL_POWER_W

    def _sample_state(self) -> dict:
        """One raw-totals tick for the telemetry ring (never rates)."""
        controller = self._controller
        counters = self._registry.snapshot()
        return {
            "requests": self.telemetry.total_requests(),
            "solve_total": counters.get("service.solve.total", 0),
            "cached": counters.get("service.solve.cached", 0),
            "admitted": controller.admitted_total if controller else 0,
            "rejected": controller.rejected_total if controller else 0,
            "shed": controller.shed_total if controller else 0,
            "queue_depth": len(self._queued),
            "utilisation": controller.utilisation if controller else 0.0,
            "energy_j": self._energy_proxy_j(),
        }

    async def _sampler(self) -> None:
        while True:
            await asyncio.sleep(self.telemetry.sample_interval_s)
            self.telemetry.sample(self._sample_state())

    # -- the solve path -------------------------------------------------

    async def _solve(
        self, body: bytes, req_id: str
    ) -> tuple[int, dict | tuple[bytes, str]]:
        self._emit("service.solve", total=1)
        try:
            parsed = json.loads(body.decode() or "null")
            request = parse_solve_request(parsed, req_id)
        except (RequestError, ValueError) as exc:
            self._emit("service.solve", invalid=1)
            return 400, {"status": "error", "id": req_id, "error": str(exc)}
        cached = self._cache.get(request.cache_key)
        if cached is not None:
            self._emit("service.solve", cached=1)
            return 200, _done(request.req_id, "hit", cached)
        if self._draining:
            self._emit("service.solve", unavailable=1)
            return 503, {"status": "error", "id": req_id, "error": "draining"}
        with span("service.admission", req_id=request.req_id):
            decision = self._controller.offer(
                request.req_id,
                request.cost_units,
                request.weight,
                deadline_s=request.deadline_s,
            )
        if not decision.admitted:
            self._emit("service.solve", rejected=1)
            return 429, {
                "status": "rejected",
                "id": request.req_id,
                "reason": decision.reason,
                "utilisation": self._controller.utilisation,
            }
        self._emit("service.solve", admitted=1)
        for victim_id in decision.shed:
            victim = self._queued.pop(victim_id, None)
            if victim is not None and not victim.done():
                victim.set_result(
                    (
                        429,
                        {
                            "status": "rejected",
                            "id": victim_id,
                            "reason": "shed",
                        },
                    )
                )
        if request.inline:
            return self._solve_inline(request)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._queued[request.req_id] = future
        task = loop.create_task(self._solve_pooled(request, future))
        self._dispatches.add(task)
        task.add_done_callback(self._dispatches.discard)
        if request.mode == "async":
            self._tickets[request.req_id] = future
            while len(self._tickets) > 10_000:
                self._tickets.popitem(last=False)
            return 202, {"status": "accepted", "id": request.req_id}
        status, payload = await future
        return status, payload

    def _solve_inline(
        self, request: SolveRequest
    ) -> tuple[int, dict | tuple[bytes, str]]:
        """Solve an admitted request on the event-loop thread.

        The venue rule lives in :attr:`SolveRequest.inline`: the solve
        is priced under one pool round-trip, so shipping it would cost
        more than running it.  No ``await`` separates admission from
        release, so the lease is held for exactly the solve.  It runs
        on the loop's own thread, not a helper thread, because the
        trace and counter sinks the solve swaps are process-global.
        """
        self._controller.dispatched(request.req_id)
        payload = request.worker_payload()
        payload["trace"] = active_sink() is not None
        # A one-request batch span keeps the traced per-batch round-trip
        # (batch minus worker time) meaningful for this venue too.
        with span("service.batch", requests=1, venue="inline"):
            result = worker_mod.solve_payload(payload)
        self._emit("service.solve", inline=1)
        return self._settle(request, result)

    def _result(self, req_id: str) -> tuple[int, dict | tuple[bytes, str]]:
        future = self._tickets.get(req_id)
        if future is None:
            return 404, {"status": "error", "error": f"unknown id {req_id!r}"}
        if not future.done():
            return 202, {"status": "pending", "id": req_id}
        status, payload = future.result()
        return status, payload

    # -- pool dispatch --------------------------------------------------

    async def _solve_pooled(
        self, request: SolveRequest, future: asyncio.Future
    ) -> None:
        """Wait for a dispatch slot, solve on the pool, resolve *future*.

        Until the slot is granted the request stays queued: a shed or a
        ``stop(drain=False)`` answers *future* and the solve is skipped.
        """
        async with self._gate:
            if future.done():
                return
            self._queued.pop(request.req_id, None)
            self._controller.dispatched(request.req_id)
            self._emit("service.batch", dispatched=1, requests=1)
            payload = request.worker_payload()
            payload["trace"] = active_sink() is not None
            with span("service.batch", requests=1):
                result = await self._pool_round_trip(payload)
            try:
                reply = self._settle(request, result)
            except Exception as exc:  # noqa: BLE001 - the waiter needs a reply
                self._emit("service.errors", internal=1)
                reply = 500, {
                    "status": "error",
                    "id": request.req_id,
                    "error": str(exc),
                }
            if not future.done():
                future.set_result(reply)

    async def _pool_round_trip(self, payload: dict) -> dict:
        """``solve_payload`` on the pool; a pool failure becomes a result.

        A broken pool is evicted and the request retried once on a
        fresh one; any other pool exception answers 500.
        """
        loop = asyncio.get_running_loop()
        error = "worker pool crashed twice"
        for _ in range(2):
            try:
                return await loop.run_in_executor(
                    get_executor(self.workers),
                    worker_mod.solve_payload,
                    payload,
                )
            except BrokenProcessPool:
                evict_executor(self.workers)
                self._emit("service.batch", pool_rebuilds=1)
            except Exception as exc:  # noqa: BLE001 - answered as a 500
                error = str(exc) or type(exc).__name__
                break
        return {
            "req_id": payload["req_id"],
            "ok": False,
            "error": error,
            "error_kind": "solver",
            "counters": None,
        }

    def _settle(
        self, request: SolveRequest, result: dict
    ) -> tuple[int, dict | tuple[bytes, str]]:
        """Account for one finished solve and build its reply.

        Releases the lease, merges the solve's counters, re-emits its
        spans and caches a success, whichever venue ran it.  A success
        is answered from the text the cache stored.
        """
        req_id = request.req_id
        self._controller.release(req_id)
        counters = result.get("counters")
        if counters:
            self._registry.merge(counters)
        for record in result.get("spans") or ():
            emit_record(record)
        if result["ok"]:
            text = self._cache.put(request.cache_key, result["solution"])
            return 200, _done(req_id, "miss", text)
        kind = result.get("error_kind", "solver")
        self._emit("service.solve", failed=1)
        return 400 if kind == "bad_request" else 500, {
            "status": "error",
            "id": req_id,
            "error": result.get("error", "solve failed"),
        }


def _done(req_id: str, cache: str, solution_json: str) -> tuple[bytes, str]:
    """The encoded ``200`` body of a solved request, around its solution text.

    Byte for byte ``json.dumps(payload, sort_keys=True) + "\n"`` of
    ``{"status": "done", "id": req_id, "cache": cache, "solution":
    solution}``, where *solution_json* is ``json.dumps(solution,
    sort_keys=True)``: the keys are spliced in sorted order.
    """
    body = (
        f'{{"cache": "{cache}", "id": {json.dumps(req_id)}, '
        f'"solution": {solution_json}, "status": "done"}}\n'
    )
    return body.encode(), "application/json"
