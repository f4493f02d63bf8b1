"""The served path: ``POST /solve`` over HTTP against a live server.

The traffic is that of ``repro bench-serve`` with its defaults, as CI
runs it (``--requests 200 --seed <seed>``): the 200 bodies of
:func:`repro.service.loadgen.make_bodies` (``greedy_marginal``, 6-12
tasks at 0.8-2.2x capacity), sent by :data:`CLIENTS` closed-loop
keep-alive clients (``--concurrency 8``), each sending its next request
when the previous answer arrives, over loadgen's own HTTP exchange.

``serve`` is bench-serve's first pass against ``repro serve``: every
request misses the cache, so each goes ``parse -> admission -> batch
-> pool -> worker solve``.  A run sends more than 200 requests, so
request *i* is body ``i % 200`` with its first task renamed to a name
of its own: a new cache key for the same solve.

``fleet`` is bench-serve's second pass against ``repro serve --shards
2``: the same 200 bodies in order, over and over, each answered
``router -> shard -> memory cache`` without solving.  The fleet keeps
the shared disk tier ``repro serve --shards`` always configures;
priming fills both shards' memory tiers, and every run checks that the
timed loop never left them.

Admission capacity is set far above the offered work so that no
request is refused: a 429 would count as a failure here.

The loop runs in :data:`~common.PROBE_EVERY_S` segments.  Between two
segments no request is in flight and the pool is idle, and the speed
probe (see :mod:`common`) runs there, with the loop's clock stopped,
so it measures the machine and not the program's own workers.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import shutil
import time
from contextlib import nullcontext
from pathlib import Path

from repro.core import rejection
from repro.io import instance_from_dict, solution_to_dict
from repro.obs.trace import MemorySink, tracing
from repro.runner import shutdown_pools
from repro.service.loadgen import http_exchange, make_bodies
from repro.service.server import SolveService
from repro.service.shard.fleet import LocalFleet

import layers
from common import PROBE_EVERY_S, Outcome

HOST = "127.0.0.1"

#: Closed-loop clients: the ``repro bench-serve --concurrency`` default.
CLIENTS = 8

#: Distinct bodies: the ``repro bench-serve --requests`` default.
REQUESTS = 200

#: Pool workers per server: the ``repro serve --workers`` default.
WORKERS = 2

#: Admission capacity in work units: far above anything in flight.
CAPACITY_UNITS = 1e12

#: One answer in this many is kept and checked after the loop.  Keeping
#: every answer would grow the heap during timing, and with it the
#: garbage collector's pauses.
CHECK_EVERY = 50

#: Seconds any single request may take before the run is abandoned.
REQUEST_TIMEOUT_S = 60.0


def _renamed(body: dict, name: str) -> dict:
    """*body* with its first task renamed: a new cache key, the same solve."""
    instance = body["instance"]
    first, *rest = instance["tasks"]
    tasks = [dict(first, name=name), *rest]
    return dict(body, instance=dict(instance, tasks=tasks))


async def _post(port: int, body: dict, connection=None) -> tuple[int, dict]:
    """``POST /solve``, on *connection* ``(reader, writer)`` when given."""
    reader, writer = connection or (None, None)
    status, _, reply = await http_exchange(
        HOST, port, "POST", "/solve", body, reader=reader, writer=writer
    )
    return status, reply


def _reference(body: dict) -> dict:
    """The solution a correct server returns for *body*, solved here."""
    solution = getattr(rejection, body["algorithm"])(
        instance_from_dict(body["instance"])
    )
    return json.loads(json.dumps(solution_to_dict(solution)))


def _counter_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


class _Served:
    """Shared lifecycle: an event loop owning the server under test."""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.bodies = make_bodies(seed, REQUESTS)
        self.loop = asyncio.new_event_loop()
        self.server = None
        self.port: int | None = None
        self.solutions: dict[int, dict] = {}
        self._starts = 0

    # Subclasses provide every_cpu, _start() -> (server, port),
    # _services(), body_for(i) and _expected(i).

    def setup(self) -> None:
        """Start the server and answer one round of warm-up requests."""
        self._starts += 1
        self.server, self.port = self.loop.run_until_complete(self._start())

        async def warm_up(k: int) -> None:
            # Renamed bodies, so the timed keys stay cold.
            body = _renamed(self.bodies[k], f"w{self._starts}.{k}")
            status, reply = await _post(self.port, body)
            if status != 200:
                raise RuntimeError(f"warm-up request failed: {status} {reply!r}")

        async def warm_all() -> None:
            await asyncio.gather(*(warm_up(k) for k in range(CLIENTS)))

        self.loop.run_until_complete(warm_all())

    def close(self) -> None:
        if self.server is not None:
            self.loop.run_until_complete(self.server.stop(drain=True))
            self.server = None
        shutdown_pools()

    def shutdown(self) -> None:
        """Close the server and the event loop for good."""
        self.close()
        self.loop.close()

    def _counters(self) -> dict:
        total: dict[str, float] = {}
        for service in self._services():
            for key, value in service.metrics_dict()["counters"].items():
                total[key] = total.get(key, 0) + value
        return total

    async def _closed_loop(self, seconds: float, outcome: Outcome, answered) -> None:
        """:data:`CLIENTS` clients for *seconds* of loop time.

        ``answered(i, sent, done, status, reply)`` gets every answered
        request, with ``perf_counter`` times; transport failures are
        counted in *outcome*.
        """
        counter = itertools.count()
        connections = [
            await asyncio.open_connection(HOST, self.port) for _ in range(CLIENTS)
        ]

        async def client(slot: int, until: float) -> None:
            while time.perf_counter() < until:
                index = next(counter)
                body = self.body_for(index)
                sent = time.perf_counter()
                try:
                    status, reply = await asyncio.wait_for(
                        _post(self.port, body, connections[slot]), REQUEST_TIMEOUT_S
                    )
                except (ConnectionError, OSError, asyncio.IncompleteReadError):
                    outcome.failed += 1
                    connections[slot][1].close()
                    connections[slot] = await asyncio.open_connection(HOST, self.port)
                    continue
                answered(index, sent, time.perf_counter(), status, reply)

        try:
            segment = 0
            while time.perf_counter() - outcome.start < seconds:
                outcome.sample_speed()
                segment += 1
                until = outcome.start + min(segment * PROBE_EVERY_S, seconds)
                await asyncio.gather(*(client(slot, until) for slot in range(CLIENTS)))
        finally:
            for _, writer in connections:
                writer.close()
        outcome.finish()

    def measure(self, seconds: float, trace: bool) -> Outcome:
        self._prime()
        before = self._counters()
        sink = MemorySink() if trace else None
        outcome = Outcome(every_cpu=self.every_cpu)
        by_id: dict[str, float] = {}
        hits: set[str] = set()

        def answered(index, sent, done, status, reply) -> None:
            if status != 200:
                outcome.failed += 1
                if len(outcome.problems) < 5:
                    outcome.problems.append(
                        f"request {index}: HTTP {status} {str(reply)[:200]}"
                    )
                return
            outcome.record(sent, done)
            if index % CHECK_EVERY == 0:
                self.solutions[index] = reply.get("solution")
            if trace:
                by_id[reply["id"]] = done - sent
                if reply.get("cache") == "hit":
                    hits.add(reply["id"])

        with tracing(sink) if sink is not None else nullcontext():
            self.loop.run_until_complete(
                self._closed_loop(seconds, outcome, answered)
            )
        delta = _counter_delta(before, self._counters())
        outcome.problems.extend(self._check_counters(delta))
        if trace:
            metrics = {}
            metrics.update(layers.served_layers(sink.records, by_id, hits))
            metrics.update(layers.counter_metrics(delta, len(outcome.latencies)))
            metrics["cache_hit_ratio"] = len(hits) / max(len(by_id), 1)
            outcome.layers = metrics
        return outcome

    def check(self) -> list[str]:
        """Kept solutions equal the same solves run in-process."""
        return [
            f"request {index}: solution differs from reference"
            for index, served in self.solutions.items()
            if served != self._expected(index)
        ]

    def _prime(self) -> None:
        """Fill caches before timing (nothing to fill by default)."""

    def _check_counters(self, delta: dict) -> list[str]:
        """Problems the server's counters show over the timed loop."""
        return []


class ServeWorkload(_Served):
    """One server, every request a cache miss."""

    #: Solves run in the pool's worker processes.
    every_cpu = True

    def body_for(self, index: int) -> dict:
        return _renamed(self.bodies[index % REQUESTS], f"v{index}")

    async def _start(self):
        service = SolveService(workers=WORKERS, capacity_units=CAPACITY_UNITS)
        _, port = await service.start()
        return service, port

    def _services(self):
        return [self.server]

    def _expected(self, index: int) -> dict:
        return _reference(self.body_for(index))


class FleetWorkload(_Served):
    """A router over two shards, the same bodies over and over."""

    #: Cache hits are answered in this process's event loop.
    every_cpu = False

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.cache_dir: Path | None = None
        self.expected: dict[int, dict] = {}

    def body_for(self, index: int) -> dict:
        return self.bodies[index % REQUESTS]

    async def _start(self):
        self.cache_dir = self.work_dir / f"fleet-cache-{self._starts}"
        fleet = LocalFleet(
            shards=2,
            workers=WORKERS,
            capacity_units=CAPACITY_UNITS,
            cache_dir=self.cache_dir,
        )
        _, port = await fleet.start()
        return fleet, port

    def close(self) -> None:
        super().close()
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def _services(self):
        return self.server.services

    def _prime(self) -> None:
        """Send every body twice in a row.  The round-robin router sends
        the two copies to different shards: one solves the body, the
        other reads it from the shared disk tier, and both memory tiers
        then hold it."""

        async def prime() -> None:
            connection = await asyncio.open_connection(HOST, self.port)
            try:
                for key, body in enumerate(self.bodies):
                    for _ in range(2):
                        status, _ = await _post(self.port, body, connection)
                        if status != 200:
                            raise RuntimeError(f"priming key {key} failed: {status}")
            finally:
                connection[1].close()
                await connection[1].wait_closed()

        self.loop.run_until_complete(prime())

    def _check_counters(self, delta: dict) -> list[str]:
        """Every timed request was a memory hit on its shard."""
        misses = delta.get("service.cache.misses", 0)
        disk_hits = delta.get("service.cache.disk_hits", 0)
        if misses or disk_hits:
            return [
                f"timed loop left the memory tier: {misses} misses, "
                f"{disk_hits} disk hits"
            ]
        return []

    def _expected(self, index: int) -> dict:
        key = index % REQUESTS
        if key not in self.expected:
            self.expected[key] = _reference(self.bodies[key])
        return self.expected[key]
