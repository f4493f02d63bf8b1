"""Fleet assembly: N solve shards + the router, wired together.

:class:`LocalFleet` hosts everything in one asyncio loop — N
:class:`~repro.service.server.SolveService` shards (each with its own
counter registry), one shared
:class:`~repro.service.shard.budget.GlobalBudget` ledger, one shared
disk cache directory, and a :class:`~repro.service.shard.router
.ShardRouter` front door that hands each request to a shard's handler
on the same loop.  This is the one sharded topology: it is
behind ``repro serve --shards N``, the saturation bench, and the
cross-shard test wall.

Capacity semantics (the Nélis global-vs-partitioned mapping): each
shard keeps a *local* admission gate sized to its own pool, while the
fleet-wide ledger caps what all shards may hold **together** — by
default the same total one unsharded server with the summed capacity
would enforce, so sharding never relaxes the paper's budget.
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path

from repro.service.server import SolveService
from repro.service.shard.budget import GlobalBudget
from repro.service.shard.router import ShardRouter

__all__ = ["LocalFleet", "ThreadedFleet"]


class LocalFleet:
    """N in-process shards behind one router, sharing budget and cache.

    Parameters
    ----------
    shards:
        Shard count.
    budget_units:
        The fleet-wide admission budget; ``None`` derives it from the
        per-shard ``capacity_units`` (budget = shards × per-shard
        capacity — exactly the unsharded total).  With neither, the
        fleet has no ledger and each shard admits against its own
        capacity only.
    cache_dir:
        Shared disk-cache directory for the two-tier result cache;
        ``None`` disables the disk tier (shards then only share the
        budget).
    **service_kwargs:
        Forwarded to every :class:`SolveService` (policy, workers,
        capacity_units, window_s, slos, cache_max_bytes, ...).
    """

    def __init__(
        self,
        *,
        shards: int = 2,
        budget_units: float | None = None,
        cache_dir: Path | str | None = None,
        **service_kwargs,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.n_shards = int(shards)
        if budget_units is None:
            capacity = service_kwargs.get("capacity_units")
            if capacity is not None:
                budget_units = float(capacity) * self.n_shards
        self.budget = (
            None if budget_units is None else GlobalBudget(budget_units)
        )
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self.services = [
            SolveService(
                shard_id=str(index),
                budget=self.budget,
                cache_dir=self.cache_dir,
                **service_kwargs,
            )
            for index in range(self.n_shards)
        ]
        self.router = ShardRouter(self.services)
        self.host: str | None = None
        self.port: int | None = None

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Start every shard, then the router; returns the public address."""
        for service in self.services:
            await service.start(host, 0)
        self.host, self.port = await self.router.start(host, port)
        return self.host, self.port

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting at the front door, then drain every shard."""
        await self.router.stop()
        await asyncio.gather(
            *(service.stop(drain=drain) for service in self.services)
        )

    @property
    def shard_addresses(self) -> list[tuple[str, int]]:
        return [
            (service.host, service.port)
            for service in self.services
            if service.port is not None
        ]


class ThreadedFleet:
    """A LocalFleet in a daemon thread (own loop), for sync callers.

    The sharded twin of the test suite's ``ThreadedServer``: the bench
    harness and the load generator are synchronous, so the fleet runs
    in a background event loop and ``submit`` bridges coroutines into
    it (e.g. to inspect a shard's controller mid-test).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        **fleet_kwargs,
    ) -> None:
        self.fleet = LocalFleet(**fleet_kwargs)
        self.host: str | None = None
        self.port: int | None = None
        self._start_args = (host, port)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self) -> None:
        async def body() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                self.host, self.port = await self.fleet.start(
                    *self._start_args
                )
            except BaseException as exc:
                self._error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self._stop.wait()
            await self.fleet.stop(drain=True)

        asyncio.run(body())

    def __enter__(self) -> "ThreadedFleet":
        self._thread.start()
        if not self._ready.wait(timeout=120):
            raise RuntimeError("fleet failed to start")
        if self._error is not None:
            raise RuntimeError("fleet failed to start") from self._error
        return self

    def __exit__(self, *exc) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=120)

    def submit(self, coro, timeout: float = 60.0):
        """Run *coro* on the fleet's loop and return its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)
