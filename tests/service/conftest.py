"""Fixtures for the solve-service tests.

The asyncio tests run their coroutine bodies through ``asyncio.run``
(no pytest-asyncio dependency); ``threaded_server`` hosts a real
:class:`SolveService` in a background thread with its own event loop,
for tests that exercise the synchronous client side (``run_load``);
``park_pool`` holds pool-bound requests queued or in flight for as
long as a test needs to look at them.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.runner.pool import get_executor
from repro.service import SolveService

#: Generous capacity/rate so admission never interferes unless a test
#: deliberately shrinks them.
BIG = 1e12


def run(coro, timeout: float = 60.0):
    """Run *coro* to completion with an overall watchdog."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


def park_pool(workers: int, seconds: float) -> list:
    """Occupy every worker of the shared pool with a *seconds* sleep.

    The service dispatches to the same ``get_executor(workers)``, so
    pool-bound requests sent meanwhile run only after the sleeps: the
    first ``DISPATCH_SLOTS_PER_WORKER * workers`` of them wait in the
    pool, the rest stay queued (sheddable) in the service.
    """
    executor = get_executor(workers)
    return [executor.submit(time.sleep, seconds) for _ in range(workers)]


class ThreadedServer:
    """A SolveService running in a daemon thread (own event loop)."""

    def __init__(self, **kwargs) -> None:
        self.host: str | None = None
        self.port: int | None = None
        self.service: SolveService | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._kwargs = kwargs
        self._thread = threading.Thread(target=self._main, daemon=True)

    def _main(self) -> None:
        async def body() -> None:
            self.service = SolveService(**self._kwargs)
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self.host, self.port = await self.service.start()
            self._ready.set()
            await self._stop.wait()
            await self.service.stop(drain=True)

        asyncio.run(body())

    def __enter__(self) -> "ThreadedServer":
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("service failed to start")
        return self

    def __exit__(self, *exc) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)


@pytest.fixture
def threaded_server():
    """Factory fixture: ``with threaded_server(**kwargs) as srv:``."""
    return ThreadedServer
