"""The ``/metrics`` text of one server and of a 2-shard fleet, byte for byte.

Both expositions are rendered from fixed state: recorded latencies,
counter, admission and cache dicts, and a frozen ``time.time``.  The
single-server text comes from :meth:`SolveService.metrics_text`; the
fleet text from ``GET /metrics`` on a :class:`ShardRouter` over two
unstarted services.  The expected texts live next to this module in
``golden/``; a change meant to move them rewrites them with
``PYTHONPATH=src python -m tests.service.test_metrics_golden`` and says
why.
"""

from __future__ import annotations

import time
from pathlib import Path
from types import SimpleNamespace

from repro.service import SolveService
from repro.service.loadgen import http_exchange
from repro.service.shard.router import ShardRouter

from tests.service.conftest import run

GOLDEN = Path(__file__).with_name("golden")

#: ``time.time`` while the services are built, then while they render.
_BUILT_AT, _READ_AT = 1_700_000_000.0, 1_700_000_012.5

#: (endpoint, status, seconds, request id) recorded on every service.
_REQUESTS = (
    ("/solve", 200, 0.0042, "r00000001"),
    ("/solve", 200, 0.0187, "r00000002"),
    ("/solve", 429, 0.0001, "r00000003"),
    ("/solve", 400, 0.0003, "r00000004"),
    ("/healthz", 200, 0.00005, None),
    ("/metrics", 200, 0.0021, None),
    ("/result", 404, 0.0009, None),
    ("/nope", 404, 0.00002, None),
)


def _service(k: int, shard_id: str | None, clock: list[float]) -> SolveService:
    """An unstarted service whose exposition sources are fixed dicts."""
    svc = SolveService(workers=2, shard_id=shard_id)
    admission = {
        "policy": "accept_if_feasible",
        "capacity_units": 80.0,
        "rate_units_per_s": 4000.0,
        "inflight_units": 36.0 + k,
        "utilisation": (36.0 + k) / 80.0,
        "admitted": 5 + k,
        "rejected": 1,
        "shed": k,
        "completed_units": 250.5 * (k + 1),
    }
    if shard_id is not None:
        admission["shard"] = shard_id
        admission["budget"] = {"budget_units": 160.0, "leased_units": 72.0}
    svc._controller = SimpleNamespace(
        stats=lambda: admission,
        policy=SimpleNamespace(name=admission["policy"]),
        rate_units_per_s=admission["rate_units_per_s"],
        completed_units=admission["completed_units"],
        inflight_units=admission["inflight_units"],
        utilisation=admission["utilisation"],
    )
    cache = {"entries": 3 + k, "max_entries": 4096, "hits": 2, "misses": 7 + k}
    if shard_id is not None:
        cache["disk_hits"] = k
    svc._cache = SimpleNamespace(stats=lambda: cache)
    for name, value in (
        ("service.solve.total", 10 + 2 * k),
        ("service.solve.cached", 2),
        ("service.solve.admitted", 5 + k),
        ("service.solve.rejected", 1),
        ("service.solve.invalid", 1 + k),
        ("service.solve.unavailable", 1),
        ("service.solve.inline", 5 + k),
        ("service.cache.hits", 2),
        ("service.cache.misses", 7 + k),
        ("greedy_marginal.calls", 5 + k),
        ("greedy_marginal.seconds", 0.125 * (k + 1)),
    ):
        svc._registry.add(name, value)
    for endpoint, status, seconds, req_id in _REQUESTS:
        seconds *= k + 1
        clock[0] += 0.25
        svc.telemetry.record_request(endpoint, status, seconds)
        svc.telemetry.observe_request(
            endpoint=endpoint,
            method="POST" if endpoint == "/solve" else "GET",
            status=status,
            seconds=seconds,
            req_id=req_id if shard_id is None else f"s{shard_id}-{req_id}",
        )
    return svc


def render_both() -> tuple[str, str]:
    """The single-server and the fleet ``/metrics`` texts."""
    real_time = time.time
    clock = [_BUILT_AT]
    time.time = lambda: clock[0]
    try:
        single = _service(0, None, clock)
        shards = [_service(k, str(k), clock) for k in range(2)]
        clock[0] = _READ_AT
        one = single.metrics_text()

        async def scrape() -> str:
            router = ShardRouter(shards)
            host, port = await router.start()
            try:
                status, _, text = await http_exchange(
                    host, port, "GET", "/metrics"
                )
                assert status == 200
                return text
            finally:
                await router.stop()

        return one, run(scrape())
    finally:
        time.time = real_time


def test_metrics_texts_match_the_golden_files():
    one, fleet = render_both()
    assert one == (GOLDEN / "metrics_one.prom").read_text()
    assert fleet == (GOLDEN / "metrics_fleet.prom").read_text()


def test_fleet_shards_are_labelled_in_string_order():
    async def body() -> list[str]:
        router = ShardRouter([SolveService(shard_id=str(k)) for k in range(11)])
        host, port = await router.start()
        try:
            _, _, text = await http_exchange(host, port, "GET", "/metrics")
        finally:
            await router.stop()
        return [
            line.split('"')[1]
            for line in text.splitlines()
            if line.startswith("repro_shard_up{")
        ]

    assert run(body()) == sorted(str(k) for k in range(11))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in zip(("metrics_one", "metrics_fleet"), render_both()):
        (GOLDEN / f"{name}.prom").write_text(text)
        print(f"wrote {GOLDEN / name}.prom ({text.count(chr(10))} lines)")
