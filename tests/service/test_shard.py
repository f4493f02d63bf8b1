"""Cross-shard integration wall: router, shared cache, global budget.

Every test spins a real 2-shard :class:`LocalFleet` (router + shards on
ephemeral ports, one event loop) and talks HTTP through the load
generator's client.  The four properties ISSUE 9 pins:

* a result solved on one shard is a *disk-tier* hit on another,
* the fleet ``/metrics`` counter invariant equals the sum of the
  per-shard invariants (and the Prometheus series decompose by the
  ``shard`` label),
* offered load past the fleet budget yields deterministic 429s with
  reason ``"budget"`` while leased units never exceed the budget,
* draining the fleet never drops an in-flight request.
"""

import asyncio

import pytest

from repro.service import LocalFleet, models
from repro.service.http import HttpFront
from repro.service.loadgen import http_exchange, http_json, make_bodies
from repro.service.models import estimate_cost
from repro.service.shard import GlobalBudget

from tests.service.conftest import BIG, park_pool, run

#: The fleet counter invariant's parts (pinned by test_server for one
#: shard; re-pinned here fleet-wide).
PARTS = ("cached", "admitted", "rejected", "invalid", "unavailable")


async def _start_fleet(**kwargs) -> LocalFleet:
    settings = dict(
        shards=2, workers=1, rate_units_per_s=1e9, capacity_units=BIG
    )
    settings.update(kwargs)
    fleet = LocalFleet(**settings)
    await fleet.start()
    return fleet


async def _fleet_json_metrics(fleet: LocalFleet) -> dict:
    status, payload = await http_json(
        fleet.host, fleet.port, "GET", "/metrics?format=json"
    )
    assert status == 200, payload
    return payload


def _invariant(counters: dict) -> tuple[int, int]:
    total = counters.get("service.solve.total", 0)
    return total, sum(counters.get(f"service.solve.{p}", 0) for p in PARTS)


class TestRouterFanOut:
    def test_round_robin_spreads_and_prefixes_request_ids(self):
        async def body():
            fleet = await _start_fleet()
            try:
                shards_seen = set()
                for request in make_bodies(0, 4):
                    status, payload = await http_json(
                        fleet.host, fleet.port, "POST", "/solve", request
                    )
                    assert status == 200, payload
                    prefix, _, _ = payload["id"].partition("-")
                    shards_seen.add(prefix)
                assert shards_seen == {"s0", "s1"}
                stats = fleet.router.stats()
                assert stats["counters"]["router.solve.proxied"] == 4
                assert stats["counters"]["router.solve.shard_0"] == 2
                assert stats["counters"]["router.solve.shard_1"] == 2
            finally:
                await fleet.stop()

        run(body())

    def test_health_aggregates_every_shard(self):
        async def body():
            fleet = await _start_fleet()
            try:
                status, health = await http_json(
                    fleet.host, fleet.port, "GET", "/healthz"
                )
                assert status == 200
                assert health["status"] == "ok"
                assert health["role"] == "router"
                assert len(health["shards"]) == 2
                assert all(s["status"] == "ok" for s in health["shards"])
                assert {s["shard"] for s in health["shards"]} == {"0", "1"}
            finally:
                await fleet.stop()

        run(body())

    def test_async_ticket_routes_back_to_its_shard(self):
        async def body():
            fleet = await _start_fleet()
            try:
                request = dict(make_bodies(3, 1)[0], mode="async")
                status, accepted = await http_json(
                    fleet.host, fleet.port, "POST", "/solve", request
                )
                assert status == 202, accepted
                req_id = accepted["id"]
                assert req_id.startswith("s0-")
                for _ in range(200):
                    status, payload = await http_json(
                        fleet.host, fleet.port, "GET", f"/result/{req_id}"
                    )
                    if status == 200:
                        break
                    assert status == 202, payload
                    await asyncio.sleep(0.01)
                assert status == 200
                assert payload["status"] == "done"
                assert "solution" in payload

                status, missing = await http_json(
                    fleet.host, fleet.port, "GET", "/result/s1-r99999999"
                )
                assert status == 404, missing
            finally:
                await fleet.stop()

        run(body())

    def test_bad_body_and_unknown_path_pass_through(self):
        async def body():
            fleet = await _start_fleet()
            try:
                status, payload = await http_json(
                    fleet.host, fleet.port, "POST", "/solve", {"nope": 1}
                )
                assert status == 400, payload
                status, payload = await http_json(
                    fleet.host, fleet.port, "GET", "/nonsense"
                )
                assert status == 404, payload
            finally:
                await fleet.stop()

        run(body())

    def test_dead_shard_is_skipped_not_fatal(self):
        async def body():
            fleet = await _start_fleet()
            try:
                # Kill shard 0 out from under the router; every request
                # must still land (on shard 1), none may see 502.
                await fleet.services[0].stop(drain=False)
                for request in make_bodies(5, 3):
                    status, payload = await http_json(
                        fleet.host, fleet.port, "POST", "/solve", request
                    )
                    assert status == 200, payload
                    assert payload["id"].startswith("s1-")
                health = (
                    await http_json(fleet.host, fleet.port, "GET", "/healthz")
                )[1]
                assert health["status"] == "degraded"
            finally:
                await fleet.stop()

        run(body())

    def test_every_shard_stopped_answers_502(self):
        async def body():
            fleet = await _start_fleet()
            try:
                for service in fleet.services:
                    await service.stop(drain=False)
                assert all(service.stopped for service in fleet.services)
                status, payload = await http_json(
                    fleet.host, fleet.port, "POST", "/solve",
                    make_bodies(6, 1)[0],
                )
                assert status == 502, payload
                assert payload["error"] == "no shard reachable"
                counters = fleet.router.stats()["counters"]
                assert counters["router.proxy.errors"] == 2
                assert counters["router.solve.unrouted"] == 1
                assert "router.solve.proxied" not in counters
                health = (
                    await http_json(fleet.host, fleet.port, "GET", "/healthz")
                )[1]
                assert [s["status"] for s in health["shards"]] == [
                    "down", "down"
                ]
            finally:
                await fleet.stop()

        run(body())

    def test_router_never_connects_to_a_shard(self, monkeypatch):
        # Every connection any front accepts is recorded: a routed pass
        # over all four routes must reach no shard's listener.
        fronts = []
        serve = HttpFront._serve

        async def recording(front, reader, writer):
            fronts.append(front)
            await serve(front, reader, writer)

        monkeypatch.setattr(HttpFront, "_serve", recording)

        async def body():
            fleet = await _start_fleet()
            address = fleet.host, fleet.port
            try:
                for request in make_bodies(29, 4):
                    status, _ = await http_json(
                        *address, "POST", "/solve", request
                    )
                    assert status == 200
                request = dict(make_bodies(30, 1)[0], mode="async")
                status, accepted = await http_json(
                    *address, "POST", "/solve", request
                )
                assert status == 202
                for _ in range(500):
                    status, _ = await http_json(
                        *address, "GET", f"/result/{accepted['id']}"
                    )
                    if status != 202:
                        break
                    await asyncio.sleep(0.01)
                assert status == 200
                for path in ("/healthz", "/metrics", "/metrics?format=json"):
                    assert (await http_exchange(*address, "GET", path))[0] == 200
                return fleet.router._http
            finally:
                await fleet.stop()

        router_front = run(body())
        assert fronts and all(front is router_front for front in fronts)


class TestSharedDiskCache:
    def test_solve_on_one_shard_disk_hits_on_the_other(self, tmp_path):
        async def body():
            fleet = await _start_fleet(cache_dir=tmp_path / "cache")
            try:
                request = make_bodies(7, 1)[0]
                a_host, a_port = fleet.shard_addresses[0]
                b_host, b_port = fleet.shard_addresses[1]

                status, first = await http_json(
                    a_host, a_port, "POST", "/solve", request
                )
                assert status == 200, first
                assert first["cache"] == "miss"

                # Shard B never saw the request: its memory LRU is
                # empty, so this hit can only come from the disk tier.
                status, second = await http_json(
                    b_host, b_port, "POST", "/solve", request
                )
                assert status == 200, second
                assert second["cache"] == "hit"
                assert second["solution"] == first["solution"]

                b_cache = fleet.services[1]._cache
                assert b_cache.disk_hits == 1
                assert b_cache.hits == 0

                # The disk hit was promoted: a repeat on B is a pure
                # memory hit and touches the disk tier no further.
                status, third = await http_json(
                    b_host, b_port, "POST", "/solve", request
                )
                assert status == 200
                assert third["cache"] == "hit"
                assert b_cache.disk_hits == 1
                assert b_cache.hits == 1
            finally:
                await fleet.stop()

        run(body())

    def test_disk_hit_counts_as_cached_in_the_invariant(self, tmp_path):
        async def body():
            fleet = await _start_fleet(cache_dir=tmp_path / "cache")
            try:
                request = make_bodies(11, 1)[0]
                for host, port in fleet.shard_addresses:
                    status, payload = await http_json(
                        host, port, "POST", "/solve", request
                    )
                    assert status == 200, payload
                counters = (await _fleet_json_metrics(fleet))["counters"]
                assert counters["service.solve.total"] == 2
                assert counters["service.solve.admitted"] == 1
                assert counters["service.solve.cached"] == 1
            finally:
                await fleet.stop()

        run(body())


class TestFleetMetrics:
    def test_fleet_invariant_is_the_sum_of_shard_invariants(self):
        async def body():
            fleet = await _start_fleet()
            try:
                bodies = make_bodies(13, 3)
                for request in bodies:
                    status, _ = await http_json(
                        fleet.host, fleet.port, "POST", "/solve", request
                    )
                    assert status == 200
                # A repeat (cached on whichever shard solved it first —
                # round-robin lands it on the shard that saw bodies[0])
                # and one invalid body.
                await http_json(
                    fleet.host, fleet.port, "POST", "/solve", bodies[0]
                )
                status, _ = await http_json(
                    fleet.host, fleet.port, "POST", "/solve", {"bad": True}
                )
                assert status == 400

                payload = await _fleet_json_metrics(fleet)
                fleet_total, fleet_parts = _invariant(payload["counters"])
                assert fleet_total == 5
                assert fleet_total == fleet_parts

                shard_totals = []
                shard_parts = []
                for host, port in fleet.shard_addresses:
                    status, shard = await http_json(
                        host, port, "GET", "/metrics?format=json"
                    )
                    assert status == 200
                    total, parts = _invariant(shard["counters"])
                    assert total == parts
                    shard_totals.append(total)
                    shard_parts.append(parts)
                assert sum(shard_totals) == fleet_total
                assert sum(shard_parts) == fleet_parts
                # Both shards actually served traffic.
                assert all(total > 0 for total in shard_totals)
            finally:
                await fleet.stop()

        run(body())

    def test_pool_dispatches_count_on_their_shard(self, monkeypatch):
        # Every solve goes to the pool; each shard must count its own
        # dispatches, so the venue partition holds fleet-wide.
        monkeypatch.setattr(models, "INLINE_UNITS", 0.0)

        async def body():
            fleet = await _start_fleet()
            try:
                for request in make_bodies(31, 6):
                    status, payload = await http_json(
                        fleet.host, fleet.port, "POST", "/solve", request
                    )
                    assert status == 200, payload
                return [svc._registry.snapshot() for svc in fleet.services]
            finally:
                await fleet.stop()

        shards = run(body())
        for counters in shards:
            assert counters["service.solve.admitted"] == 3
            assert counters["service.batch.requests"] == 3
        assert sum(c["service.batch.requests"] for c in shards) == 6

    def test_prometheus_exposition_decomposes_by_shard_label(self):
        async def body():
            fleet = await _start_fleet()
            try:
                for request in make_bodies(17, 4):
                    status, _ = await http_json(
                        fleet.host, fleet.port, "POST", "/solve", request
                    )
                    assert status == 200
                status, headers, raw = await http_exchange(
                    fleet.host, fleet.port, "GET", "/metrics"
                )
                assert status == 200
                assert "text/plain" in headers.get("content-type", "")
                text = raw if isinstance(raw, str) else raw.decode()

                admitted = {}
                up = {}
                for line in text.splitlines():
                    if line.startswith("repro_solve_requests_total{"):
                        labels, _, value = line.partition("} ")
                        if 'outcome="admitted"' in labels:
                            shard = labels.split('shard="')[1].split('"')[0]
                            admitted[shard] = float(value)
                    if line.startswith("repro_shard_up{"):
                        labels, _, value = line.partition("} ")
                        shard = labels.split('shard="')[1].split('"')[0]
                        up[shard] = float(value)
                assert set(admitted) == {"0", "1"}
                assert sum(admitted.values()) == 4.0
                assert up == {"0": 1.0, "1": 1.0}
            finally:
                await fleet.stop()

        run(body())


    def test_router_reads_are_not_shard_requests(self):
        async def body():
            fleet = await _start_fleet()
            try:
                for request in make_bodies(5, 2):
                    status, _ = await http_json(
                        fleet.host, fleet.port, "POST", "/solve", request
                    )
                    assert status == 200

                def requests_seen():
                    return [
                        (
                            svc.telemetry.registry.get(
                                "repro_http_requests_total"
                            ).series(),
                            {
                                name: value
                                for name, value in svc.counters().items()
                                if name.startswith("service.http.")
                            },
                        )
                        for svc in fleet.services
                    ]

                before = requests_seen()
                for path in ("/metrics", "/metrics?format=json", "/healthz"):
                    status, _, _ = await http_exchange(
                        fleet.host, fleet.port, "GET", path
                    )
                    assert status == 200
                return before, requests_seen()
            finally:
                await fleet.stop()

        before, after = run(body())
        assert after == before
        # Each shard did count the client solve routed to it.
        assert all(http["service.http.requests"] == 1 for _, http in before)


class TestGlobalBudget:
    def test_overload_is_refused_with_deterministic_budget_429s(self):
        async def body():
            # Six async n=6 requests at 36 units each against an
            # 80-unit fleet budget: the first two lease 72 units, every
            # later offer would overdraw, and the parked pool keeps the
            # leases held while the refusals happen — fully
            # deterministic, no timing races.
            park_pool(1, 0.5)
            fleet = await _start_fleet(budget_units=80.0)
            budget = fleet.budget
            try:
                unit_cost = estimate_cost(6, "greedy_marginal")
                assert unit_cost == 36.0
                bodies = [
                    dict(request, mode="async")
                    for request in make_bodies(19, 6, n_min=6, n_max=6)
                ]
                admitted, refused = [], []
                for request in bodies:
                    status, payload = await http_json(
                        fleet.host, fleet.port, "POST", "/solve", request
                    )
                    if status == 202:
                        admitted.append(payload["id"])
                    else:
                        assert status == 429, payload
                        assert payload["reason"] == "budget"
                        refused.append(payload["id"])
                assert len(admitted) == 2
                assert len(refused) == 4
                # One request landed per shard before the ledger filled.
                assert {rid[:2] for rid in admitted} == {"s0", "s1"}
                stats = budget.stats()
                assert stats["leased_units"] == 72.0
                assert stats["leased_units"] <= stats["budget_units"]
                assert stats["refusals"] == 4

                # Completion releases every lease back to the fleet.
                for req_id in admitted:
                    for _ in range(400):
                        status, payload = await http_json(
                            fleet.host,
                            fleet.port,
                            "GET",
                            f"/result/{req_id}",
                        )
                        if status == 200:
                            break
                        await asyncio.sleep(0.01)
                    assert status == 200, payload
                assert budget.leased_units == 0.0

                # With the budget free again, the fleet admits anew.
                status, payload = await http_json(
                    fleet.host, fleet.port, "POST", "/solve", bodies[-1]
                )
                assert status == 202, payload
            finally:
                await fleet.stop()

        run(body())

    def test_budget_defaults_to_the_unsharded_total(self):
        fleet = LocalFleet(shards=3, capacity_units=100.0, workers=1)
        assert isinstance(fleet.budget, GlobalBudget)
        assert fleet.budget.budget_units == 300.0

    def test_explicit_budget_units_win_over_derivation(self):
        fleet = LocalFleet(
            shards=3, capacity_units=100.0, budget_units=150.0, workers=1
        )
        assert fleet.budget.budget_units == 150.0


class TestDrain:
    def test_stop_drains_without_dropping_in_flight_requests(self):
        async def body():
            # The parked pool holds the request in flight; the drain
            # must wait it out and deliver the 200.  n=20 (400 units) is
            # above the inline bound, so it goes to the pool.
            park_pool(1, 0.3)
            fleet = await _start_fleet()
            try:
                request = make_bodies(23, 1, n_min=20, n_max=20)[0]
                in_flight = asyncio.create_task(
                    http_json(fleet.host, fleet.port, "POST", "/solve", request)
                )
                await asyncio.sleep(0.05)
                assert not in_flight.done()
            finally:
                await fleet.stop(drain=True)
            status, payload = await in_flight
            assert status == 200, payload
            assert payload["status"] == "done"

            # The drained fleet refuses new work cleanly.
            with pytest.raises(OSError):
                await http_json(
                    fleet.host, fleet.port, "POST", "/solve", request
                )

        run(body())
