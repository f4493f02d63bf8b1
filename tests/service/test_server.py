"""End-to-end tests of the solve server over real sockets.

Each test runs an in-process :class:`SolveService` on an ephemeral port
inside ``asyncio.run`` and talks to it with the load generator's own
HTTP client.  ``rate_units_per_s`` is always overridden so startup
skips throughput calibration.
"""

import asyncio

import pytest

from repro.core.rejection.online import ThresholdPolicy
from repro.io import instance_to_dict
from repro.service import SolveService
from repro.service.loadgen import http_json, make_bodies

from tests.io.test_multiproc_roundtrip import _multiproc_problem
from tests.service.conftest import BIG, run


async def _start(**kwargs) -> tuple[SolveService, str, int]:
    settings = dict(
        workers=1, rate_units_per_s=1e9, capacity_units=BIG, max_wait_s=0.005
    )
    settings.update(kwargs)
    svc = SolveService(**settings)
    host, port = await svc.start()
    return svc, host, port


class TestSolvePath:
    def test_end_to_end_cache_and_metrics(self):
        async def body():
            svc, host, port = await _start()
            try:
                bodies = make_bodies(0, 3)

                status, health = await http_json(host, port, "GET", "/healthz")
                assert status == 200
                assert health["status"] == "ok"
                assert health["utilisation"] == 0.0

                # First solve computes ...
                status, first = await http_json(
                    host, port, "POST", "/solve", bodies[0]
                )
                assert status == 200, first
                assert first["cache"] == "miss"
                solution = first["solution"]
                assert solution["algorithm"] == "greedy_marginal"
                assert solution["cost"] == pytest.approx(
                    solution["energy"] + solution["penalty"]
                )

                # ... the identical resubmission is served from cache.
                status, again = await http_json(
                    host, port, "POST", "/solve", bodies[0]
                )
                assert status == 200
                assert again["cache"] == "hit"
                assert again["solution"] == solution

                # A different instance misses.
                status, other = await http_json(
                    host, port, "POST", "/solve", bodies[1]
                )
                assert status == 200
                assert other["cache"] == "miss"

                # Malformed body: 400 before any admission decision.
                status, _ = await http_json(
                    host, port, "POST", "/solve", {"instance": {}}
                )
                assert status == 400

                # While draining, new solves are turned away with 503.
                svc._draining = True
                status, _ = await http_json(
                    host, port, "POST", "/solve", bodies[2]
                )
                assert status == 503
                svc._draining = False

                status, metrics = await http_json(
                    host, port, "GET", "/metrics?format=json"
                )
                assert status == 200
                counters = metrics["counters"]
                # The admission bookkeeping must account for every /solve.
                outcomes = sum(
                    counters.get(f"service.solve.{key}", 0)
                    for key in (
                        "cached",
                        "admitted",
                        "rejected",
                        "invalid",
                        "unavailable",
                    )
                )
                assert counters["service.solve.total"] == outcomes == 5
                assert metrics["cache"]["hits"] == 1
                assert metrics["cache"]["misses"] == 3  # miss, miss, 503-path
                assert metrics["requests"]["endpoints"]["/solve"][
                    "statuses"
                ] == {"200": 3, "400": 1, "503": 1}
                assert metrics["service"]["policy"] == "accept_if_feasible"
                # Both misses are cheap greedy solves: solved inline,
                # never batched.
                assert counters["service.solve.inline"] == 2
                assert metrics["batch"]["dispatched"] == 0
                # The in-flight /metrics request is counted after its
                # payload is built, so it sees the six before it.
                assert counters["service.http.requests"] == 6
            finally:
                await svc.stop()

        run(body())

    def test_async_mode_ticket_and_poll(self):
        async def body():
            svc, host, port = await _start()
            try:
                request = dict(make_bodies(1, 1)[0], mode="async")
                status, accepted = await http_json(
                    host, port, "POST", "/solve", request
                )
                assert status == 202
                assert accepted["status"] == "accepted"
                req_id = accepted["id"]

                for _ in range(500):
                    status, result = await http_json(
                        host, port, "GET", f"/result/{req_id}"
                    )
                    if status != 202:
                        break
                    await asyncio.sleep(0.01)
                assert status == 200
                assert result["status"] == "done"
                assert result["solution"]["algorithm"] == "greedy_marginal"

                status, _ = await http_json(
                    host, port, "GET", "/result/nope"
                )
                assert status == 404
            finally:
                await svc.stop()

        run(body())

    def test_multiproc_instance_over_the_wire(self):
        async def body():
            svc, host, port = await _start()
            try:
                request = {
                    "instance": instance_to_dict(_multiproc_problem(m=2)),
                    "algorithm": "ltf_reject",
                }
                status, payload = await http_json(
                    host, port, "POST", "/solve", request
                )
                assert status == 200, payload
                solution = payload["solution"]
                assert solution["algorithm"] == "ltf_reject"
                assert solution["processors"] == 2
                assert len(solution["assignment"]) == 2
            finally:
                await svc.stop()

        run(body())

    def test_worker_rejects_bad_instance_payload_with_400(self):
        async def body():
            svc, host, port = await _start()
            try:
                request = {
                    "instance": {
                        "schema_version": 1,
                        "tasks": [
                            {"name": "t0", "cycles": 0.5, "penalty": 1.0}
                        ],
                        "energy_fn": {
                            "kind": "warp",
                            "deadline": 1.0,
                            "power_model": {
                                "kind": "polynomial",
                                "beta0": 0.0,
                                "beta1": 1.52,
                                "alpha": 3.0,
                                "s_max": 1.0,
                            },
                        },
                    },
                    "algorithm": "greedy_marginal",
                }
                status, payload = await http_json(
                    host, port, "POST", "/solve", request
                )
                assert status == 400
                assert "warp" in payload["error"]
            finally:
                await svc.stop()

        run(body())


class TestRejection:
    def test_oversized_request_gets_429_capacity(self):
        async def body():
            # n=8 greedy_marginal is 64 units; 50 units of capacity can
            # never hold it, so the 429 is deterministic.
            svc, host, port = await _start(capacity_units=50.0)
            try:
                status, payload = await http_json(
                    host, port, "POST", "/solve", make_bodies(0, 1, n_min=8, n_max=8)[0]
                )
                assert status == 429
                assert payload["status"] == "rejected"
                assert payload["reason"] == "capacity"
            finally:
                await svc.stop()

        run(body())

    def test_impossible_deadline_gets_429(self):
        async def body():
            svc, host, port = await _start(rate_units_per_s=1.0)
            try:
                request = dict(
                    make_bodies(0, 1, n_min=8, n_max=8)[0], deadline_s=1.0
                )
                status, payload = await http_json(
                    host, port, "POST", "/solve", request
                )
                assert status == 429
                assert payload["reason"] == "deadline"
            finally:
                await svc.stop()

        run(body())

    def test_threshold_policy_sheds_under_overload(self):
        async def body():
            # theta=0.5 with reserve pricing rejects default-weight
            # requests even on an idle pool (the anchored marginal is
            # ~1.14x the penalty), so every request draws a clean 429 —
            # never a timeout or 5xx.
            svc, host, port = await _start(
                policy=ThresholdPolicy(0.5, reserve=True)
            )
            try:
                statuses = []
                for request in make_bodies(0, 6):
                    request["weight"] = 1.0
                    status, payload = await http_json(
                        host, port, "POST", "/solve", request
                    )
                    statuses.append(status)
                    assert payload["reason"] == "policy"
                assert statuses == [429] * 6

                status, metrics = await http_json(
                    host, port, "GET", "/metrics?format=json"
                )
                counters = metrics["counters"]
                assert counters["service.solve.total"] == 6
                assert counters["service.solve.rejected"] == 6
                assert counters["service.admission.rejected_policy"] == 6
                assert metrics["service"]["policy"] == "threshold(0.5r)"
            finally:
                await svc.stop()

        run(body())


class TestHttpLayer:
    def test_unknown_route_404_and_wrong_methods_405(self):
        async def body():
            svc, host, port = await _start()
            try:
                assert (await http_json(host, port, "GET", "/nope"))[0] == 404
                assert (
                    await http_json(host, port, "POST", "/healthz", {})
                )[0] == 405
                assert (
                    await http_json(host, port, "POST", "/metrics", {})
                )[0] == 405
                assert (await http_json(host, port, "GET", "/solve"))[0] == 405
            finally:
                await svc.stop()

        run(body())

    def test_malformed_http_answered_400(self):
        async def body():
            svc, host, port = await _start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"NONSENSE\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                assert b"400" in status_line
                writer.close()
            finally:
                await svc.stop()

        run(body())


class TestGracefulDrain:
    def test_stop_drains_inflight_request(self):
        async def body():
            # A huge assembly window parks the request in the batcher;
            # stop(drain=True) must still flush and answer it with 200.
            # n=20 (400 units) is above the inline bound, so the request
            # takes the pool route.
            svc, host, port = await _start(max_wait_s=5.0)
            try:
                request = make_bodies(0, 1, n_min=20, n_max=20)[0]
                client = asyncio.create_task(
                    http_json(host, port, "POST", "/solve", request)
                )
                for _ in range(200):
                    if svc._queued:
                        break
                    await asyncio.sleep(0.005)
                assert svc._queued, "request never reached the batcher"
            finally:
                await svc.stop(drain=True)
            status, payload = await client
            assert status == 200
            assert payload["status"] == "done"

        run(body())

    def test_stop_is_idempotent(self):
        async def body():
            svc, host, port = await _start()
            await svc.stop()
            await svc.stop()

        run(body())
