"""End-to-end tests of the solve server over real sockets.

Each test runs an in-process :class:`SolveService` on an ephemeral port
inside ``asyncio.run`` and talks to it with the load generator's own
HTTP client.  ``rate_units_per_s`` is always overridden so startup
skips throughput calibration.
"""

import asyncio
import json

import pytest

from repro.core.rejection.online import ThresholdPolicy
from repro.io import instance_to_dict
from repro.runner.pool import _EXECUTORS, evict_executor
from repro.service import SolveService
from repro.service import worker as worker_mod
from repro.service.loadgen import http_json, make_bodies

from tests.io.test_multiproc_roundtrip import _multiproc_problem
from tests.service.conftest import BIG, park_pool, run

#: Solve outcomes that partition ``service.solve.total``.
PARTS = ("cached", "admitted", "rejected", "invalid", "unavailable")


async def _start(**kwargs) -> tuple[SolveService, str, int]:
    settings = dict(workers=1, rate_units_per_s=1e9, capacity_units=BIG)
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
                # never sent to the pool.
                assert counters["service.solve.inline"] == 2
                assert counters.get("service.batch.dispatched", 0) == 0
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

    def test_rand_reject_answer_ignores_the_code_fingerprint(self, monkeypatch):
        # The stream is seeded from the instance alone: a source edit (a
        # new fingerprint) must not change the served answer.
        import repro.runner.cache as runner_cache

        payload = {
            "instance": instance_to_dict(_multiproc_problem(n=40, m=2)),
            "algorithm": "rand_reject",
        }
        solutions = []
        for fingerprint in ("0" * 64, "1" * 64, "f" * 64):
            monkeypatch.setattr(runner_cache, "_FINGERPRINT", fingerprint)
            reply = worker_mod.solve_payload(payload)
            assert reply["ok"], reply
            solutions.append(reply["solution"])
        assert solutions[0] == solutions[1] == solutions[2]

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


async def _post_all(host, port, bodies) -> list[asyncio.Task]:
    return [
        asyncio.create_task(http_json(host, port, "POST", "/solve", body))
        for body in bodies
    ]


async def _until(predicate, what: str) -> None:
    for _ in range(400):
        if predicate():
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"timed out waiting until {what}")


def _pool_bodies(seed: int, count: int) -> list[dict]:
    """Greedy n=20 bodies: 400 units, above the inline bound."""
    return make_bodies(seed, count, n_min=20, n_max=20)


class TestListenerInheritance:
    def test_stopped_server_refuses_connections_after_the_pool_forked(self):
        async def body():
            # No pool yet: it forks on the first pool-bound request, after
            # the bind, so its workers inherit the listening socket.
            evict_executor(1)
            svc, host, port = await _start()
            try:
                status, payload = await http_json(
                    host, port, "POST", "/solve", _pool_bodies(5, 1)[0]
                )
                assert status == 200, payload
                assert 1 in _EXECUTORS
            finally:
                await svc.stop()
            with pytest.raises(ConnectionRefusedError):
                await asyncio.open_connection(host, port)

        run(body())

    def test_open_client_sees_eof_after_the_pool_forked_under_it(self):
        async def body():
            # The pool forks while this keep-alive connection is open, so
            # its workers inherit the client's socket as well.
            evict_executor(1)
            svc, host, port = await _start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                status, payload = await http_json(
                    host, port, "POST", "/solve", _pool_bodies(6, 1)[0],
                    reader=reader, writer=writer,
                )
                assert status == 200, payload
                assert 1 in _EXECUTORS
            finally:
                await svc.stop()
            try:
                assert await asyncio.wait_for(reader.read(), 5) == b""
            finally:
                writer.close()

        run(body())


class TestGracefulDrain:
    def test_stop_drains_inflight_request(self):
        async def body():
            # The parked pool holds the dispatched request in flight;
            # stop(drain=True) must wait for it and answer 200.
            park_pool(1, 0.3)
            svc, host, port = await _start()
            try:
                (client,) = await _post_all(host, port, _pool_bodies(0, 1))
                # A free slot: the request is dispatched at once.
                await _until(
                    lambda: svc._controller.inflight_units > 0
                    and not svc._queued,
                    "the request is dispatched",
                )
            finally:
                await svc.stop(drain=True)
            status, payload = await client
            assert status == 200
            assert payload["status"] == "done"

        run(body())

    def test_drain_answers_queued_and_running_with_200(self):
        async def body():
            # One worker has two dispatch slots: of four pool-bound
            # requests two run (behind the parked sleep), two queue.
            park_pool(1, 0.3)
            svc, host, port = await _start()
            try:
                clients = await _post_all(host, port, _pool_bodies(1, 4))
                await _until(lambda: len(svc._queued) == 2, "two queue")
            finally:
                await svc.stop(drain=True)
            replies = [await client for client in clients]
            assert [status for status, _ in replies] == [200] * 4
            assert svc._controller.inflight_units == 0.0

        run(body())

    def test_no_drain_503s_queued_and_finishes_running(self):
        async def body():
            park_pool(1, 0.3)
            svc, host, port = await _start()
            try:
                clients = await _post_all(host, port, _pool_bodies(2, 4))
                await _until(lambda: len(svc._queued) == 2, "two queue")
                queued = set(svc._queued)
            finally:
                await svc.stop(drain=False)
            replies = [await client for client in clients]
            statuses = {
                payload.get("id"): status for status, payload in replies
            }
            assert sorted(statuses.values()) == [200, 200, 503, 503]
            for status, payload in replies:
                if status == 503:
                    assert payload["error"] == "shutting down"
            assert {
                req_id for req_id, status in statuses.items() if status == 200
            }.isdisjoint(queued)
            counters = svc._registry.snapshot()
            assert counters["service.batch.requests"] == 2

        run(body())

    def test_no_drain_503s_queued_async_tickets(self):
        async def body():
            # Async requests hold tickets, not sockets: the two still
            # queued at stop(drain=False) must have their tickets
            # answered 503 and never reach the pool.
            park_pool(1, 0.3)
            svc, host, port = await _start()
            ids = []
            try:
                for request in _pool_bodies(6, 4):
                    request = dict(request, mode="async")
                    status, payload = await http_json(
                        host, port, "POST", "/solve", request
                    )
                    assert status == 202, payload
                    ids.append(payload["id"])
                await _until(lambda: len(svc._queued) == 2, "two queue")
                queued = set(svc._queued)
            finally:
                await svc.stop(drain=False)
            replies = {req_id: svc._result(req_id) for req_id in ids}
            return svc, queued, replies

        svc, queued, replies = run(body())
        for req_id, (status, payload) in replies.items():
            if req_id in queued:
                assert status == 503
                assert payload["error"] == "shutting down"
            else:
                assert status == 200
        assert len(queued) == 2
        assert svc._registry.snapshot()["service.batch.requests"] == 2

    def test_solve_after_stop_begins_answers_503(self):
        async def body():
            # A parked in-flight request keeps stop(drain=True) pending;
            # a solve that arrives meanwhile is refused, not queued.
            park_pool(1, 0.3)
            svc, host, port = await _start()
            first, late = _pool_bodies(7, 2)
            (client,) = await _post_all(host, port, [first])
            await _until(
                lambda: svc._controller.inflight_units > 0,
                "the first request is dispatched",
            )
            stopper = asyncio.create_task(svc.stop(drain=True))
            await asyncio.sleep(0)
            assert not stopper.done()
            late_body = json.dumps(late).encode()
            status, payload = await svc._solve(late_body, "late")
            await stopper
            return svc, (status, payload), await client

        svc, (status, payload), (first_status, _) = run(body())
        assert status == 503
        assert payload["error"] == "draining"
        assert first_status == 200
        counters = svc._registry.snapshot()
        assert counters["service.solve.unavailable"] == 1
        assert counters["service.solve.admitted"] == 1
        assert "late" not in svc._queued

    @pytest.mark.parametrize("drain", [True, False])
    def test_concurrent_stop_answers_every_request_once(self, drain):
        async def body():
            park_pool(1, 0.1)
            svc, host, port = await _start()
            futures = []

            class Recording(dict):
                def __setitem__(self, key, future):
                    futures.append(future)
                    super().__setitem__(key, future)

            svc._queued = Recording()

            async def client(index, request):
                # Staggered: some land before the stop, some during it.
                await asyncio.sleep(0.004 * index)
                try:
                    reply = await http_json(
                        host, port, "POST", "/solve", request
                    )
                except OSError:
                    return None  # arrived after the listener closed
                return reply[0]

            async def stopper():
                await asyncio.sleep(0.02)
                await svc.stop(drain=drain)

            results = await asyncio.gather(
                *(client(i, r) for i, r in enumerate(_pool_bodies(4, 12))),
                stopper(),
            )
            return svc, results[:-1], futures

        svc, statuses, futures = run(body())
        assert futures, "no request was admitted before the stop"
        assert {s for s in statuses if s is not None} <= {200, 503}
        settled = []
        for future in futures:
            assert future.done()
            assert future.exception() is None
            settled.append(future.result()[0])
        counters = svc._registry.snapshot()
        # Every admitted request took exactly one way out: dispatched
        # to the pool (and answered 200), or answered 503 while queued.
        assert len(futures) == counters["service.solve.admitted"]
        assert settled.count(200) == counters["service.batch.requests"]
        assert settled.count(200) + settled.count(503) == len(futures)
        if drain:
            assert settled == [200] * len(futures)
            assert svc._controller.inflight_units == 0.0
        total = counters["service.solve.total"]
        parts = sum(counters.get(f"service.solve.{p}", 0) for p in PARTS)
        assert total == parts

    def test_stop_is_idempotent(self):
        async def body():
            svc, host, port = await _start()
            await svc.stop()
            await svc.stop()

        run(body())

    def test_stop_leaves_no_connection_handler_pending(self):
        async def body():
            svc, host, port = await _start()
            # One idle keep-alive connection, one the client closed.
            idle = await asyncio.open_connection(host, port)
            _, gone = await asyncio.open_connection(host, port)
            gone.close()
            await http_json(host, port, "GET", "/healthz")
            await svc.stop()
            pending = [
                task
                for task in asyncio.all_tasks()
                if task.get_coro().__qualname__ == "SolveService._handle_conn"
            ]
            idle[1].close()
            return pending

        assert run(body()) == []

    def test_stop_before_start_returns(self):
        # Nothing can be queued before start(): stop has nothing to
        # settle and must return at once.
        svc = SolveService(workers=1, rate_units_per_s=1e9)
        run(svc.stop(drain=True))
        assert not svc._queued and not svc._dispatches


class TestPoolDispatch:
    def test_pool_exception_answers_500(self, monkeypatch):
        # A local function cannot be pickled: the pool round-trip raises
        # in the parent, which must still release the lease and answer.
        def unshippable(payload):  # pragma: no cover - never runs
            raise AssertionError("must not run")

        monkeypatch.setattr(worker_mod, "solve_payload", unshippable)

        async def body():
            svc, host, port = await _start()
            try:
                status, payload = await http_json(
                    host, port, "POST", "/solve", _pool_bodies(3, 1)[0]
                )
                assert status == 500, payload
                assert payload["status"] == "error"
                assert svc._controller.inflight_units == 0.0
                counters = svc._registry.snapshot()
                assert counters["service.batch.requests"] == 1
                assert counters["service.solve.failed"] == 1
            finally:
                await svc.stop()

        run(body())

    def test_queued_low_density_request_is_shed_for_a_denser_one(self):
        async def body():
            # 1300 units of capacity hold three 400-unit requests.  A
            # and B take both dispatch slots of the parked pool, C waits
            # queued; D (weight 5) does not fit, so admission sheds C
            # (density 1) to make room.
            park_pool(1, 0.3)
            svc, host, port = await _start(capacity_units=1300.0)
            a, b, c, d = _pool_bodies(5, 4)
            try:
                for request in (a, b):
                    request = dict(request, mode="async")
                    status, _ = await http_json(
                        host, port, "POST", "/solve", request
                    )
                    assert status == 202
                (queued,) = await _post_all(host, port, [c])
                await _until(lambda: len(svc._queued) == 1, "C queues")
                status, payload = await http_json(
                    host, port, "POST", "/solve", dict(d, weight=5.0)
                )
                assert status == 200, payload
                status, payload = await queued
                assert status == 429, payload
                assert payload["reason"] == "shed"
                counters = svc._registry.snapshot()
                assert counters["service.admission.shed"] == 1
                assert counters["service.solve.admitted"] == 4
                assert counters["service.batch.requests"] == 3
            finally:
                await svc.stop()

        run(body())

    def test_every_queued_request_shed_dispatches_none(self):
        async def body():
            # A and B run behind the parked pool, C1 and C2 queue.  D
            # (576 units, weight 5) fits only once both queued requests
            # go, so admission sheds both and neither is dispatched.
            park_pool(1, 0.3)
            svc, host, port = await _start(capacity_units=1700.0)
            a, b, c1, c2 = _pool_bodies(8, 4)
            (d,) = make_bodies(8, 1, n_min=24, n_max=24)
            try:
                for request in (a, b):
                    request = dict(request, mode="async")
                    status, _ = await http_json(
                        host, port, "POST", "/solve", request
                    )
                    assert status == 202
                queued = await _post_all(host, port, [c1, c2])
                await _until(lambda: len(svc._queued) == 2, "C1 and C2 queue")
                status, payload = await http_json(
                    host, port, "POST", "/solve", dict(d, weight=5.0)
                )
                assert status == 200, payload
                for client in queued:
                    status, payload = await client
                    assert status == 429, payload
                    assert payload["reason"] == "shed"
                counters = svc._registry.snapshot()
                assert counters["service.admission.shed"] == 2
                assert counters["service.solve.admitted"] == 5
                assert counters["service.batch.requests"] == 3
                assert counters["service.batch.dispatched"] == 3
            finally:
                await svc.stop()

        run(body())
