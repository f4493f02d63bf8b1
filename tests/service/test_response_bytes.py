"""The bytes of every solved ``/solve`` answer, on each path that sends one.

A solved body is spliced around the solution's stored JSON text, not
encoded from a dict.  Each test reads a raw response off the wire and
compares it with ``json.dumps(payload, sort_keys=True) + "\\n"`` of the
payload dict, built here from an in-process solve of the same body:
the encoding every answer had before the splice.
"""

import asyncio
import json

from repro.core import rejection
from repro.io import instance_from_dict, solution_to_dict
from repro.service import LocalFleet, SolveService
from repro.service.http import read_response, send_request
from repro.service.loadgen import make_bodies

from tests.service.conftest import BIG, run


async def _raw(host: str, port: int, method: str, path: str, body=None):
    """One exchange on a fresh connection: ``(status, headers, raw)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await send_request(
            writer,
            method,
            path,
            b"" if body is None else json.dumps(body).encode(),
            host=f"{host}:{port}",
            keep_alive=False,
        )
        return await read_response(reader)
    finally:
        writer.close()


def _expected(req_id: str, cache: str, body: dict) -> bytes:
    """The dict-encoded answer to *body*, solved in this process."""
    solver = getattr(rejection, body["algorithm"])
    solution = solution_to_dict(solver(instance_from_dict(body["instance"])))
    payload = {
        "status": "done",
        "id": req_id,
        "cache": cache,
        "solution": solution,
    }
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def _check(reply, cache: str, body: dict) -> None:
    status, headers, raw = reply
    assert status == 200, raw
    assert headers["content-type"] == "application/json"
    assert raw == _expected(headers["x-repro-request-id"], cache, body)


async def _start(**kwargs) -> SolveService:
    settings = dict(workers=1, rate_units_per_s=1e9, capacity_units=BIG)
    settings.update(kwargs)
    svc = SolveService(**settings)
    await svc.start()
    return svc


class TestOneServer:
    def test_miss_then_hit(self):
        request = make_bodies(5, 1)[0]

        async def body():
            svc = await _start()
            try:
                return [
                    await _raw(svc.host, svc.port, "POST", "/solve", request)
                    for _ in range(2)
                ]
            finally:
                await svc.stop()

        miss, hit = run(body())
        _check(miss, "miss", request)
        _check(hit, "hit", request)

    def test_async_result(self):
        # An async request is solved on the pool and answered by a
        # later GET /result/<id>.
        request = dict(make_bodies(6, 1)[0], mode="async")

        async def body():
            svc = await _start()
            try:
                status, _, raw = await _raw(
                    svc.host, svc.port, "POST", "/solve", request
                )
                assert status == 202, raw
                req_id = json.loads(raw)["id"]
                for _ in range(500):
                    reply = await _raw(
                        svc.host, svc.port, "GET", f"/result/{req_id}"
                    )
                    if reply[0] != 202:
                        return req_id, reply
                    await asyncio.sleep(0.01)
                raise AssertionError("the async solve never finished")
            finally:
                await svc.stop()

        req_id, (status, _, raw) = run(body())
        assert status == 200, raw
        assert raw == _expected(req_id, "miss", request)


class TestFleet:
    def test_disk_hit_and_its_promoted_repeat(self, tmp_path):
        request = make_bodies(8, 1)[0]

        async def body():
            fleet = LocalFleet(
                shards=2,
                workers=1,
                rate_units_per_s=1e9,
                capacity_units=BIG,
                cache_dir=tmp_path / "cache",
            )
            await fleet.start()
            try:
                (a_host, a_port), (b_host, b_port) = fleet.shard_addresses
                solved = await _raw(a_host, a_port, "POST", "/solve", request)
                disk = await _raw(b_host, b_port, "POST", "/solve", request)
                memory = await _raw(b_host, b_port, "POST", "/solve", request)
                cache = fleet.services[1]._cache
                return solved, disk, memory, (cache.disk_hits, cache.hits)
            finally:
                await fleet.stop()

        solved, disk, memory, tiers = run(body())
        assert tiers == (1, 1)
        _check(solved, "miss", request)
        _check(disk, "hit", request)
        _check(memory, "hit", request)

    def test_hit_through_the_router(self):
        # Round robin: shard 0 and shard 1 each solve the body, then
        # shard 0 answers the third copy from memory.
        request = make_bodies(9, 1)[0]

        async def body():
            fleet = LocalFleet(
                shards=2, workers=1, rate_units_per_s=1e9, capacity_units=BIG
            )
            await fleet.start()
            try:
                address = fleet.host, fleet.port
                return [
                    await _raw(*address, "POST", "/solve", request)
                    for _ in range(3)
                ]
            finally:
                await fleet.stop()

        first, second, third = run(body())
        _check(first, "miss", request)
        _check(second, "miss", request)
        _check(third, "hit", request)
        assert third[1]["x-repro-request-id"].startswith("s0-")


async def _wire(host: str, port: int, method: str, path: str, body=None):
    """The whole response to one request on a fresh connection, as sent."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await send_request(
            writer,
            method,
            path,
            b"" if body is None else json.dumps(body).encode(),
            host=f"{host}:{port}",
            keep_alive=False,
        )
        return await reader.read()
    finally:
        writer.close()


class TestRouterPassThrough:
    """The router's answer is the shard front's, status line to body.

    Two identical one-shard fleets get the same requests in the same
    order, one through its router and one at its shard's own listener,
    so each answer carries the same request id on both.
    """

    @staticmethod
    def _compare(exchange, **fleet_kwargs) -> list[bytes]:
        async def body():
            fleets = [
                LocalFleet(
                    shards=1,
                    workers=1,
                    rate_units_per_s=1e9,
                    capacity_units=BIG,
                    **fleet_kwargs,
                )
                for _ in range(2)
            ]
            for fleet in fleets:
                await fleet.start()
            try:
                routed = await exchange(fleets[0].host, fleets[0].port)
                direct = await exchange(*fleets[1].shard_addresses[0])
                return routed, direct
            finally:
                for fleet in fleets:
                    await fleet.stop()

        routed, direct = run(body())
        assert routed == direct
        return routed

    def test_bad_body_400(self):
        async def exchange(host, port):
            return [await _wire(host, port, "POST", "/solve", {"nope": 1})]

        (reply,) = self._compare(exchange)
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"X-Repro-Request-Id: s0-r00000001\r\n" in reply

    def test_budget_refusal_429(self):
        # A 36-unit request against a 10-unit fleet budget.
        request = make_bodies(5, 1, n_min=6, n_max=6)[0]

        async def exchange(host, port):
            return [await _wire(host, port, "POST", "/solve", request)]

        (reply,) = self._compare(exchange, budget_units=10.0)
        assert reply.startswith(b"HTTP/1.1 429 Too Many Requests\r\n")
        assert b'"reason": "budget"' in reply

    def test_async_202_then_result(self):
        request = dict(make_bodies(6, 1)[0], mode="async")

        async def exchange(host, port):
            accepted = await _wire(host, port, "POST", "/solve", request)
            req_id = json.loads(accepted.partition(b"\r\n\r\n")[2])["id"]
            for _ in range(500):
                result = await _wire(host, port, "GET", f"/result/{req_id}")
                if not result.startswith(b"HTTP/1.1 202"):
                    return [accepted, result]
                await asyncio.sleep(0.01)
            raise AssertionError("the async solve never finished")

        accepted, result = self._compare(exchange)
        assert accepted.startswith(b"HTTP/1.1 202 Accepted\r\n")
        assert result.startswith(b"HTTP/1.1 200 OK\r\n")
        assert result.endswith(_expected("s0-r00000001", "miss", request))

    def test_unknown_id_404(self):
        async def exchange(host, port):
            return [
                await _wire(host, port, "GET", path)
                for path in ("/result/s0-r99999999", "/result/nope")
            ]

        for reply in self._compare(exchange):
            assert reply.startswith(b"HTTP/1.1 404 Not Found\r\n")
