"""Both expositions of the request families agree, series by series.

One server is driven through a fixed request mix (200, 400 and 429
``/solve`` answers, a 404, ``/healthz`` and ``/metrics``); then the JSON
``requests`` section of ``/metrics?format=json`` must equal the
Prometheus ``repro_http_requests_total`` and
``repro_request_duration_seconds`` series for every endpoint — on one
shard, and per ``shard`` label through a 2-shard router's relabelled
fleet exposition.
"""

import math
import re

from repro.service import LocalFleet, SolveService
from repro.service.loadgen import http_exchange, http_json, make_bodies

from tests.service.conftest import run
from tests.service.test_telemetry import assert_valid_exposition

_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:\\.|[^"\\])*)"')

#: capacity 50: an n=6 greedy request (36 units) fits, n=8 (64) never.
_SETTINGS = dict(workers=1, rate_units_per_s=1e9, capacity_units=50.0)


def _series(text: str, name: str) -> list[tuple[dict[str, str], float]]:
    """``(labels, value)`` for every sample line named exactly *name*."""
    out = []
    for key, value in assert_valid_exposition(text).items():
        sample, _, labels = key.partition("{")
        if sample == name:
            out.append((dict(_LABEL.findall(labels)), value))
    return out


def _bucket_key(le: str) -> str:
    return "+inf" if le == "+Inf" else f"{float(le):.6g}"


def assert_parity(requests: dict, text: str, **match: str) -> None:
    """JSON ``requests`` == the text request families (*match* filters)."""

    def mine(labels):
        return all(labels.get(k) == v for k, v in match.items())

    statuses: dict[str, dict[str, int]] = {}
    for labels, value in _series(text, "repro_http_requests_total"):
        if mine(labels):
            by_status = statuses.setdefault(labels["endpoint"], {})
            by_status[labels["status"]] = int(value)
    counts = {
        labels["endpoint"]: int(value)
        for labels, value in _series(
            text, "repro_request_duration_seconds_count"
        )
        if mine(labels)
    }
    cumulative: dict[str, list[tuple[str, float]]] = {}
    for labels, value in _series(
        text, "repro_request_duration_seconds_bucket"
    ):
        if mine(labels):
            cumulative.setdefault(labels["endpoint"], []).append(
                (labels["le"], value)
            )

    endpoints = requests["endpoints"]
    assert set(endpoints) == set(statuses) == set(counts)
    assert requests["total_requests"] == sum(
        sum(by_status.values()) for by_status in statuses.values()
    )
    for endpoint, entry in endpoints.items():
        assert entry["statuses"] == statuses[endpoint], endpoint
        latency = entry["latency"]
        assert latency["count"] == counts[endpoint], endpoint
        buckets, seen = {}, 0
        for le, value in cumulative[endpoint]:
            if value > seen:
                buckets[_bucket_key(le)] = int(value - seen)
            seen = value
        assert latency["buckets"] == buckets, endpoint
        assert math.isfinite(latency["p50_ms"])
        assert math.isfinite(latency["p99_ms"])


async def _drive(host: str, port: int) -> None:
    """The fixed mix: 200, 400 and 429 solves, a 404, health, a scrape."""
    ok_body = make_bodies(0, 1, n_min=6, n_max=6)[0]
    big_body = make_bodies(1, 1, n_min=8, n_max=8)[0]
    for request, expected in (
        (ok_body, 200),
        ({"instance": {}}, 400),
        (big_body, 429),
    ):
        status, payload = await http_json(host, port, "POST", "/solve", request)
        assert status == expected, payload
    assert (await http_json(host, port, "GET", "/nope"))[0] == 404
    assert (await http_json(host, port, "GET", "/healthz"))[0] == 200
    assert (await http_exchange(host, port, "GET", "/metrics"))[0] == 200


class TestRequestFamilyParity:
    def test_one_service_json_matches_text(self):
        async def body():
            svc = SolveService(**_SETTINGS)
            host, port = await svc.start()
            try:
                await _drive(host, port)
                # Read back to back on the loop: no request lands between.
                return svc.metrics_dict(), svc.metrics_text()
            finally:
                await svc.stop()

        payload, text = run(body())
        endpoints = payload["requests"]["endpoints"]
        assert set(endpoints) == {"/solve", "/healthz", "/metrics", "/nope"}
        assert endpoints["/solve"]["statuses"] == {
            "200": 1, "400": 1, "429": 1
        }
        assert_parity(payload["requests"], text)

    def test_fleet_exposition_matches_each_shard_json(self):
        async def body():
            fleet = LocalFleet(shards=2, **_SETTINGS)
            await fleet.start()
            try:
                for shard_host, shard_port in fleet.shard_addresses:
                    await _drive(shard_host, shard_port)
                await _drive(fleet.host, fleet.port)
                # The router's scrape records one /metrics request per
                # shard only after that shard's snapshot is built, so
                # JSON read just before the scrape is exactly what the
                # relabelled exposition shows.
                shards = [svc.metrics_dict() for svc in fleet.services]
                status, _, text = await http_exchange(
                    fleet.host, fleet.port, "GET", "/metrics"
                )
                assert status == 200
                return shards, text
            finally:
                await fleet.stop()

        shards, text = run(body())
        for index, payload in enumerate(shards):
            assert_parity(payload["requests"], text, shard=str(index))
