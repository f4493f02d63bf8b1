"""Runtime telemetry end to end: request ids, exposition, SLOs.

The tentpole contract: one request id, minted at ingest, must be
recoverable from (a) the ``X-Repro-Request-Id`` response header,
(b) the structured access log, (c) the span tree — including the
worker-side solve span shipped back across the process pool — and
(d) the ``repro_last_request`` metric labels, in both expositions.
"""

import math
import re

import pytest

from repro.obs import trace
from repro.obs.runtime import SloObjective
from repro.service import SolveService
from repro.service.loadgen import http_exchange, http_json, make_bodies
from repro.service.telemetry import RuntimeTelemetry

from tests.service.conftest import BIG, run

_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(\\.|[^\"\\])*\""  # first label
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(\\.|[^\"\\])*\")*\})?"  # more labels
    r" (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$"
)


def assert_valid_exposition(text: str) -> dict[str, float]:
    """Validate Prometheus text format 0.0.4; returns {sample_line: value}."""
    assert text.endswith("\n")
    samples: dict[str, float] = {}
    families: list[str] = []
    current: str | None = None
    for line in text.splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            name = line.split()[2]
            if line.startswith("# TYPE "):
                families.append(name)
                current = name
            continue
        assert _SAMPLE_LINE.match(line), f"unparseable sample line: {line!r}"
        name = line.split("{")[0].split(" ")[0]
        assert current is not None and name.startswith(current), (
            f"sample {name} outside its family block ({current})"
        )
        key = line.rsplit(" ", 1)[0]
        assert key not in samples, f"duplicate sample: {key}"
        value = line.rsplit(" ", 1)[1]
        samples[key] = float("inf") if value == "+Inf" else float(value)
    assert families == sorted(families), "families must be sorted by name"
    assert len(families) == len(set(families)), "duplicate family"
    return samples


async def _start(**kwargs):
    settings = dict(workers=1, rate_units_per_s=1e9, capacity_units=BIG)
    settings.update(kwargs)
    svc = SolveService(**settings)
    host, port = await svc.start()
    return svc, host, port


class TestRequestIdEndToEnd:
    def test_id_in_header_log_spans_and_metrics(self):
        spans = trace.MemorySink()
        access = trace.MemorySink()

        async def body():
            # capacity 50: n=6 greedy (36 units) fits, n=8 (64) never does.
            svc, host, port = await _start(
                capacity_units=50.0, access_log=access
            )
            try:
                ok_body, big_body = (
                    make_bodies(0, 1, n_min=6, n_max=6)[0],
                    make_bodies(1, 1, n_min=8, n_max=8)[0],
                )
                status, headers, accepted = await http_exchange(
                    host, port, "POST", "/solve", ok_body
                )
                assert status == 200
                ok_id = headers["x-repro-request-id"]
                assert accepted["id"] == ok_id  # header echoes the payload id

                status, headers, rejected = await http_exchange(
                    host, port, "POST", "/solve", big_body
                )
                assert status == 429
                rej_id = headers["x-repro-request-id"]
                assert rej_id != ok_id
                assert rejected["reason"]  # the admission verdict rides along

                # GET endpoints carry no request id (nothing to trace).
                status, headers, _ = await http_exchange(
                    host, port, "GET", "/healthz"
                )
                assert status == 200
                assert "x-repro-request-id" not in headers

                text = (await http_exchange(host, port, "GET", "/metrics"))[2]
                snapshot = (
                    await http_json(host, port, "GET", "/metrics?format=json")
                )[1]
                return ok_id, rej_id, text, snapshot
            finally:
                await svc.stop()

        with trace.tracing(spans):
            ok_id, rej_id, text, snapshot = run(body())

        # (b) the structured access log carries both ids with verdicts.
        by_id = {
            r.get("req_id"): r for r in access.records if r.get("req_id")
        }
        assert by_id[ok_id]["status"] == 200
        assert by_id[rej_id]["status"] == 429
        assert by_id[rej_id]["reason"]
        for record in (by_id[ok_id], by_id[rej_id]):
            assert record["kind"] == "access"
            assert record["endpoint"] == "/solve"
            assert record["method"] == "POST"
            assert record["ms"] >= 0.0

        # (c) the span tree: ingest spans for both ids, and the
        # worker-side solve span shipped back for the accepted one.
        spans_by_name: dict[str, list] = {}
        for record in spans.records:
            spans_by_name.setdefault(record["name"], []).append(record)
        request_ids = {
            r["attrs"].get("req_id")
            for r in spans_by_name["service.request"]
        }
        assert {ok_id, rej_id} <= request_ids
        admission_ids = {
            r["attrs"].get("req_id")
            for r in spans_by_name["service.admission"]
        }
        assert {ok_id, rej_id} <= admission_ids
        worker_ids = {
            r["attrs"].get("req_id")
            for r in spans_by_name["service.solve.worker"]
        }
        assert ok_id in worker_ids  # reached a solver (here: inline)
        assert rej_id not in worker_ids  # rejected: never reached a worker

        # (d) metric labels, in both expositions.
        samples = assert_valid_exposition(text)
        assert any(
            f'req_id="{ok_id}"' in key and 'status="200"' in key
            for key in samples
            if key.startswith("repro_last_request")
        )
        assert any(
            f'req_id="{rej_id}"' in key and 'status="429"' in key
            for key in samples
            if key.startswith("repro_last_request")
        )
        last = {
            (row["endpoint"], row["status"]): row["req_id"]
            for row in snapshot["runtime"]["last_request"]
        }
        assert last[("/solve", "200")] == ok_id
        assert last[("/solve", "429")] == rej_id


class TestPrometheusExposition:
    def test_text_exposition_is_valid_and_invariant_holds(self):
        async def body():
            svc, host, port = await _start()
            try:
                for request in make_bodies(0, 2):
                    await http_json(host, port, "POST", "/solve", request)
                # same body again: a cache hit
                await http_json(
                    host, port, "POST", "/solve", make_bodies(0, 1)[0]
                )
                # an invalid body
                await http_json(
                    host, port, "POST", "/solve", {"instance": {}}
                )
                text = (await http_exchange(host, port, "GET", "/metrics"))[2]
                headers = (
                    await http_exchange(host, port, "GET", "/metrics")
                )[1]
                return text, headers
            finally:
                await svc.stop()

        text, headers = run(body())
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        samples = assert_valid_exposition(text)

        # The paper-pinned invariant, restated over exposition labels:
        # the outcome labels partition service.solve.total exactly.
        outcomes = {
            key: value
            for key, value in samples.items()
            if key.startswith("repro_solve_requests_total{")
        }
        total = samples[
            'repro_obs_counter{name="service.solve.total"}'
        ]
        assert sum(outcomes.values()) == total == 4
        assert (
            samples['repro_solve_requests_total{outcome="admitted"}'] == 2
        )
        assert samples['repro_solve_requests_total{outcome="cached"}'] == 1
        assert samples['repro_solve_requests_total{outcome="invalid"}'] == 1

        # HTTP families: per-endpoint statuses and a histogram with
        # cumulative buckets summing to the request count.
        assert (
            samples[
                'repro_http_requests_total{endpoint="/solve",status="200"}'
            ]
            == 3
        )
        solve_buckets = [
            value
            for key, value in samples.items()
            if key.startswith("repro_request_duration_seconds_bucket")
            and 'endpoint="/solve"' in key
        ]
        assert solve_buckets == sorted(solve_buckets)  # cumulative
        assert solve_buckets[-1] == samples[
            'repro_request_duration_seconds_count{endpoint="/solve"}'
        ]
        assert (
            samples['repro_request_duration_seconds_sum{endpoint="/solve"}']
            > 0.0
        )

        # Admission, cache, info, SLO gauges are all present.
        for needle in (
            'repro_admission_decisions_total{decision="admitted"}',
            'repro_cache_lookups_total{outcome="hit"}',
            "repro_uptime_seconds",
            'repro_slo_attainment_ratio{objective="latency_p99"}',
            'repro_slo_burn_rate{objective="availability"}',
        ):
            assert needle in samples, needle
        assert samples["repro_completed_work_units_total"] > 0.0

    def test_post_metrics_is_rejected(self):
        async def body():
            svc, host, port = await _start()
            try:
                status, _ = await http_json(host, port, "POST", "/metrics")
                assert status == 405
            finally:
                await svc.stop()

        run(body())


class TestRuntimeSection:
    def test_sampler_fills_the_ring_and_slo_rows(self):
        async def body():
            import asyncio

            svc, host, port = await _start(sample_interval_s=0.02)
            try:
                for request in make_bodies(0, 2):
                    await http_json(host, port, "POST", "/solve", request)
                await asyncio.sleep(0.08)  # a few sampler ticks
                return (
                    await http_json(host, port, "GET", "/metrics?format=json")
                )[1]
            finally:
                await svc.stop()

        snapshot = run(body())
        runtime = snapshot["runtime"]
        assert runtime["sample_interval_s"] == pytest.approx(0.02)
        series = runtime["timeseries"]
        assert len(series) >= 2
        for sample in series:
            assert {"t", "requests", "admitted", "rejected"} <= set(sample)
            assert sample["energy_j"] >= 0.0
        # raw totals never decrease tick over tick
        totals = [s["requests"] for s in series]
        assert totals == sorted(totals)
        by_name = {row["objective"]: row for row in runtime["slo"]}
        assert by_name["latency_p99"]["samples"] >= 2
        assert by_name["latency_p99"]["ok"] is True  # local solves are fast
        assert by_name["availability"]["attainment"] == 1.0
        assert snapshot["admission"]["completed_units"] > 0.0
        assert runtime["energy_proxy_j"] >= 0.0


class TestRuntimeTelemetryUnit:
    def test_slo_classification_of_statuses(self):
        telemetry = RuntimeTelemetry()
        for status, seconds in ((200, 0.01), (429, 0.0), (500, 0.2)):
            telemetry.observe_request(
                endpoint="/solve",
                method="POST",
                status=status,
                seconds=seconds,
            )
        # a non-/solve request never feeds the SLO tracker
        telemetry.observe_request(
            endpoint="/healthz", method="GET", status=200, seconds=0.001
        )
        by_name = {r.objective.name: r for r in telemetry.slo.results()}
        # 429 is excluded (policy, not outage); 500 counts against
        # availability but carries no latency sample.
        assert by_name["availability"].samples == 2
        assert by_name["availability"].good == 1
        assert by_name["latency_p99"].samples == 1
        assert by_name["latency_p99"].good == 1

    def test_last_request_replaces_per_endpoint_status(self):
        telemetry = RuntimeTelemetry()
        for req_id in ("r1", "r2"):
            telemetry.observe_request(
                endpoint="/solve",
                method="POST",
                status=200,
                seconds=0.01,
                req_id=req_id,
            )
        runtime = telemetry.runtime_dict(queue_depth=0, energy_j=0.0)
        rows = [
            row
            for row in runtime["last_request"]
            if (row["endpoint"], row["status"]) == ("/solve", "200")
        ]
        assert len(rows) == 1  # bounded cardinality: replace, not append
        assert rows[0]["req_id"] == "r2"

    def test_custom_slos_flow_through(self):
        strict = SloObjective(
            "lat_strict", "latency", target=0.5, threshold_s=1e-9
        )
        telemetry = RuntimeTelemetry(slos=(strict,))
        telemetry.observe_request(
            endpoint="/solve", method="POST", status=200, seconds=0.5
        )
        (res,) = telemetry.slo.results()
        assert res.objective.name == "lat_strict"
        assert not res.ok

    def test_bad_sample_interval_rejected(self):
        with pytest.raises(ValueError, match="sample_interval_s"):
            RuntimeTelemetry(sample_interval_s=0.0)

    def test_access_log_failures_never_break_serving(self):
        class ExplodingSink:
            def emit(self, record):
                raise OSError("disk full")

        telemetry = RuntimeTelemetry(access_log=ExplodingSink())
        telemetry.observe_request(  # must not raise
            endpoint="/solve", method="POST", status=200, seconds=0.01
        )

    def test_energy_gauge_tracks_sample_state(self):
        telemetry = RuntimeTelemetry()
        telemetry.sample(
            {"t": 1.0, "requests": 1, "energy_j": 2.5, "queue_depth": 4}
        )
        runtime = telemetry.runtime_dict(queue_depth=4, energy_j=2.5)
        assert runtime["queue_depth"] == 4
        assert runtime["energy_proxy_j"] == 2.5
        assert runtime["timeseries"][-1]["energy_j"] == 2.5
        gauge = telemetry.registry.get("repro_energy_proxy_joules")
        assert gauge.value() == 2.5
        assert math.isfinite(gauge.value())


class TestTopAgainstLiveServer:
    def test_cli_top_once_renders_a_frame(self, capsys, threaded_server):
        from repro.cli import main

        with threaded_server(
            workers=1, rate_units_per_s=1e9, capacity_units=BIG
        ) as srv:
            assert (
                main(
                    ["top", "--host", srv.host, "--port", str(srv.port),
                     "--once"]
                )
                == 0
            )
            frame = capsys.readouterr().out
        assert "repro top" in frame
        assert f"{srv.host}:{srv.port}" in frame
        assert "slo       latency_p99" in frame

    def test_bench_serve_prints_slo_summary(self, capsys, threaded_server):
        from repro.cli import main
        from repro.obs.runtime import parse_slo_line

        with threaded_server(
            workers=1, rate_units_per_s=1e9, capacity_units=BIG
        ) as srv:
            code = main(
                ["bench-serve", "--host", srv.host, "--port", str(srv.port),
                 "--requests", "8", "--passes", "1", "--concurrency", "2"]
            )
        assert code == 0
        out = capsys.readouterr().out
        slo_lines = [l for l in out.splitlines() if l.startswith("SLO ")]
        assert len(slo_lines) == 2  # what CI greps with '^SLO '
        parsed = [parse_slo_line(l) for l in slo_lines]
        assert {p["objective"] for p in parsed} == {
            "latency_p99",
            "availability",
        }
        assert all(p["samples"] == 8 for p in parsed)
