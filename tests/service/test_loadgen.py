"""Tests for the seeded load generator (``repro bench-serve``)."""

import asyncio
import json
import threading
import time

import pytest

from repro.cli import main
from repro.core.rejection.online import ThresholdPolicy
from repro.service.http import read_request, write_response
from repro.service.loadgen import (
    PassStats,
    format_stats,
    make_bodies,
    run_load,
    run_replay,
)


class TestMakeBodies:
    def test_same_seed_same_stream(self):
        assert make_bodies(7, 10) == make_bodies(7, 10)

    def test_different_seed_different_stream(self):
        assert make_bodies(7, 10) != make_bodies(8, 10)

    def test_body_shape(self):
        bodies = make_bodies(0, 5, algorithm="fptas", eps=0.25)
        assert len(bodies) == 5
        for body in bodies:
            assert body["algorithm"] == "fptas"
            assert body["eps"] == 0.25
            assert 0.5 <= body["weight"] <= 2.0
            assert 6 <= len(body["instance"]["tasks"]) <= 12

    def test_instances_are_distinct(self):
        bodies = make_bodies(0, 20)
        keys = {str(body["instance"]) for body in bodies}
        assert len(keys) == 20


class TestPassStats:
    def test_quantiles_from_samples(self):
        stats = PassStats(pass_no=1, requests=100, elapsed_s=2.0)
        stats.latencies_s = [i / 1000 for i in range(1, 101)]  # 1..100 ms
        assert stats.quantile_ms(0.5) == pytest.approx(50.0)
        assert stats.quantile_ms(0.99) == pytest.approx(99.0)
        assert stats.throughput_rps == pytest.approx(50.0)

    def test_empty_stats(self):
        stats = PassStats(pass_no=1, requests=0, elapsed_s=0.0)
        assert stats.quantile_ms(0.5) == 0.0
        assert stats.throughput_rps == 0.0
        assert stats.reject_rate == 0.0

    def test_format_line_is_grep_friendly(self):
        stats = PassStats(pass_no=2, requests=10, elapsed_s=1.0, ok=8, rejected=2)
        line = format_stats(stats)
        assert line.startswith("pass 2: 10 requests")
        assert "ok=8" in line
        assert "rejected=2" in line
        assert "cache_hits=0" in line
        assert "5xx=0" in line

    def test_as_dict_round_numbers(self):
        stats = PassStats(pass_no=1, requests=4, elapsed_s=2.0, ok=3, rejected=1)
        data = stats.as_dict()
        assert data["reject_rate"] == pytest.approx(0.25)
        assert data["throughput_rps"] == pytest.approx(2.0)


class TestRunLoadValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            run_load("127.0.0.1", 1, mode="drive-by")

    def test_bad_requests(self):
        with pytest.raises(ValueError, match="requests"):
            run_load("127.0.0.1", 1, requests=0)


class TestRunLoadAgainstServer:
    def test_second_pass_is_served_from_cache(self, threaded_server):
        with threaded_server(
            workers=1, rate_units_per_s=1e9, capacity_units=1e12
        ) as srv:
            results = run_load(
                srv.host,
                srv.port,
                requests=20,
                seed=3,
                passes=2,
                concurrency=4,
            )
        first, second = results
        assert first.ok == 20
        assert first.cache_hits == 0
        assert first.server_errors == first.transport_errors == 0
        assert second.ok == 20
        assert second.cache_hits == 20
        assert second.server_errors == second.transport_errors == 0

    def test_open_loop_overload_rejects_not_errors(self, threaded_server):
        # theta=0.5 with reserve pricing rejects every default-weight
        # request outright, so overload shows up purely as 429s.
        with threaded_server(
            workers=1,
            rate_units_per_s=1e9,
            capacity_units=1e12,
            policy=ThresholdPolicy(0.5, reserve=True),
        ) as srv:
            bodies_rejected = run_load(
                srv.host,
                srv.port,
                requests=15,
                seed=0,
                passes=1,
                mode="open",
                rate=500.0,
            )
        stats = bodies_rejected[0]
        assert stats.server_errors == 0
        assert stats.transport_errors == 0
        assert stats.rejected > 0
        assert stats.ok + stats.rejected == 15
        assert stats.reject_rate > 0.5


class SlowStub:
    """A one-connection-at-a-time HTTP stub with a fixed service time.

    Every request is answered 200 after exactly *delay_s* — the
    deliberately slow server the open-loop split is pinned against:
    with concurrency=1 and an offered rate far above ``1/delay_s``, the
    generator's backlog grows without bound while the *server* never
    gets slower, so service-time quantiles must stay near ``delay_s``
    and the backlog must surface as queue wait instead.
    """

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s
        self.host: str | None = None
        self.port: int | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    async def _handle(self, reader, writer) -> None:
        from repro.service.http import read_request, write_response

        try:
            while True:
                request = await read_request(reader)
                if request is None:
                    break
                await asyncio.sleep(self.delay_s)
                await write_response(
                    writer,
                    200,
                    {"status": "done", "id": "stub", "cache": "miss"},
                    keep_alive=True,
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    def _main(self) -> None:
        async def body() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            server = await asyncio.start_server(
                self._handle, "127.0.0.1", 0
            )
            self.host, self.port = server.sockets[0].getsockname()[:2]
            self._ready.set()
            await self._stop.wait()
            server.close()
            await server.wait_closed()

        asyncio.run(body())

    def __enter__(self) -> "SlowStub":
        self._thread.start()
        assert self._ready.wait(timeout=30)
        return self

    def __exit__(self, *exc) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)


class TestOpenLoopSplit:
    DELAY_S = 0.05

    def test_backlog_lands_in_queue_wait_not_service_time(self):
        # 12 requests at 200 rps into a 20 rps server: the intended
        # send times outrun completions ~10×, so the true backlog by
        # the last request is ~10 service times.  Before the split the
        # latency samples absorbed that backlog and "p99" said the
        # *server* was slow; now service time stays near delay_s.
        with SlowStub(self.DELAY_S) as stub:
            stats = run_load(
                stub.host,
                stub.port,
                requests=12,
                seed=0,
                passes=1,
                mode="open",
                rate=200.0,
                concurrency=1,
            )[0]
        assert stats.ok == 12
        assert len(stats.queue_waits_s) == 12
        service_p50 = stats.quantile_ms(0.5)
        service_p99 = stats.quantile_ms(0.99)
        queue_p99 = stats.queue_quantile_ms(0.99)
        assert service_p50 >= self.DELAY_S * 1000 * 0.9
        assert queue_p99 > 2 * service_p99
        assert queue_p99 > 4 * self.DELAY_S * 1000
        as_dict = stats.as_dict()
        assert as_dict["queue_p99_ms"] == pytest.approx(queue_p99)
        assert "queue_p99" in format_stats(stats)

    def test_closed_loop_records_no_queue_waits(self):
        with SlowStub(0.001) as stub:
            stats = run_load(
                stub.host,
                stub.port,
                requests=4,
                seed=0,
                passes=1,
                mode="closed",
                concurrency=2,
            )[0]
        assert stats.ok == 4
        assert stats.queue_waits_s == []
        assert "queue_p99" not in format_stats(stats)


class GoneAfterOneStub(SlowStub):
    """A server that goes away mid-pass.

    It closes its listener as its first request arrives, answers that
    request, and closes the connection: every later request gets no
    answer and every reconnect is refused.
    """

    def __init__(self) -> None:
        super().__init__(0.0)

    def _main(self) -> None:
        async def body() -> None:
            handled = asyncio.Event()

            async def handle(reader, writer) -> None:
                try:
                    if await read_request(reader) is not None:
                        server.close()
                        await write_response(
                            writer,
                            200,
                            {"status": "done", "id": "stub", "cache": "miss"},
                            keep_alive=True,
                        )
                finally:
                    writer.close()
                    await writer.wait_closed()
                    handled.set()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            self.host, self.port = server.sockets[0].getsockname()[:2]
            self._ready.set()
            await handled.wait()

        asyncio.run(body())

    def __exit__(self, *exc) -> None:
        self._thread.join(timeout=30)  # the stub stops on its own
        assert not self._thread.is_alive()


class TestServerGoneMidPass:
    @pytest.mark.parametrize("mode", ["closed", "open"])
    def test_unanswered_requests_are_transport_errors(self, mode):
        with GoneAfterOneStub() as stub:
            stats = run_load(
                stub.host,
                stub.port,
                requests=4,
                seed=0,
                passes=1,
                mode=mode,
                concurrency=1,
                rate=200.0,
            )[0]
        assert stats.ok == 1
        assert stats.transport_errors == 3
        assert "transport_errors=3" in format_stats(stats)

    def test_bench_serve_prints_the_pass_and_fails(self, capsys):
        with GoneAfterOneStub() as stub:
            code = main(
                [
                    "bench-serve",
                    "--port", str(stub.port),
                    "--requests", "4",
                    "--passes", "1",
                    "--concurrency", "1",
                ]
            )
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("pass 1: 4 requests")
        assert "ok=1 " in out
        assert "transport_errors=3" in out


class RecordingStub(SlowStub):
    """Answers body ``{"i", "delay_s"}`` after ``delay_s`` with a 429
    whose reason is ``r<i>``, and records when each body arrived."""

    def __init__(self) -> None:
        super().__init__(0.0)
        #: ``(time.monotonic() at arrival, i)`` per request.
        self.arrivals: list[tuple[float, int]] = []

    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                request = await read_request(reader)
                if request is None:
                    break
                body = json.loads(request[3])
                self.arrivals.append((time.monotonic(), body["i"]))
                await asyncio.sleep(body["delay_s"])
                await write_response(
                    writer,
                    429,
                    {"status": "rejected", "reason": f"r{body['i']}"},
                    keep_alive=True,
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()


class TestTimedReplay:
    def test_each_entry_answered_once_in_trace_order_never_early(self):
        # Later entries are answered faster, so answers come back in
        # reverse trace order; the outcomes must not.
        speedup = 2.0
        times = [0.0, 0.1, 0.2, 0.3]
        entries = [
            {
                "req_id": f"e{i}",
                "t": t,
                "body": {"i": i, "delay_s": 0.1 * (len(times) - 1 - i)},
            }
            for i, t in enumerate(times)
        ]
        with RecordingStub() as stub:
            # The loop clock is time.monotonic(), and the pass starts
            # after this reading.
            before = time.monotonic()
            stats, outcomes = run_replay(
                stub.host, stub.port, entries, mode="timed", speedup=speedup
            )
        assert sorted(i for _, i in stub.arrivals) == [0, 1, 2, 3]
        assert [o.as_pair() for o in outcomes] == [
            (f"e{i}", 429, f"r{i}") for i in range(len(times))
        ]
        assert stats.rejected == len(times)
        assert stats.transport_errors == 0
        for arrived, i in stub.arrivals:
            assert arrived - before >= times[i] / speedup


class TestSloSamples:
    def _stats(self):
        from repro.service.loadgen import PassStats

        return PassStats(pass_no=1, requests=0, elapsed_s=1.0)

    def test_record_classifies_into_the_shared_schema(self):
        stats = self._stats()
        stats.record(200, {}, 0.01)  # latency sample
        stats.record(429, {"reason": "x"}, 0.002)  # excluded: policy
        stats.record(500, {}, 0.1)  # availability failure, no latency
        stats.record(400, {}, 0.005)  # client error: ok, no latency
        stats.record_transport_error()  # availability failure
        assert stats.slo_samples == [
            (True, 0.01),
            (False, None),
            (True, None),
            (False, None),
        ]
        assert stats.rejected == 1
        assert stats.transport_errors == 1
        assert len(stats.latencies_s) == 4  # 429 still times the wire

    def test_slo_results_aggregate_across_passes(self):
        from repro.service.loadgen import slo_results

        first, second = self._stats(), self._stats()
        first.elapsed_s, second.elapsed_s = 2.0, 3.0
        first.record(200, {}, 0.01)
        second.record(200, {}, 0.9)  # blows the 500 ms threshold
        second.record(500, {}, 0.1)
        results = slo_results([first, second])
        by_name = {r.objective.name: r for r in results}
        lat = by_name["latency_p99"]
        assert (lat.samples, lat.good) == (2, 1)
        assert lat.window_s == pytest.approx(5.0)
        avail = by_name["availability"]
        assert (avail.samples, avail.good) == (3, 2)

    def test_custom_objectives(self):
        from repro.obs.runtime.slo import SloObjective
        from repro.service.loadgen import slo_results

        stats = self._stats()
        stats.record(200, {}, 0.2)
        (res,) = slo_results(
            [stats],
            (SloObjective("lat", "latency", target=0.5, threshold_s=0.5),),
        )
        assert res.ok
