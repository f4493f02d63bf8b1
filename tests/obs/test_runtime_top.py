"""The time-series ring, rate derivation, and the repro top renderer."""

import threading

import pytest

from repro.obs.runtime import TimeSeriesRing, render_frame, run_top
from repro.obs.runtime.timeseries import rate
from repro.obs.runtime.top import sparkline


class TestRing:
    def test_capacity_floor(self):
        with pytest.raises(ValueError, match="capacity >= 2"):
            TimeSeriesRing(capacity=1)

    def test_samples_require_timestamp(self):
        ring = TimeSeriesRing(capacity=4)
        with pytest.raises(ValueError, match="'t' timestamp"):
            ring.append({"requests": 1})

    def test_wraparound_keeps_newest_oldest_first(self):
        ring = TimeSeriesRing(capacity=3)
        for i in range(5):
            ring.append({"t": float(i), "requests": i * 10})
        assert len(ring) == 3
        assert ring.appended_total == 5
        assert [s["t"] for s in ring.window()] == [2.0, 3.0, 4.0]
        assert [s["t"] for s in ring.window(2)] == [3.0, 4.0]

    def test_window_returns_copies(self):
        ring = TimeSeriesRing(capacity=3)
        ring.append({"t": 0.0, "requests": 1})
        ring.window()[0]["requests"] = 999
        assert ring.window()[0]["requests"] == 1

    def test_concurrent_appends_account_for_every_sample(self):
        ring = TimeSeriesRing(capacity=16)
        n, threads = 300, 6

        def hammer(base):
            for i in range(n):
                ring.append({"t": float(base * n + i)})

        workers = [
            threading.Thread(target=hammer, args=(k,)) for k in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert ring.appended_total == n * threads
        assert len(ring) == 16


class TestRate:
    def test_rate_over_window(self):
        samples = [
            {"t": 0.0, "requests": 0},
            {"t": 1.0, "requests": 5},
            {"t": 2.0, "requests": 20},
        ]
        assert rate(samples, "requests") == 10.0

    def test_degenerate_windows_are_zero(self):
        assert rate([], "x") == 0.0
        assert rate([{"t": 0.0, "x": 1}], "x") == 0.0
        # non-advancing time
        assert rate([{"t": 1.0, "x": 1}, {"t": 1.0, "x": 2}], "x") == 0.0
        # counter reset clamps to zero rather than going negative
        assert rate([{"t": 0.0, "x": 9}, {"t": 1.0, "x": 2}], "x") == 0.0
        # samples missing the key are skipped
        assert (
            rate([{"t": 0.0}, {"t": 1.0, "x": None}, {"t": 2.0}], "x") == 0.0
        )


SNAPSHOT = {
    "service": {"host": "127.0.0.1", "port": 8722, "workers": 2},
    "requests": {
        "uptime_s": 10.0,
        "total_requests": 40,
        "endpoints": {
            "/solve": {
                "latency": {"p50_ms": 2.0, "p99_ms": 9.0, "count": 40}
            }
        },
    },
    "admission": {
        "policy": "accept_if_feasible",
        "admitted": 30,
        "rejected": 10,
        "shed": 0,
        "utilisation": 0.25,
        "inflight_units": 120.0,
    },
    "cache": {"hits": 5},
    "counters": {"service.solve.total": 40},
    "runtime": {
        "queue_depth": 3,
        "energy_proxy_j": 1.5,
        "slo": [
            {
                "objective": "latency_p99",
                "threshold_ms": 500.0,
                "target": 0.99,
                "attainment": 0.95,
                "burn_rate": 5.0,
                "samples": 40,
                "ok": False,
            }
        ],
        "timeseries": [
            {"t": 0.0, "requests": 0, "rejected": 0, "energy_j": 0.0},
            {"t": 1.0, "requests": 20, "rejected": 4, "energy_j": 0.5},
            {"t": 2.0, "requests": 40, "rejected": 10, "energy_j": 1.5},
        ],
    },
}


class TestRenderFrame:
    def test_frame_is_pure_and_complete(self):
        frame = render_frame(SNAPSHOT)
        assert "127.0.0.1:8722" in frame
        assert "qps=20.0" in frame  # (40-0)/(2-0)
        assert "queue=3" in frame
        assert "rejected=10 (5.0/s)" in frame
        assert "p99=9.0ms" in frame
        assert "proxy=1.50J" in frame
        assert "rate=0.750J/s" in frame
        assert "latency_p99 <500ms" in frame and "FAIL" in frame
        assert "qps  " in frame and "rej  " in frame  # sparklines

    def test_cold_ring_falls_back_to_lifetime_average(self):
        snap = dict(SNAPSHOT)
        snap["runtime"] = dict(SNAPSHOT["runtime"], timeseries=[])
        frame = render_frame(snap)
        assert "qps=4.0" in frame  # 40 requests / 10 s uptime
        assert "qps  " not in frame  # no sparkline without two samples

    def test_empty_snapshot_never_raises(self):
        frame = render_frame({})
        assert "repro top" in frame

    def test_missing_fields_print_as_unknown_not_zero(self):
        frame = render_frame({"service": {"workers": 2}})
        assert "workers=2" in frame
        for field in ("total=?", "qps=?", "queue=?", "admitted=?", "n=?"):
            assert field in frame
        assert "total=0" not in frame and "n=0" not in frame

    def test_fleet_payload_renders_the_fleet_frame(self):
        # What a router of `repro serve --shards 2` answers on
        # /metrics?format=json: no service, requests or admission section.
        payload = {
            "fleet": {"role": "router", "shards": 2, "draining": False},
            "counters": {
                "router.http.requests": 9,
                "service.solve.total": 6,
                "service.solve.admitted": 4,
                "service.solve.cached": 2,
                "service.cache.hits": 2,
                "service.cache.misses": 4,
            },
            "shards": [
                {"shard": "0", "up": True, "counters": {}},
                {"shard": "1", "up": False},
            ],
        }
        lines = render_frame(payload).splitlines()
        assert lines == [
            "repro top — fleet router  shards=2  up=1/2",
            "solve     total=6  admitted=4  cached=2",
            "cache     hits=2  misses=4",
        ]
        assert "?:?" not in render_frame(payload)
        bare = render_frame({"fleet": {}})
        assert "shards=?  up=?" in bare
        assert "solve     (none counted)" in bare

    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0]) == "▁▁"
        line = sparkline([0.0, 5.0, 10.0])
        assert len(line) == 3
        assert line[-1] == "█"


class TestRunTop:
    def test_once_prints_a_single_frame(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.obs.runtime.top.fetch_snapshot",
            lambda host, port: SNAPSHOT,
        )
        assert run_top("h", 1, once=True, out=calls.append) == 0
        assert len(calls) == 1
        assert "repro top" in calls[0]

    def test_frames_limit_paces_with_sleep(self, monkeypatch):
        frames, naps = [], []
        monkeypatch.setattr(
            "repro.obs.runtime.top.fetch_snapshot",
            lambda host, port: SNAPSHOT,
        )
        assert (
            run_top(
                "h",
                1,
                interval=0.5,
                frames=3,
                out=frames.append,
                sleep=naps.append,
            )
            == 0
        )
        assert len(frames) == 3
        assert naps == [0.5, 0.5]

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            run_top("h", 1, interval=0.0, once=True)

    def test_fetch_errors_propagate(self, monkeypatch):
        def boom(host, port):
            raise OSError("connection refused")

        monkeypatch.setattr("repro.obs.runtime.top.fetch_snapshot", boom)
        with pytest.raises(OSError):
            run_top("h", 1, once=True, out=lambda _: None)
