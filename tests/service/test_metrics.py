"""Exact-value tests for the served request-latency histogram.

Served requests are recorded into the registry's
``repro_request_duration_seconds`` histogram on the default latency
grid; these pin its interpolated quantiles at the grid's edges and the
JSON ``requests`` section :class:`RuntimeTelemetry` renders from it.
"""

import math
import sys
import threading

import pytest

from repro.obs.runtime import Histogram
from repro.obs.runtime.metrics import DEFAULT_LATENCY_BUCKETS as BOUNDS
from repro.service.telemetry import RuntimeTelemetry

TOP = BOUNDS[-2]  # largest finite bound, 10**(7/4) ~ 56.23 s


def edges(i):
    """(lower, upper) edges of bucket *i*."""
    lo = 0.0 if i == 0 else BOUNDS[i - 1]
    return lo, BOUNDS[i]


def latency_histogram(*samples):
    hist = Histogram("repro_lat_seconds", "help")
    for value in samples:
        hist.observe(value)
    return hist


class TestQuantileEdgeCases:
    def test_empty_histogram_reports_zero(self):
        hist = latency_histogram()
        for q in (0.0, 0.5, 1.0, -1.0, 2.0):
            assert hist.quantile(q) == 0.0

    def test_single_sample_q0_is_the_lower_edge(self):
        hist = latency_histogram(1e-3)  # exactly its bucket's upper bound
        lo, hi = edges(BOUNDS.index(1e-3))
        assert hist.quantile(0.0) == pytest.approx(lo)
        assert hist.quantile(1.0) == pytest.approx(hi)
        assert lo < hist.quantile(0.5) < hi

    def test_out_of_range_q_is_clamped(self):
        hist = latency_histogram(1e-3)
        assert hist.quantile(-0.5) == hist.quantile(0.0)
        assert hist.quantile(2.0) == hist.quantile(1.0)

    def test_overflow_bucket_reports_the_top_finite_bound(self):
        # Samples beyond ~56 s land in the +inf bucket: there is no
        # upper edge to interpolate toward, so the top finite bound is
        # the answer — never inf, nan, or a fabricated extrapolation.
        hist = latency_histogram(100.0)
        for q in (0.0, 0.5, 1.0):
            value = hist.quantile(q)
            assert value == TOP
            assert math.isfinite(value)

    def test_mixed_overflow_keeps_low_quantiles_in_their_bucket(self):
        hist = latency_histogram(*[1e-3] * 9, 1000.0)
        lo, hi = edges(BOUNDS.index(1e-3))
        assert lo <= hist.quantile(0.5) <= hi
        assert hist.quantile(1.0) == TOP

    def test_result_is_never_below_its_buckets_lower_edge(self):
        # The q=0 / tiny-q path used to interpolate below the lower
        # edge; every quantile must stay inside [lower edge, upper edge]
        # of the bucket it lands in.
        hist = latency_histogram(2e-4, 3e-4, 5e-3, 0.2, 70.0)
        counts = hist.series()[0]["counts"]
        occupied = [i for i, c in enumerate(counts) if c]
        floor = edges(occupied[0])[0]
        for q in [i / 100.0 for i in range(101)]:
            value = hist.quantile(q)
            assert math.isfinite(value)
            assert value >= floor

    def test_quantile_is_monotone_in_q(self):
        hist = latency_histogram(1e-4, 5e-4, 2e-3, 0.05, 1.0, 30.0, 120.0)
        qs = [i / 50.0 for i in range(51)]
        values = [hist.quantile(q) for q in qs]
        assert values == sorted(values)

    def test_midpoint_interpolation_exact_value(self):
        # Four samples in one bucket: q=0.5 targets sample 2 of 4, so
        # the interpolated position is lo + (hi - lo) * 2/4.
        lo, hi = edges(BOUNDS.index(1e-2))
        hist = latency_histogram(*[hi] * 4)
        assert hist.quantile(0.5) == pytest.approx(lo + (hi - lo) * 0.5)
        assert hist.quantile(0.25) == pytest.approx(lo + (hi - lo) * 0.25)

    def test_zero_latency_lands_in_the_first_bucket(self):
        hist = latency_histogram(0.0)
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(1.0) == pytest.approx(BOUNDS[0])


class TestDumps:
    def test_as_dict_is_finite_with_overflow_traffic(self):
        telemetry = RuntimeTelemetry()
        telemetry.record_request("/solve", 200, 100.0)
        dump = telemetry.requests_dict()["endpoints"]["/solve"]["latency"]
        assert dump["count"] == 1
        assert math.isfinite(dump["p50_ms"])
        assert math.isfinite(dump["p99_ms"])
        assert dump["buckets"] == {"+inf": 1}

    def test_service_metrics_rolls_up_endpoints(self):
        telemetry = RuntimeTelemetry()
        telemetry.record_request("/solve", 200, 0.01)
        telemetry.record_request("/solve", 429, 0.001)
        telemetry.record_request("/healthz", 200, 1000.0)
        dump = telemetry.requests_dict()
        assert telemetry.total_requests() == dump["total_requests"] == 3
        assert dump["endpoints"]["/solve"]["statuses"] == {"200": 1, "429": 1}
        assert math.isfinite(
            dump["endpoints"]["/healthz"]["latency"]["p99_ms"]
        )


class TestThreadSafety:
    """Regression wall for the record/read races.

    ``record_request`` runs on the asyncio loop thread while the
    sampler task, the ThreadedServer test harness, and scrapes read
    concurrently — every sample must be accounted for.
    """

    def test_concurrent_observers_lose_no_samples(self):
        telemetry = RuntimeTelemetry()
        threads, per_thread = 8, 500
        barrier = threading.Barrier(threads)

        def hammer(k):
            barrier.wait()
            for i in range(per_thread):
                telemetry.record_request(
                    "/solve", 200 if i % 3 else 429, 0.001 * k
                )

        workers = [
            threading.Thread(target=hammer, args=(k,)) for k in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleaving inside records
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert telemetry.total_requests() == threads * per_thread
        dump = telemetry.requests_dict()
        statuses = dump["endpoints"]["/solve"]["statuses"]
        assert statuses == {
            "200": threads * (per_thread - 167),
            "429": threads * 167,
        }
        assert dump["endpoints"]["/solve"]["latency"]["count"] == (
            threads * per_thread
        )

    def test_concurrent_reads_during_writes_stay_consistent(self):
        telemetry = RuntimeTelemetry()
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                dump = telemetry.requests_dict()
                for endpoint, entry in dump["endpoints"].items():
                    # both families are read under the lock that pairs
                    # their writes, so the totals can never disagree.
                    if sum(entry["statuses"].values()) != entry["latency"][
                        "count"
                    ]:
                        failures.append(endpoint)

        watcher = threading.Thread(target=reader)
        watcher.start()
        for i in range(2000):
            telemetry.record_request("/solve", 200, 1e-3)
        stop.set()
        watcher.join(timeout=60)
        assert not watcher.is_alive()
        assert not failures
