"""Metric families, the registry, and the Prometheus text exposition."""

import math
import threading

import pytest

from repro.obs.runtime import (
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sample,
    render,
)


class TestCounter:
    def test_labeled_series_accumulate_independently(self):
        c = Counter("repro_x_total", "help", ("outcome",))
        c.inc(outcome="ok")
        c.inc(2.0, outcome="ok")
        c.inc(outcome="err")
        assert c.value(outcome="ok") == 3.0
        assert c.value(outcome="err") == 1.0
        assert c.total() == 4.0

    def test_negative_increment_rejected(self):
        c = Counter("repro_x_total", "help")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1.0)

    def test_wrong_label_set_rejected(self):
        c = Counter("repro_x_total", "help", ("outcome",))
        with pytest.raises(ValueError, match="expected labels"):
            c.inc(status="200")
        with pytest.raises(ValueError, match="expected labels"):
            c.inc()  # missing the declared label entirely

    def test_invalid_names_rejected_at_construction(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("0bad", "help")
        with pytest.raises(ValueError, match="invalid label name"):
            Counter("repro_ok", "help", ("bad-dash",))
        with pytest.raises(ValueError, match="invalid label name"):
            Counter("repro_ok", "help", ("__reserved",))
        with pytest.raises(ValueError, match="duplicate label names"):
            Counter("repro_ok", "help", ("a", "a"))


class TestGauge:
    def test_set_inc_dec_remove(self):
        g = Gauge("repro_depth", "help")
        g.set(5.0)
        g.inc(-2.0)  # gauges may go down
        assert g.value() == 3.0
        g.remove()
        assert g.value() == 0.0


class TestHistogram:
    def test_observe_and_quantile_contract(self):
        h = Histogram("repro_lat", "help", buckets=(0.1, 1.0, 10.0))
        assert h.bounds[-1] == math.inf  # +Inf auto-appended
        assert h.quantile(0.5) == 0.0  # empty series
        for v in (0.05, 0.05, 0.5, 100.0):
            h.observe(v)
        # q=0.5 -> rank 2 of 4 -> first bucket's upper bound
        assert h.quantile(0.5) == 0.1
        # the +Inf bucket reports the top finite bound, never inf
        assert h.quantile(1.0) == 10.0

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram("repro_lat", "help", buckets=(1.0, 0.1))

    def test_collect_emits_cumulative_buckets_sum_count(self):
        h = Histogram("repro_lat", "help", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        family = h.collect()
        rendered = "\n".join(family.render())
        assert 'repro_lat_bucket{le="0.1"} 1' in rendered
        assert 'repro_lat_bucket{le="1"} 2' in rendered
        assert 'repro_lat_bucket{le="+Inf"} 2' in rendered
        assert "repro_lat_sum 0.55" in rendered
        assert "repro_lat_count 2" in rendered


class TestRegistry:
    def test_reregistration_returns_the_same_metric(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_x_total", "help", ("k",))
        b = reg.counter("repro_x_total", "help", ("k",))
        assert a is b

    def test_conflicting_reregistration_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "help")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_x_total", "help")
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("repro_x_total", "help", ("extra",))

    def test_concurrent_increments_lose_nothing(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", "help", ("k",))
        h = reg.histogram("repro_lat", "h", buckets=(0.5,))
        per_thread, threads = 500, 8

        def hammer():
            for _ in range(per_thread):
                c.inc(k="a")
                h.observe(0.1)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert c.value(k="a") == per_thread * threads
        assert h.series()[0]["count"] == per_thread * threads


class TestExposition:
    def test_families_sorted_and_labels_escaped(self):
        fams = [
            Family("repro_b", "counter", "second", [Sample("repro_b", (), 1)]),
            Family(
                "repro_a",
                "gauge",
                'tricky "help"\nline',
                [
                    Sample(
                        "repro_a",
                        (("path", 'a\\b"c\nd'),),
                        2.5,
                    )
                ],
            ),
        ]
        text = render(fams)
        assert text.index("repro_a") < text.index("repro_b")
        assert text.endswith("\n")
        assert '# HELP repro_a tricky "help"\\nline' in text
        assert 'repro_a{path="a\\\\b\\"c\\nd"} 2.5' in text

    def test_duplicate_family_is_an_error(self):
        fams = [
            Family("repro_a", "counter"),
            Family("repro_a", "gauge"),
        ]
        with pytest.raises(ValueError, match="duplicate metric family"):
            render(fams)

    def test_value_formatting(self):
        assert Sample("m", (), 3.0).render() == "m 3"
        assert Sample("m", (), math.inf).render() == "m +Inf"
        assert Sample("m", (), -math.inf).render() == "m -Inf"
        assert Sample("m", (), float("nan")).render() == "m NaN"
        assert Sample("m", (), 0.25).render() == "m 0.25"
