"""Runtime telemetry for the solve service.

:class:`RuntimeTelemetry` is the server's adapter onto
:mod:`repro.obs.runtime`: it owns the metrics registry (per-endpoint
request counts and latency histograms included), the rolling SLO
tracker, the time-series ring the sampler task fills, the structured
access log, and the per-request ``last_request`` label table.  Both
expositions render from that one registry: the Prometheus text (plus
families derived from the server's admission, cache and counter
state) and the JSON ``requests`` section of ``/metrics?format=json``.

Request-id conventions
----------------------
The server mints one id per ``POST /solve`` *before* parsing the body
(so even a 400 is traceable), echoes it as ``X-Repro-Request-Id``,
threads it through the admission span, the worker payload, and the
access-log line, and records it here as the
``repro_last_request{endpoint,status,req_id}`` series — one series per
(endpoint, status) pair with replace semantics, so cardinality stays
bounded while the most recent accepted and rejected request are always
recoverable from a scrape.

SLO conventions (shared with ``bench-serve`` and ``repro.sim``)
---------------------------------------------------------------
429s are the paper's *policy* at work, not an outage: they are
excluded from SLO samples entirely.  200s contribute a latency sample;
5xx contribute an availability failure.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Mapping, Sequence

from repro.obs.runtime.metrics import MetricsRegistry
from repro.obs.runtime.prometheus import CONTENT_TYPE, render
from repro.obs.runtime.slo import DEFAULT_SLOS, SloObjective, SloTracker
from repro.obs.runtime.timeseries import TimeSeriesRing
from repro.power import xscale_power_model

__all__ = ["CONTENT_TYPE", "RuntimeTelemetry"]

#: Watts burned retiring admitted work, on the same normalised XScale
#: curve the admission controller prices with (full speed, s_max=1) —
#: the serving twin of the simulator's active-energy accounting.
_FULL_POWER_W = xscale_power_model(s_max=1.0).power(1.0)

_SOLVE_OUTCOMES = (
    "cached", "admitted", "rejected", "invalid", "unavailable", "failed"
)


class RuntimeTelemetry:
    """Registry + SLO tracker + ring + access log for one server."""

    def __init__(
        self,
        *,
        slos: Sequence[SloObjective] | None = None,
        access_log: Any | None = None,
        ring_capacity: int = 600,
        sample_interval_s: float = 1.0,
    ) -> None:
        if sample_interval_s <= 0:
            raise ValueError(
                f"sample_interval_s must be > 0, got {sample_interval_s}"
            )
        self.sample_interval_s = float(sample_interval_s)
        self.access_log = access_log  # anything with .emit(dict)
        self.slo = SloTracker(tuple(slos) if slos else DEFAULT_SLOS)
        self.ring = TimeSeriesRing(ring_capacity)
        self.started_at = time.time()
        self.registry = MetricsRegistry()
        self._c_requests = self.registry.counter(
            "repro_http_requests_total",
            "Requests served, by endpoint and status.",
            ("endpoint", "status"),
        )
        self._h_duration = self.registry.histogram(
            "repro_request_duration_seconds",
            "Server-side request latency, by endpoint.",
            ("endpoint",),
        )
        self._g_queue = self.registry.gauge(
            "repro_queue_depth", "Requests admitted but not yet dispatched."
        )
        self._g_energy = self.registry.gauge(
            "repro_energy_proxy_joules",
            "Energy proxy: completed work units priced at full speed on "
            "the admission controller's normalised XScale curve.",
        )
        self._g_attainment = self.registry.gauge(
            "repro_slo_attainment_ratio",
            "Fraction of good samples in the objective's rolling window.",
            ("objective",),
        )
        self._g_burn = self.registry.gauge(
            "repro_slo_burn_rate",
            "Error-budget burn rate: (1 - attainment) / (1 - target).",
            ("objective",),
        )
        # Guards the label table, and pairs the two request families so
        # a reader never sees a status counted without its latency.
        self._lock = threading.Lock()
        # (endpoint, status) -> (req_id, unix time); replace semantics.
        self._last: dict[tuple[str, str], tuple[str, float]] = {}

    # -- per-request path ----------------------------------------------

    def record_request(
        self, endpoint: str, status: int, seconds: float
    ) -> None:
        """Count one served request and its latency, per endpoint.

        Every endpoint is recorded here, so this stays apart from
        :meth:`observe_request`, whose non-``/solve`` path must remain
        near free.
        """
        with self._lock:
            self._c_requests.inc(endpoint=endpoint, status=str(status))
            self._h_duration.observe(seconds, endpoint=endpoint)

    def total_requests(self) -> int:
        """Requests served across all endpoints."""
        return int(self._c_requests.total())

    def observe_request(
        self,
        *,
        endpoint: str,
        method: str,
        status: int,
        seconds: float,
        req_id: str | None = None,
        reason: str | None = None,
    ) -> None:
        """One served request: access log + SLO sample + label table."""
        if req_id is not None:
            with self._lock:
                self._last[(endpoint, str(status))] = (req_id, time.time())
        if endpoint == "/solve" and status != 429:
            # 429 is admission policy, not an SLO event (see module doc).
            self.slo.record(
                ok=status < 500,
                latency_s=seconds if status == 200 else None,
            )
        if self.access_log is not None:
            record: dict[str, Any] = {
                "kind": "access",
                "t": time.time(),
                "method": method,
                "endpoint": endpoint,
                "status": status,
                "ms": seconds * 1e3,
            }
            if req_id is not None:
                record["req_id"] = req_id
            if reason is not None:
                record["reason"] = reason
            try:
                self.access_log.emit(record)
            except OSError:  # pragma: no cover - log target vanished
                pass

    # -- sampling -------------------------------------------------------

    def sample(self, state: Mapping[str, Any]) -> None:
        """Append one raw-totals sample (the server's sampler tick)."""
        row = dict(state)
        row.setdefault("t", time.monotonic())
        self.ring.append(row)
        self._g_queue.set(float(row.get("queue_depth", 0)))
        self._g_energy.set(float(row.get("energy_j", 0.0)))
        self._refresh_slo_gauges()

    def _refresh_slo_gauges(self) -> list:
        results = self.slo.results()
        for result in results:
            name = result.objective.name
            self._g_attainment.set(result.attainment, objective=name)
            self._g_burn.set(result.burn_rate, objective=name)
        return results

    # -- exposition -----------------------------------------------------

    def requests_dict(self) -> dict[str, Any]:
        """The ``requests`` section of ``/metrics?format=json``."""
        endpoints: dict[str, Any] = {}
        hist = self._h_duration
        with self._lock:
            for row in self._c_requests.series():
                labels = row["labels"]
                entry = endpoints.setdefault(
                    labels["endpoint"], {"statuses": {}}
                )
                entry["statuses"][labels["status"]] = int(row["value"])
            for row in hist.series():
                endpoint = row["labels"]["endpoint"]
                endpoints[endpoint]["latency"] = {
                    "count": row["count"],
                    "sum_s": row["sum"],
                    "p50_ms": hist.quantile(0.5, endpoint=endpoint) * 1e3,
                    "p99_ms": hist.quantile(0.99, endpoint=endpoint) * 1e3,
                    "buckets": {
                        ("+inf" if math.isinf(b) else f"{b:.6g}"): n
                        for b, n in zip(hist.bounds, row["counts"])
                        if n
                    },
                }
        return {
            "uptime_s": time.time() - self.started_at,
            "total_requests": sum(
                entry["latency"]["count"] for entry in endpoints.values()
            ),
            "endpoints": endpoints,
        }

    def runtime_dict(
        self, *, queue_depth: int, energy_j: float
    ) -> dict[str, Any]:
        """The ``runtime`` section of ``/metrics?format=json``."""
        results = self._refresh_slo_gauges()
        self._g_queue.set(float(queue_depth))
        self._g_energy.set(float(energy_j))
        with self._lock:
            last = [
                {
                    "endpoint": endpoint,
                    "status": status,
                    "req_id": req_id,
                    "t": t,
                }
                for (endpoint, status), (req_id, t) in sorted(
                    self._last.items()
                )
            ]
        return {
            "sample_interval_s": self.sample_interval_s,
            "queue_depth": queue_depth,
            "energy_proxy_j": energy_j,
            "slo": [result.as_dict() for result in results],
            "timeseries": self.ring.window(),
            "last_request": last,
        }

    def export_registry(
        self,
        *,
        counters: Mapping[str, float],
        admission: Mapping[str, Any],
        cache: Mapping[str, Any],
        info: Mapping[str, Any],
        queue_depth: int,
        energy_j: float,
    ) -> MetricsRegistry:
        """The full exposition as one fresh :class:`MetricsRegistry`.

        Everything ``GET /metrics`` shows — the runtime gauges this
        object owns plus every family derived from the server's JSON
        metrics sources — is folded into a single registry, so a shard
        can ship ``registry.snapshot()`` through a pipe and the router
        can relabel + merge N of them into one fleet exposition
        (:func:`repro.obs.runtime.relabel_snapshot`).
        """
        self._refresh_slo_gauges()
        self._g_queue.set(float(queue_depth))
        self._g_energy.set(float(energy_j))
        with self._lock:
            snapshot = self.registry.snapshot()
        registry = MetricsRegistry()
        registry.merge(snapshot)
        registry.merge(
            self._exposition_snapshot(
                counters=counters,
                admission=admission,
                cache=cache,
                info=info,
            )
        )
        return registry

    def render_prometheus(
        self,
        *,
        counters: Mapping[str, float],
        admission: Mapping[str, Any],
        cache: Mapping[str, Any],
        info: Mapping[str, Any],
        queue_depth: int,
        energy_j: float,
    ) -> str:
        """Full Prometheus text exposition for ``GET /metrics``."""
        registry = self.export_registry(
            counters=counters,
            admission=admission,
            cache=cache,
            info=info,
            queue_depth=queue_depth,
            energy_j=energy_j,
        )
        return render(registry.collect())

    def _exposition_snapshot(
        self,
        *,
        counters: Mapping[str, float],
        admission: Mapping[str, Any],
        cache: Mapping[str, Any],
        info: Mapping[str, Any],
    ) -> dict[str, Any]:
        """The derived families in registry-snapshot form.

        Built directly in the :meth:`MetricsRegistry.snapshot` schema
        (series rows under declared label names) and folded in through
        the public ``merge`` path, so the exposition and the shard
        snapshot can never drift apart.
        """

        def value_rows(rows):
            return [
                {"labels": labels, "value": value} for labels, value in rows
            ]

        snap: dict[str, Any] = {}
        # The outcomes partition service.solve.total (the pinned
        # invariant: total == cached+admitted+rejected+invalid+
        # unavailable), so the family's sum over its disjoint outcome
        # labels equals the JSON total — "failed" is intentionally NOT
        # a label here because failed requests were already admitted.
        snap["repro_solve_requests_total"] = {
            "type": "counter",
            "help": "Solve requests by admission outcome; the labels "
            "partition the pinned service.solve.total invariant.",
            "labelnames": ["outcome"],
            "series": value_rows(
                ({"outcome": outcome},
                 counters.get(f"service.solve.{outcome}", 0))
                for outcome in _SOLVE_OUTCOMES
                if outcome != "failed"
            ),
        }
        snap["repro_obs_counter"] = {
            "type": "counter",
            "help": "Raw repro.obs counter registry (solver counters "
            "merged back from pool workers included).",
            "labelnames": ["name"],
            "series": value_rows(
                ({"name": name}, value)
                for name, value in sorted(counters.items())
            ),
        }
        if admission:
            snap["repro_admission_utilisation_ratio"] = {
                "type": "gauge",
                "help": "Admitted-but-unfinished backlog as a fraction "
                "of capacity.",
                "labelnames": [],
                "series": value_rows(
                    [({}, admission.get("utilisation", 0.0))]
                ),
            }
            snap["repro_admission_inflight_units"] = {
                "type": "gauge",
                "help": "Admitted-but-unfinished work, in operation "
                "units.",
                "labelnames": [],
                "series": value_rows(
                    [({}, admission.get("inflight_units", 0.0))]
                ),
            }
            snap["repro_admission_decisions_total"] = {
                "type": "counter",
                "help": "Admission controller verdicts.",
                "labelnames": ["decision"],
                "series": value_rows(
                    ({"decision": decision}, admission.get(decision, 0))
                    for decision in ("admitted", "rejected", "shed")
                ),
            }
            snap["repro_completed_work_units_total"] = {
                "type": "counter",
                "help": "Work units released back to the pool after "
                "completion.",
                "labelnames": [],
                "series": value_rows(
                    [({}, admission.get("completed_units", 0.0))]
                ),
            }
            budget = admission.get("budget")
            if budget:
                snap["repro_budget_capacity_units"] = {
                    "type": "gauge",
                    "help": "The fleet-wide admission budget this shard "
                    "leases from.",
                    "labelnames": [],
                    "series": value_rows(
                        [({}, budget.get("budget_units", 0.0))]
                    ),
                }
                snap["repro_budget_leased_units"] = {
                    "type": "gauge",
                    "help": "Units currently leased across the fleet "
                    "(as this shard last saw the ledger).",
                    "labelnames": [],
                    "series": value_rows(
                        [({}, budget.get("leased_units", 0.0))]
                    ),
                }
        lookup_rows = [
            ({"outcome": "hit"}, cache.get("hits", 0)),
            ({"outcome": "miss"}, cache.get("misses", 0)),
        ]
        if "disk_hits" in cache:
            lookup_rows.insert(
                1, ({"outcome": "disk_hit"}, cache.get("disk_hits", 0))
            )
        snap["repro_cache_lookups_total"] = {
            "type": "counter",
            "help": "Result-cache lookups by outcome.",
            "labelnames": ["outcome"],
            "series": value_rows(lookup_rows),
        }
        snap["repro_cache_entries"] = {
            "type": "gauge",
            "help": "Result-cache entries currently held.",
            "labelnames": [],
            "series": value_rows([({}, cache.get("entries", 0))]),
        }
        snap["repro_service_info"] = {
            "type": "gauge",
            "help": "Static server identity (value is always 1).",
            "labelnames": ["policy", "workers"],
            "series": value_rows(
                [
                    (
                        {
                            "policy": str(info.get("policy")),
                            "workers": str(info.get("workers")),
                        },
                        1,
                    )
                ]
            ),
        }
        snap["repro_uptime_seconds"] = {
            "type": "gauge",
            "help": "Seconds since the server started.",
            "labelnames": [],
            "series": value_rows([({}, time.time() - self.started_at)]),
        }
        with self._lock:
            items = sorted(self._last.items())
        snap["repro_last_request"] = {
            "type": "gauge",
            "help": "Most recent request id per (endpoint, status); the "
            "value is its unix timestamp.  Replace semantics keep "
            "cardinality bounded.",
            "labelnames": ["endpoint", "status", "req_id"],
            "series": value_rows(
                (
                    {
                        "endpoint": endpoint,
                        "status": status,
                        "req_id": req_id,
                    },
                    t,
                )
                for (endpoint, status), (req_id, t) in items
            ),
        }
        return snap
