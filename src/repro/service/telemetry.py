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
from repro.obs.runtime.prometheus import CONTENT_TYPE, Family, Sample
from repro.obs.runtime.slo import DEFAULT_SLOS, SloObjective, SloTracker
from repro.obs.runtime.timeseries import TimeSeriesRing
from repro.power import xscale_power_model

__all__ = ["CONTENT_TYPE", "RuntimeTelemetry"]

#: Watts burned retiring admitted work, on the same normalised XScale
#: curve the admission controller prices with (full speed, s_max=1) —
#: the serving twin of the simulator's active-energy accounting.
_FULL_POWER_W = xscale_power_model(s_max=1.0).power(1.0)

_SOLVE_OUTCOMES = ("cached", "admitted", "rejected", "invalid", "unavailable")


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

    def families(
        self,
        *,
        counters: Mapping[str, float],
        admission: Mapping[str, Any],
        cache: Mapping[str, Any],
        info: Mapping[str, Any],
        queue_depth: int,
        energy_j: float,
    ) -> list[Family]:
        """Every family ``GET /metrics`` shows, read from live state.

        The registry's own families come from
        :meth:`MetricsRegistry.collect`; the rest are derived from the
        server's counter, admission and cache dicts.  Every family lists
        its samples in label order, as a registry family does, so the
        fleet router can prefix a ``shard`` label and concatenate shards.
        """
        self._refresh_slo_gauges()
        self._g_queue.set(float(queue_depth))
        self._g_energy.set(float(energy_j))
        with self._lock:
            families = self.registry.collect()
            last = sorted(self._last.items())
        # The outcomes partition service.solve.total (the pinned
        # invariant: total == cached+admitted+rejected+invalid+
        # unavailable), so the family's sum over its disjoint outcome
        # labels equals the JSON total — "failed" is intentionally NOT
        # a label here because failed requests were already admitted.
        derived = [
            (
                "repro_solve_requests_total", "counter",
                "Solve requests by admission outcome; the labels "
                "partition the pinned service.solve.total invariant.",
                ("outcome",),
                [
                    ((outcome,), counters.get(f"service.solve.{outcome}", 0))
                    for outcome in _SOLVE_OUTCOMES
                ],
            ),
            (
                "repro_obs_counter", "counter",
                "Raw repro.obs counter registry (solver counters merged "
                "back from pool workers included).",
                ("name",),
                [((name,), value) for name, value in counters.items()],
            ),
        ]
        if admission:
            derived += [
                (
                    "repro_admission_utilisation_ratio", "gauge",
                    "Admitted-but-unfinished backlog as a fraction of "
                    "capacity.",
                    (), [((), admission.get("utilisation", 0.0))],
                ),
                (
                    "repro_admission_inflight_units", "gauge",
                    "Admitted-but-unfinished work, in operation units.",
                    (), [((), admission.get("inflight_units", 0.0))],
                ),
                (
                    "repro_admission_decisions_total", "counter",
                    "Admission controller verdicts.",
                    ("decision",),
                    [
                        ((decision,), admission.get(decision, 0))
                        for decision in ("admitted", "rejected", "shed")
                    ],
                ),
                (
                    "repro_completed_work_units_total", "counter",
                    "Work units released back to the pool after "
                    "completion.",
                    (), [((), admission.get("completed_units", 0.0))],
                ),
            ]
            budget = admission.get("budget")
            if budget:
                derived += [
                    (
                        "repro_budget_capacity_units", "gauge",
                        "The fleet-wide admission budget this shard "
                        "leases from.",
                        (), [((), budget.get("budget_units", 0.0))],
                    ),
                    (
                        "repro_budget_leased_units", "gauge",
                        "Units currently leased across the fleet (as this "
                        "shard last saw the ledger).",
                        (), [((), budget.get("leased_units", 0.0))],
                    ),
                ]
        lookups = [
            (("hit",), cache.get("hits", 0)),
            (("miss",), cache.get("misses", 0)),
        ]
        if "disk_hits" in cache:
            lookups.append((("disk_hit",), cache["disk_hits"]))
        derived += [
            (
                "repro_cache_lookups_total", "counter",
                "Result-cache lookups by outcome.",
                ("outcome",), lookups,
            ),
            (
                "repro_cache_entries", "gauge",
                "Result-cache entries currently held.",
                (), [((), cache.get("entries", 0))],
            ),
            (
                "repro_service_info", "gauge",
                "Static server identity (value is always 1).",
                ("policy", "workers"),
                [((info.get("policy"), info.get("workers")), 1)],
            ),
            (
                "repro_uptime_seconds", "gauge",
                "Seconds since the server started.",
                (), [((), time.time() - self.started_at)],
            ),
            (
                "repro_last_request", "gauge",
                "Most recent request id per (endpoint, status); the value "
                "is its unix timestamp.  Replace semantics keep "
                "cardinality bounded.",
                ("endpoint", "status", "req_id"),
                [
                    ((endpoint, status, req_id), t)
                    for (endpoint, status), (req_id, t) in last
                ],
            ),
        ]
        return families + [_family(*spec) for spec in derived]


def _family(
    name: str,
    kind: str,
    help: str,
    labelnames: tuple[str, ...],
    rows: list[tuple[tuple[Any, ...], float]],
) -> Family:
    """One derived family, its samples sorted by label values."""
    keyed = sorted(
        (tuple(str(value) for value in values), value) for values, value in rows
    )
    return Family(
        name,
        kind,
        help,
        [Sample(name, tuple(zip(labelnames, key)), value) for key, value in keyed],
    )
