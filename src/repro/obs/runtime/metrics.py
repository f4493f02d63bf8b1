"""Labeled metric families behind a thread-safe registry.

The solve service records metrics from the asyncio loop thread, from
``run_in_executor`` callbacks, and (via shipped snapshots) from pool
worker processes, and the shard router aggregates several of these
registries into one fleet exposition.  So the design constraints are:

* every mutation is lock-protected (one lock per metric — the service
  hot path touches two or three metrics per request, and a registry
  -wide lock would serialise unrelated endpoints);
* snapshots are plain JSON-serialisable dicts, so a shard can ship its
  registry through a pipe exactly like the pool ships solver counters;
* :meth:`MetricsRegistry.merge` folds another registry *or* snapshot
  in: counters and histograms sum, gauges sum too (label per-shard
  gauges with a ``shard`` label when summing is not what you want).

Label values are free-form strings; label *names* and metric names are
validated against the Prometheus grammar at creation time so the text
exposition in :mod:`repro.obs.runtime.prometheus` can never emit an
unparseable family.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Iterable, Mapping

from repro.obs.runtime.prometheus import Family, Sample

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "relabel_snapshot",
]

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

# Quarter-decade log-spaced latency bounds from 100us to ~56s: constant
# memory per series no matter how much traffic a server sees.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    10.0 ** (exp / 4.0) for exp in range(-16, 8)
) + (math.inf,)


def _check_name(name: str) -> str:
    if not _METRIC_NAME.match(name):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _check_labelnames(labelnames: Iterable[str]) -> tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_NAME.match(label) or label.startswith("__"):
            raise ValueError(f"invalid label name: {label!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names: {names!r}")
    return names


class _Metric:
    """Shared label handling: one value table keyed by label values."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Iterable[str] = ()):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = _check_labelnames(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, str]) -> tuple[str, ...]:
        # Equal sizes plus every declared name present means equal label
        # sets, without building two sets on every served request.
        if len(labels) == len(self.labelnames):
            try:
                return tuple([str(labels[label]) for label in self.labelnames])
            except KeyError:
                pass
        raise ValueError(
            f"{self.name}: expected labels {self.labelnames!r}, "
            f"got {tuple(sorted(labels))!r}"
        )

    def _labels_dict(self, key: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.labelnames, key))


class Counter(_Metric):
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Iterable[str] = ()):
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up ({amount})")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def series(self) -> list[dict[str, Any]]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            {"labels": self._labels_dict(key), "value": value}
            for key, value in items
        ]

    def _merge(self, series: list[dict[str, Any]]) -> None:
        with self._lock:
            for row in series:
                key = self._key(row["labels"])
                self._values[key] = (
                    self._values.get(key, 0.0) + float(row["value"])
                )

    def collect(self) -> Family:
        return Family(
            name=self.name,
            kind=self.kind,
            help=self.help,
            samples=[
                Sample(
                    name=self.name,
                    labels=tuple(row["labels"].items()),
                    value=row["value"],
                )
                for row in self.series()
            ],
        )


class Gauge(Counter):
    """A value that can go up and down (current queue depth, burn rate)."""

    kind = "gauge"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def remove(self, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values.pop(key, None)


class Histogram(_Metric):
    """Cumulative-bucket histogram per label set.

    Buckets are fixed at construction; the default is the latency grid
    (quarter-decade, 100us..~56s, +Inf).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] | None = None,
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(
            DEFAULT_LATENCY_BUCKETS if buckets is None else buckets
        )
        if not bounds or bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        if list(bounds) != sorted(bounds):
            raise ValueError(f"{name}: bucket bounds must be sorted")
        self.bounds = bounds
        # key -> [per-bucket counts, sum, count]
        self._series: dict[tuple[str, ...], list[Any]] = {}

    def _cell(self, key: tuple[str, ...]) -> list[Any]:
        cell = self._series.get(key)
        if cell is None:
            cell = [[0] * len(self.bounds), 0.0, 0]
            self._series[key] = cell
        return cell

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            counts, _, _ = cell = self._cell(key)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    counts[i] += 1
                    break
            cell[1] += value
            cell[2] += 1

    def series(self) -> list[dict[str, Any]]:
        with self._lock:
            items = sorted(
                (key, [list(cell[0]), cell[1], cell[2]])
                for key, cell in self._series.items()
            )
        return [
            {
                "labels": self._labels_dict(key),
                "counts": counts,
                "sum": total,
                "count": count,
            }
            for key, (counts, total, count) in items
        ]

    def _merge(self, series: list[dict[str, Any]]) -> None:
        with self._lock:
            for row in series:
                key = self._key(row["labels"])
                counts = row["counts"]
                if len(counts) != len(self.bounds):
                    raise ValueError(
                        f"{self.name}: bucket count mismatch "
                        f"({len(counts)} != {len(self.bounds)})"
                    )
                cell = self._cell(key)
                for i, n in enumerate(counts):
                    cell[0][i] += int(n)
                cell[1] += float(row["sum"])
                cell[2] += int(row["count"])

    def quantile(self, q: float, **labels: str) -> float:
        """Interpolated estimate of quantile *q* for one series.

        *q* is clamped into ``[0, 1]``; an empty series reports 0.  The
        result is always finite and never below the lower edge of the
        bucket it lands in: ``q=0`` gives the lower edge of the first
        occupied bucket, ``q=1`` the upper edge of the last, and samples
        in the +Inf bucket report the top finite bound itself rather
        than an extrapolated value — there is no upper edge to
        interpolate toward.
        """
        key = self._key(labels)
        with self._lock:
            cell = self._series.get(key)
            if cell is None or cell[2] == 0:
                return 0.0
            counts, _, count = cell
            target = min(max(q, 0.0), 1.0) * count
            seen = 0
            for i, bound in enumerate(self.bounds):
                n = counts[i]
                if n > 0 and seen + n >= target:
                    lo = 0.0 if i == 0 else self.bounds[i - 1]
                    if math.isinf(bound):
                        return lo
                    return lo + (bound - lo) * (target - seen) / n
                seen += n
        return self.bounds[-2]  # pragma: no cover - defensive

    def collect(self) -> Family:
        samples: list[Sample] = []
        for row in self.series():
            base = tuple(row["labels"].items())
            cumulative = 0
            for bound, n in zip(self.bounds, row["counts"]):
                cumulative += n
                le = "+Inf" if math.isinf(bound) else format(bound, ".10g")
                samples.append(
                    Sample(
                        name=self.name + "_bucket",
                        labels=base + (("le", le),),
                        value=cumulative,
                    )
                )
            samples.append(
                Sample(self.name + "_sum", base, row["sum"])
            )
            samples.append(
                Sample(self.name + "_count", base, row["count"])
            )
        return Family(
            name=self.name, kind=self.kind, help=self.help, samples=samples
        )


def relabel_snapshot(
    snapshot: Mapping[str, Any], **labels: str
) -> dict[str, Any]:
    """A copy of *snapshot* with extra labels prepended to every series.

    The shard aggregation primitive: the router stamps each worker's
    registry snapshot with ``shard="0"``, ``shard="1"``, ... before
    merging, so per-shard series stay disjoint in the fleet registry and
    summed families (``merge`` always sums) decompose exactly into their
    per-shard parts.  Raises on a label name the snapshot already uses —
    silently overwriting a shard's own labels would corrupt the sum.
    """
    extra = _check_labelnames(labels)
    out: dict[str, Any] = {}
    for name, entry in snapshot.items():
        labelnames = tuple(entry["labelnames"])
        clash = set(extra) & set(labelnames)
        if clash:
            raise ValueError(
                f"{name}: relabel collides with existing labels "
                f"{sorted(clash)!r}"
            )
        new_entry = dict(entry)
        new_entry["labelnames"] = list(extra) + list(labelnames)
        new_entry["series"] = [
            {**row, "labels": {**labels, **row["labels"]}}
            for row in entry["series"]
        ]
        out[name] = new_entry
    return out


class MetricsRegistry:
    """An ordered collection of metrics with snapshot/merge/collect."""

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> Any:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if (
                    type(existing) is not type(metric)
                    or existing.labelnames != metric.labelnames
                ):
                    raise ValueError(
                        f"metric {metric.name!r} already registered "
                        "with a different type or label set"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(
        self, name: str, help: str, labelnames: Iterable[str] = ()
    ) -> Counter:
        return self._register(Counter(name, help, labelnames))

    def gauge(
        self, name: str, help: str, labelnames: Iterable[str] = ()
    ) -> Gauge:
        return self._register(Gauge(name, help, labelnames))

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] | None = None,
    ) -> Histogram:
        return self._register(Histogram(name, help, labelnames, buckets))

    def get(self, name: str) -> Any | None:
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> list[Family]:
        with self._lock:
            metrics = list(self._metrics.values())
        return [metric.collect() for metric in metrics]

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable dump, suitable for shipping across shards."""
        out: dict[str, Any] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            entry: dict[str, Any] = {
                "type": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "series": metric.series(),
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = [
                    "+Inf" if math.isinf(b) else b for b in metric.bounds
                ]
            out[metric.name] = entry
        return out

    def merge(self, other: "MetricsRegistry | Mapping[str, Any]") -> None:
        """Fold another registry (or its snapshot) into this one.

        Counters, gauges, and histograms all *sum*; unknown families
        are created on the fly, so an empty aggregator registry can
        absorb N shard snapshots and expose the fleet view.
        """
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for name, entry in sorted(snap.items()):
            kind = entry["type"]
            if kind not in self._KINDS:
                raise ValueError(f"{name}: unknown metric type {kind!r}")
            labelnames = tuple(entry["labelnames"])
            if kind == "histogram":
                bounds = tuple(
                    math.inf if b == "+Inf" else float(b)
                    for b in entry.get("buckets", ())
                )
                metric = self.histogram(
                    name, entry.get("help", ""), labelnames,
                    bounds or None,
                )
            elif kind == "gauge":
                metric = self.gauge(name, entry.get("help", ""), labelnames)
            else:
                metric = self.counter(name, entry.get("help", ""), labelnames)
            metric._merge(entry["series"])
