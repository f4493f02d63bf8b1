"""Labeled metric families behind a thread-safe registry.

The solve service records metrics from the asyncio loop thread and
from ``run_in_executor`` callbacks, so every mutation is
lock-protected: one lock per metric, because the service hot path
touches two or three metrics per request and a registry-wide lock
would serialise unrelated endpoints.

Exposition is a direct read: :meth:`MetricsRegistry.collect` returns
each metric's live series as a :class:`~repro.obs.runtime.prometheus
.Family`, samples in label order.  The fleet router reads each shard's
families the same way and prefixes a ``shard`` label; nothing is
serialised or merged on the way.

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


class MetricsRegistry:
    """An ordered collection of metrics, collected as families."""

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
