"""Runtime telemetry for the serving and simulation stack.

:mod:`repro.obs` (PR 3) instruments the *offline* solver stack — spans,
summing counters, run manifests.  This subpackage is the *runtime*
layer the solve service, load generator, and arrival simulator share:

``metrics``
    Labeled counter/gauge/histogram families behind a thread-safe
    :class:`MetricsRegistry`; ``collect()`` reads them as live
    families, which the shard router labels per shard.
``prometheus``
    Text exposition (format 0.0.4) with stable ordering, escaped
    labels, and cumulative histogram buckets.
``timeseries``
    A lock-protected ring buffer of periodic samples, the data source
    for rate displays in ``repro top``.
``slo``
    Rolling-window latency/availability objectives with burn-rate
    computation; one summary schema shared by ``bench-serve`` and
    ``repro sim`` so paired comparisons can report SLO drift.
``top``
    The stdlib-only live terminal dashboard behind ``repro top``.

Everything here is stdlib-only and importable without numpy.
"""

from __future__ import annotations

from repro.obs.runtime.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.runtime.prometheus import Family, Sample, render
from repro.obs.runtime.slo import (
    DEFAULT_SLOS,
    SloObjective,
    SloResult,
    SloTracker,
    format_slo_line,
    parse_slo_line,
    summarize_slo,
)
from repro.obs.runtime.timeseries import TimeSeriesRing
from repro.obs.runtime.top import fetch_snapshot, render_frame, run_top

__all__ = [
    "Counter",
    "DEFAULT_SLOS",
    "Family",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sample",
    "SloObjective",
    "SloResult",
    "SloTracker",
    "TimeSeriesRing",
    "fetch_snapshot",
    "format_slo_line",
    "parse_slo_line",
    "render",
    "render_frame",
    "run_top",
    "summarize_slo",
]
