"""What every workload hands back, and how its timings are normalised.

Shared machines change CPU speed by up to 2x as neighbouring jobs come
and go.  On a 2-CPU virtual machine each CPU was seen to switch on its
own, every one to ten seconds, between two speeds 1.6x apart (a
neighbour on the other hardware thread of its core, most likely).  Raw
times would then move with the neighbours more than with the program.
So every run also times a fixed piece of pure-Python work, the *probe*
(integer arithmetic, a sort and a JSON round-trip, the kinds of work
the program does), every :data:`PROBE_EVERY_S` seconds with the loop's
clock stopped, and every time the benchmark reports is scaled to the
speed at which one probe takes :data:`PROBE_REF_S`: a duration
measured while the probe ran twice as slow as that is reported at half
its length.  Between two probes the speed is taken to be their mean.
A change to the program moves its own times and not the probe's, so
it still shows in full.

The probe keeps its best of two tries, so it does not see the time
the hypervisor gives this machine's CPUs to other machines (*steal*,
up to a quarter of it in busy hours), which the program does lose.
Times are therefore also scaled by the share of CPU time not stolen
while they were measured, read from ``/proc/stat`` where there is one.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: The probe's fixed input: about 2 kB of JSON, like a small request.
_PROBE_DOC = {
    "tasks": [
        {"name": f"t{i}", "cycles": 0.1 + i / 7, "penalty": 0.3 + i / 11}
        for i in range(24)
    ]
}

#: The probe duration times are normalised to, in seconds (about one
#: probe on an uncontended core of the machine the benchmark was tuned
#: on).
PROBE_REF_S = 0.001

#: Seconds between probes during a timed loop: short against the
#: machine's speed phases.  Served latency quantiles are taken over
#: windows of this length too.
PROBE_EVERY_S = 0.25


def _probe_once() -> None:
    total = 0
    for i in range(4_000):
        total += i * i
    sorted((i * 7919) % 1009 for i in range(2_000))
    for _ in range(5):
        json.loads(json.dumps(_PROBE_DOC))


def _best_of(repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        _probe_once()
        best = min(best, time.perf_counter() - start)
    return best


def _stolen_ticks() -> int:
    """Clock ticks stolen so far from the CPUs this process may use
    (0 without ``/proc/stat``)."""
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    try:
        with open("/proc/stat") as stat:
            lines = stat.readlines()
    except OSError:
        return 0
    total = 0
    for line in lines:
        fields = line.split()
        cpu = fields[0][3:] if fields and fields[0].startswith("cpu") else ""
        if cpu.isdigit() and len(fields) > 8 and (allowed is None or int(cpu) in allowed):
            total += int(fields[8])
    return total


class Steal:
    """Measures the share of CPU time stolen since it was made."""

    _HZ = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.ticks = _stolen_ticks()

    def share(self) -> float:
        cpus = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        capacity = (time.perf_counter() - self.start) * self._HZ * cpus
        stolen = _stolen_ticks() - self.ticks
        return min(max(stolen / capacity, 0.0), 0.9) if capacity > 0 else 0.0


@contextmanager
def one_cpu(enabled: bool):
    """Run the block pinned to one CPU when *enabled* (and the platform
    can pin): a loop that runs in one process then stays on the CPU its
    probes measure, instead of migrating between CPUs whose speeds
    differ.  Worker processes started earlier keep every CPU."""
    if not enabled or not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def probe(every_cpu: bool) -> float:
    """Seconds one probe takes right now.

    Neighbours slow each CPU separately.  A workload whose time goes to
    one process is probed where that process runs (*every_cpu* false;
    see :func:`one_cpu`).  A workload that spreads over worker
    processes is probed pinned to each allowed CPU in turn, and gets
    the time at their mean speed.
    """
    if not every_cpu or not hasattr(os, "sched_setaffinity"):
        return _best_of(2)
    allowed = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            speeds.append(1.0 / _best_of(2))
    finally:
        os.sched_setaffinity(0, allowed)
    return len(speeds) / sum(speeds)


@dataclass
class Outcome:
    """One timed loop.

    ``latencies[i]`` is the seconds operation *i* took (a solve, an
    experiment run or an HTTP request), ``stamps[i]`` when it
    completed, in seconds since the loop started, and ``keys[i]`` the
    input it ran when inputs repeat within a run; ``probes`` holds
    ``(stamp, probe seconds)`` pairs on the same clock, probed on every
    CPU when *every_cpu* (see :func:`probe`).  ``elapsed`` is
    the wall time of the loop, ``stolen`` the share of CPU time stolen
    during it (see :class:`Steal`), ``failed`` the operations that did not
    complete successfully, ``problems`` every correctness failure seen
    while running, and ``layers`` the per-layer metrics of a traced run.
    """

    every_cpu: bool = False
    start: float = field(default_factory=time.perf_counter)
    latencies: list[float] = field(default_factory=list)
    stamps: list[float] = field(default_factory=list)
    keys: list[int] = field(default_factory=list)
    probes: list[tuple[float, float]] = field(default_factory=list)
    elapsed: float = 0.0
    stolen: float = 0.0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    steal: Steal = field(default_factory=Steal, repr=False)

    def record(self, started: float, finished: float, key: int | None = None) -> None:
        """Record one operation from its ``perf_counter`` endpoints."""
        self.latencies.append(finished - started)
        self.stamps.append(finished - self.start)
        if key is not None:
            self.keys.append(key)

    def sample_speed(self) -> None:
        """Run the probe once and keep its time, with the loop's clock
        stopped: the probe's own time is left out of ``stamps`` and
        ``elapsed``.  No operation may be in flight."""
        paused = time.perf_counter()
        self.probes.append((paused - self.start, probe(self.every_cpu)))
        self.start += time.perf_counter() - paused

    def probe_due(self) -> bool:
        """Whether :data:`PROBE_EVERY_S` has passed since the last probe."""
        if not self.probes:
            return True
        return time.perf_counter() - self.start >= self.probes[-1][0] + PROBE_EVERY_S

    def finish(self) -> None:
        self.elapsed = time.perf_counter() - self.start
        self.stolen = self.steal.share()

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed


def quantile(values: list[float], q: float) -> float:
    """The *q*-quantile of *values* (nearest rank)."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def probe_scale(outcome: Outcome) -> float:
    """Factor from the run's seconds to reference seconds, at the run's
    median probe and steal (for per-layer figures)."""
    median = statistics.median(seconds for _, seconds in outcome.probes)
    return PROBE_REF_S / median * (1 - outcome.stolen)


class _Speed:
    """Reference seconds per second of loop time, piecewise between
    the loop's probes: the mean of the two probes around a time, or the
    nearest probe before the first and after the last."""

    def __init__(self, probes: list[tuple[float, float]]) -> None:
        self.stamps = [stamp for stamp, _ in probes]
        seconds = [probe for _, probe in probes]
        means = [(a + b) / 2 for a, b in zip(seconds, seconds[1:])]
        self.factors = [PROBE_REF_S / s for s in [seconds[0], *means, seconds[-1]]]

    def at(self, stamp: float) -> float:
        return self.factors[bisect.bisect_right(self.stamps, stamp)]

    def reference_seconds(self, end: float) -> float:
        """Reference length of the loop time ``[0, end]``."""
        edges = [0.0, *(min(max(s, 0.0), end) for s in self.stamps), end]
        return sum(f * (b - a) for f, a, b in zip(self.factors, edges, edges[1:]))


def summarise(outcome: Outcome) -> dict[str, float]:
    """Throughput and latency quantiles of one loop at reference speed.

    Each operation is scaled by the speed at its midpoint and by the
    run's share of CPU time not stolen.  When inputs repeat (``keys``),
    each input contributes the median of its repeats, so one preempted
    solve does not move the tail.

    Otherwise the p50 is taken over every operation, and the p95 in
    each whole :data:`PROBE_EVERY_S` window (by when the operation
    started), reporting the median over the windows.  The few windows
    in which the speed changed between their two probes fill the pooled
    tail, but barely move that median.
    """
    speed = _Speed(outcome.probes)
    kept = 1 - outcome.stolen
    throughput = len(outcome.latencies) / (
        speed.reference_seconds(outcome.elapsed) * kept
    )
    latencies = [
        latency * speed.at(stamp - latency / 2) * kept
        for stamp, latency in zip(outcome.stamps, outcome.latencies)
    ]
    groups: dict[int, list[float]] = {}
    if outcome.keys:
        for key, latency in zip(outcome.keys, latencies):
            groups.setdefault(key, []).append(latency)
        pooled = [statistics.median(values) for values in groups.values()]
        p50, p95 = quantile(pooled, 0.50), quantile(pooled, 0.95)
    else:
        whole = int(outcome.elapsed // PROBE_EVERY_S)
        for stamp, raw, latency in zip(outcome.stamps, outcome.latencies, latencies):
            window = int((stamp - raw) // PROBE_EVERY_S)
            if window < whole:
                groups.setdefault(window, []).append(latency)
        windows = list(groups.values()) or [latencies]
        p50 = quantile([latency for window in windows for latency in window], 0.50)
        p95 = statistics.median(quantile(window, 0.95) for window in windows)
    return {
        "throughput_ops_s": throughput,
        "latency_p50_ms": 1e3 * p50,
        "latency_p95_ms": 1e3 * p95,
    }
