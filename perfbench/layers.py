"""Per-layer attribution for traced runs.

Two sources, both read from outside the program:

* :class:`KernelTimer` times every call into the active array kernel
  (the ``repro.kernels.Kernel`` interface) from the benchmark side, by
  shadowing the kernel instance's op methods for the traced run only.
* :func:`served_layers` splits served requests into stages using the
  spans the server already records (``service.request``,
  ``service.admission``, ``service.batch``, ``service.solve.worker``)
  plus the latency each client measured, joined on the request id.

Metric names and units are those of ``BENCHMARK.json``; a traced run
reports 0 for a layer its workload does not reach.
"""

from __future__ import annotations

import time

from repro.kernels import Kernel

#: Solver work counters summed into each per-op count metric.
_COUNTER_GROUPS = {
    "bb_nodes": ("branch_and_bound.nodes",),
    "dp_cells": ("dp_cycles.cells", "dp_penalty.cells", "fptas.cells"),
    "frontier_states": ("pareto_exact.states",),
}


def counter_metrics(counters: dict, ops: int) -> dict[str, float]:
    """Per-op solver work counts from a counter snapshot over *ops* ops."""
    return {
        metric: sum(counters.get(name, 0) for name in names) / max(ops, 1)
        for metric, names in _COUNTER_GROUPS.items()
    }


class KernelTimer:
    """Accumulate wall time and calls of every op on one kernel instance.

    Only the outermost op call is timed, so an op implemented through
    another op is not counted twice.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.seconds = 0.0
        self.calls = 0
        self._depth = 0
        self._ops = sorted(Kernel.__abstractmethods__)

    def _wrap(self, op):
        def timed(*args, **kwargs):
            if self._depth:
                return op(*args, **kwargs)
            self._depth = 1
            start = time.perf_counter()
            try:
                return op(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self.calls += 1
                self._depth = 0

        return timed

    def __enter__(self) -> "KernelTimer":
        for name in self._ops:
            setattr(self.kernel, name, self._wrap(getattr(self.kernel, name)))
        return self

    def __exit__(self, *exc) -> None:
        for name in self._ops:
            delattr(self.kernel, name)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def served_layers(
    records: list[dict], latencies: dict[str, float], hits: set[str]
) -> dict[str, float]:
    """Stage breakdown of served ``/solve`` requests, in ms per request.

    *records* are the spans captured while the requests ran,
    *latencies* maps request id to client-measured seconds, and *hits*
    holds the ids answered from the result cache.

    * ``transport_ms``: client latency minus the server's handling span
      (connection, HTTP framing, any router hop, event-loop delay);
    * ``hit_ms``: server handling of a cache hit (parse, key, lookup);
    * ``admission_ms``: the admission decision;
    * ``queue_wait_ms``: a solved request's handling minus admission
      and its batch's round-trip (parse, queueing, batch assembly);
    * ``pool_ipc_ms``: per batch, the round-trip minus the solves
      inside it (pickling, process hand-off, result transfer);
    * ``solve_ms``: one solve inside a worker.
    """
    handled: dict[str, float] = {}
    admission: dict[str, float] = {}
    worker: list[float] = []
    batches: list[tuple[int, float]] = []
    for record in records:
        name = record["name"]
        attrs = record.get("attrs") or {}
        if name == "service.request" and attrs.get("req_id") in latencies:
            handled[attrs["req_id"]] = record["dur"]
        elif name == "service.admission":
            admission[attrs.get("req_id")] = record["dur"]
        elif name == "service.batch":
            batches.append((int(attrs.get("requests", 0)), record["dur"]))
        elif name == "service.solve.worker":
            worker.append(record["dur"])
    solved = [rid for rid in handled if rid not in hits]
    batched = sum(size for size, _ in batches)
    residency = (
        sum(size * dur for size, dur in batches) / batched if batched else 0.0
    )
    queue = _mean(handled[rid] - admission.get(rid, 0.0) for rid in solved)
    return {
        "transport_ms": 1e3 * _mean(latencies[rid] - handled[rid] for rid in handled),
        "hit_ms": 1e3 * _mean(handled[rid] for rid in handled if rid in hits),
        "admission_ms": 1e3 * _mean(admission.values()),
        "queue_wait_ms": 1e3 * max(queue - residency, 0.0) if solved else 0.0,
        "batch_size": batched / len(batches) if batches else 0.0,
        "pool_ipc_ms": 1e3
        * (sum(dur for _, dur in batches) - sum(worker))
        / max(len(batches), 1),
        "solve_ms": 1e3 * _mean(worker),
    }
