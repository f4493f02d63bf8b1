"""Horizontally sharded serving: router, fleet, and the global budget.

The paper's admission policy is a *single* global decision rule; this
subpackage keeps it that way at fleet scale (ROADMAP item 2):

``budget``
    :class:`GlobalBudget`, the fleet-wide capacity ledger every
    shard's admission controller leases from.
``router``
    The front door, calling each shard's handler directly:
    round-robin ``/solve`` fan-out, shard-affine
    ``/result`` routing, aggregated ``/healthz``, and the merged
    ``shard``-labeled ``/metrics`` exposition.
``fleet``
    :class:`LocalFleet` wires N shards + budget + shared disk cache +
    router into one loop (``repro serve --shards N``), the one sharded
    topology; :class:`ThreadedFleet` hosts it for synchronous callers.
``bench``
    The saturation bench behind ``repro bench-serve --shards``: offered
    load vs p50/p99/throughput/rejection at 1/2/4 shards →
    ``BENCH_serve.json``.
"""

from __future__ import annotations

from repro.service.shard.budget import GlobalBudget
from repro.service.shard.fleet import LocalFleet, ThreadedFleet
from repro.service.shard.router import ShardRouter

__all__ = ["GlobalBudget", "LocalFleet", "ShardRouter", "ThreadedFleet"]
