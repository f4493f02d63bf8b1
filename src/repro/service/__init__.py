"""repro.service — a solve server with admission control.

The serving layer maps each incoming solve request onto the paper's own
task model (estimated work = cycles, client weight = rejection penalty)
and runs a real :class:`~repro.core.rejection.online.OnlinePolicy` as
the admission controller: overload produces principled ``429`` rejection
— density-ordered shedding, exactly like the offline heuristics — and
never unbounded queueing.  Admitted requests are solved inline when
cheap, else dispatched one by one onto the persistent worker pool
shared with the experiment runner, and repeated instances are answered
from a content-addressed cache keyed like the runner's on-disk cache.

At fleet scale (``repro serve --shards N``) the same admission stays
*global*: per-shard controllers lease capacity from one fleet-wide
budget ledger, shards share a :class:`~repro._store.JsonStore` disk
cache tier, and a front-door router merges per-shard telemetry into one
``shard``-labeled exposition — see :mod:`repro.service.shard`.

Entry points: ``repro serve`` (the server) and ``repro bench-serve``
(the seeded open/closed-loop load generator; ``--shards`` runs the
fleet saturation sweep).  See ``docs/service.md``.
"""

from repro.service.admission import AdmissionController, AdmissionDecision
from repro.service.cache import ResultCache
from repro.service.loadgen import PassStats, run_load
from repro.service.models import (
    SOLVER_NAMES,
    RequestError,
    SolveRequest,
    estimate_cost,
    parse_solve_request,
)
from repro.service.server import SolveService
from repro.service.shard import GlobalBudget, LocalFleet, ShardRouter

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "GlobalBudget",
    "LocalFleet",
    "PassStats",
    "RequestError",
    "ResultCache",
    "SOLVER_NAMES",
    "ShardRouter",
    "SolveRequest",
    "SolveService",
    "estimate_cost",
    "parse_solve_request",
    "run_load",
]
