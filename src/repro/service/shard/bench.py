"""The fleet saturation bench (``repro bench-serve --shards``).

The measurement the paper's claim turns on at fleet scale: drive a
sharded fleet with open-loop offered load *below, at, and past* its
measured capacity and show p99 stays inside the SLO **because** the
rejection rate rises to absorb the excess — the serving analogue of the
acceptance-ratio sweeps.

Protocol
--------
1. **Probe**: a short closed-loop pass against a 1-shard fleet measures
   sustainable end-to-end throughput (HTTP + admission + pool included —
   honest against the whole stack, unlike a bare worker calibration).
2. **Sweep**: for every ``shards × factor`` point, a fresh fleet with a
   fleet-wide :class:`~repro.service.shard.budget.GlobalBudget` takes
   open-loop traffic at ``factor × probe`` rps; each point uses its own
   seed so the content cache never flatters later points.
3. **Report**: per-point p50/p99 (service time — the open-loop fix in
   :mod:`repro.service.loadgen` keeps generator backlog out of it),
   throughput, rejection rate, client-observed SLO verdicts, and the
   fleet counter invariant, printed as grep-able lines and written to
   ``BENCH_serve.json`` atomically.

In-process shards share one worker pool, so the *compute* capacity is
constant across shard counts — which is exactly what makes the curve
informative: the global budget must make 1, 2, and 4 shards reject like
one paper-faithful controller instead of over-admitting N×.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

from repro._store import atomic_write_json
from repro.obs.runtime.slo import DEFAULT_SLOS, format_slo_line
from repro.service.loadgen import (
    format_stats,
    http_json,
    make_bodies,
    run_load,
    slo_results,
)
from repro.service.models import estimate_cost
from repro.service.shard.fleet import ThreadedFleet

#: Effectively-unbounded admission for the probe fleet: the probe
#: measures raw sustainable throughput, so admission must not bite.
_UNBOUNDED = 1e12

__all__ = ["run_saturation"]

#: BENCH_serve.json schema version.
BENCH_FORMAT = 1

#: The solve.total partition pinned by the single-process tests; the
#: bench re-checks it on the *fleet* counters at every point.
_INVARIANT_PARTS = (
    "cached", "admitted", "rejected", "invalid", "unavailable"
)


def _fleet_counters(host: str, port: int) -> dict:
    """The router's summed ``/metrics?format=json`` counter registry."""

    async def fetch() -> dict:
        status, payload = await http_json(
            host, port, "GET", "/metrics?format=json"
        )
        if status != 200 or not isinstance(payload, dict):
            return {}
        counters = payload.get("counters", {})
        return counters if isinstance(counters, dict) else {}

    return asyncio.run(fetch())


def _invariant(counters: dict) -> dict:
    total = counters.get("service.solve.total", 0)
    parts = {
        name: counters.get(f"service.solve.{name}", 0)
        for name in _INVARIANT_PARTS
    }
    return {
        "solve_total": total,
        **parts,
        "holds": total == sum(parts.values()),
    }


def _probe_rps(
    *, seed: int, requests: int, workers: int, concurrency: int
) -> float:
    """Sustainable closed-loop throughput of an unconstrained fleet.

    The probe must *saturate* the stack — it runs at the sweep's own
    concurrency, so "factor 2.0" really is twice what the fleet can
    complete and the budget genuinely binds past saturation.
    """
    with ThreadedFleet(
        shards=1,
        workers=workers,
        capacity_units=_UNBOUNDED,
        rate_units_per_s=_UNBOUNDED,
    ) as fleet:
        stats = run_load(
            fleet.host,
            fleet.port,
            requests=requests,
            seed=seed,
            passes=1,
            mode="closed",
            concurrency=concurrency,
        )[0]
    if stats.ok == 0:
        raise RuntimeError(
            "saturation probe got no successful responses; "
            f"{format_stats(stats)}"
        )
    return stats.throughput_rps


def _mean_units(seed: int, requests: int) -> float:
    """Mean admission cost of the seeded request stream, in units."""
    bodies = make_bodies(seed, requests)
    costs = [
        estimate_cost(len(body["instance"]["tasks"]), body["algorithm"])
        for body in bodies
    ]
    return sum(costs) / len(costs)


def run_saturation(
    *,
    shard_counts: tuple[int, ...] = (1, 2, 4),
    factors: tuple[float, ...] = (0.5, 1.0, 2.0),
    seed: int = 0,
    duration_s: float = 2.0,
    probe_requests: int = 80,
    workers: int = 1,
    window_s: float = 0.05,
    concurrency: int = 32,
    out: Path | str | None = None,
    slos=None,
) -> dict:
    """The saturation sweep; returns (and optionally writes) the report.

    Parameters
    ----------
    shard_counts, factors:
        The sweep grid: every fleet size × offered-load multiple of the
        probed capacity.
    duration_s:
        Target wall time per point (requests = rate × duration).
    workers:
        Worker processes (shared across in-process shards).
    window_s:
        Per-shard admission window.  This bounds the backlog an
        admitted request can wait behind, which is what keeps p99
        inside the latency SLO while rejection absorbs the overload —
        the acceptance criterion the shard-smoke job pins.
    out:
        Write the JSON report here (atomically) when given.
    """
    if not shard_counts or not factors:
        raise ValueError("shard_counts and factors must be non-empty")
    if not duration_s > 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    objectives = tuple(slos) if slos else DEFAULT_SLOS
    probe = _probe_rps(
        seed=seed,
        requests=probe_requests,
        workers=workers,
        concurrency=concurrency,
    )
    mean_units = _mean_units(seed, probe_requests)
    # One paper-faithful budget for every fleet size: window_s worth of
    # the probed capacity, in the same units the controller charges.
    # Each shard's local gate could hold the whole budget alone; the
    # global ledger is what keeps N shards honest together.
    total_units_per_s = probe * mean_units
    budget_units = total_units_per_s * window_s
    fleet_kwargs = dict(
        workers=workers,
        window_s=window_s,
        capacity_units=budget_units,
        rate_units_per_s=total_units_per_s,
        budget_units=budget_units,
    )
    # The generator must be able to hold a full budget's worth of
    # admitted requests in flight *and* keep offering (to be rejected)
    # past it — otherwise its own connection pool back-pressures and
    # the "open" loop silently degrades to a closed one that can never
    # overload the fleet.
    sweep_concurrency = max(
        concurrency, int(2 * budget_units / mean_units) + 17
    )
    print(
        f"saturation probe: sustainable throughput {probe:.1f} req/s "
        f"(mean cost {mean_units:.1f} units, "
        f"fleet budget {budget_units:.0f} units, "
        f"sweep concurrency {sweep_concurrency})"
    )
    points = []
    point_seed = seed
    for shards in shard_counts:
        for factor in factors:
            point_seed += 1
            rate = max(factor * probe, 1.0)
            requests = max(int(rate * duration_s), 10)
            with ThreadedFleet(shards=shards, **fleet_kwargs) as fleet:
                stats = run_load(
                    fleet.host,
                    fleet.port,
                    requests=requests,
                    seed=point_seed,
                    passes=1,
                    mode="open",
                    rate=rate,
                    concurrency=sweep_concurrency,
                )[0]
                counters = _fleet_counters(fleet.host, fleet.port)
            slo = slo_results([stats], objectives)
            invariant = _invariant(counters)
            point = {
                "shards": shards,
                "factor": factor,
                "offered_rps": rate,
                "requests": requests,
                "throughput_rps": stats.throughput_rps,
                "ok": stats.ok,
                "rejected": stats.rejected,
                "reject_rate": stats.reject_rate,
                "p50_ms": stats.quantile_ms(0.5),
                "p99_ms": stats.quantile_ms(0.99),
                "queue_p99_ms": stats.queue_quantile_ms(0.99),
                "slo": [result.as_dict() for result in slo],
                "invariant": invariant,
            }
            points.append(point)
            print(
                f"saturation shards={shards} factor={factor:g} "
                f"offered_rps={rate:.1f} "
                f"throughput_rps={stats.throughput_rps:.1f} "
                f"reject_rate={stats.reject_rate:.3f} "
                f"p50_ms={stats.quantile_ms(0.5):.1f} "
                f"p99_ms={stats.quantile_ms(0.99):.1f} "
                f"queue_p99_ms={stats.queue_quantile_ms(0.99):.1f} "
                f"invariant={'ok' if invariant['holds'] else 'BROKEN'}"
            )
            for result in slo:
                print(format_slo_line(result))
    report = {
        "format": BENCH_FORMAT,
        "bench": "serve-saturation",
        "seed": seed,
        "workers": workers,
        "window_s": window_s,
        "duration_s": duration_s,
        "probe_rps": probe,
        "shard_counts": list(shard_counts),
        "factors": list(factors),
        "points": points,
    }
    if out is not None:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(out, report, indent=2)
        print(f"wrote {out}")
    return report
