"""Load generator for the solve server (``repro bench-serve``).

Drives a running ``repro serve`` with a seeded stream of random
instances and reports throughput, latency percentiles, and the
reject/cache mix — the serving analogue of the paper's acceptance-ratio
sweeps.  Every mode is one scheduled pass (:func:`_pass`): *k* workers
take requests in index order over persistent keep-alive connections,
each request either goes out at once or waits for its fire time, and a
request that gets no answer is a transport error (the worker reconnects
for its next one).  The modes differ only in *k* and the schedule:

* **closed loop** (default): ``concurrency`` workers, no schedule — the
  next request goes out as soon as the previous one answers; measures
  sustainable throughput;
* **open loop**: ``concurrency`` workers, request *i* fires at
  ``i / rate`` regardless of completions — the tool for demonstrating
  overload (arrival rate > measured capacity ⇒ the admission policy
  must shed with 429s).  Every request records *service time* (send →
  response) separately from *queue wait* (how far behind its scheduled
  fire time it actually went out).  ``latencies_s`` — and therefore the
  reported p50/p99 — is the service time, so a saturated target shows
  the true server latency while ``queue_p99_ms`` exposes the local
  backlog the generator built up;
* **sequential replay** (:func:`run_replay`): one worker, no schedule,
  so the server sees the trace's arrivals in order;
* **timed replay**: one worker per trace entry, entry fires at
  ``t / speedup``.

Everything is derived from ``--seed``: the same seed produces the same
instance payloads in the same order, so a second pass over the same
seed is answered from the server's content-addressed cache — the CI
smoke asserts exactly that.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any

try:  # NumPy is optional: only make_bodies() draws from it.  Trace
    import numpy as np  # replay (run_replay) must work without it.
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None

from repro.obs.runtime.slo import (
    DEFAULT_SLOS,
    SloObjective,
    SloResult,
    summarize_slo,
)
from repro.service.http import read_response, send_request

__all__ = [
    "PassStats",
    "ReplayOutcome",
    "format_stats",
    "http_exchange",
    "make_bodies",
    "run_load",
    "run_replay",
    "slo_results",
]


@dataclass
class PassStats:
    """Outcome of one load pass."""

    pass_no: int
    requests: int
    elapsed_s: float
    ok: int = 0
    rejected: int = 0
    client_errors: int = 0
    server_errors: int = 0
    cache_hits: int = 0
    transport_errors: int = 0
    #: Service time (just-before-send → response) per answered request.
    latencies_s: list[float] = field(default_factory=list)
    #: Open-loop only: how late each request fired vs its schedule —
    #: the load generator's *local* queueing, kept out of the latency
    #: percentiles so a saturated target reports true server p99.
    queue_waits_s: list[float] = field(default_factory=list)
    #: SLO samples ``(ok, latency_s | None)`` in the shared schema of
    #: :mod:`repro.obs.runtime.slo` — 429s are excluded (admission
    #: policy, not an outage), 200s carry a latency, 5xx/transport
    #: count as availability failures.
    slo_samples: list[tuple[bool, float | None]] = field(
        default_factory=list
    )

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of wall time."""
        return self.requests / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def reject_rate(self) -> float:
        """Fraction of requests answered 429."""
        return self.rejected / self.requests if self.requests else 0.0

    def quantile_ms(self, q: float) -> float:
        """Exact client-side service-time quantile in milliseconds."""
        return _quantile_ms(self.latencies_s, q)

    def queue_quantile_ms(self, q: float) -> float:
        """Open-loop local queue-wait quantile in milliseconds."""
        return _quantile_ms(self.queue_waits_s, q)

    def record(
        self,
        status: int,
        payload: dict,
        latency_s: float,
        queue_wait_s: float | None = None,
    ) -> None:
        """One answered request: latency + status mix + SLO sample."""
        self.latencies_s.append(latency_s)
        if queue_wait_s is not None:
            self.queue_waits_s.append(queue_wait_s)
        _classify(self, status, payload)
        if status == 429:
            return
        self.slo_samples.append(
            (status < 500, latency_s if status == 200 else None)
        )

    def record_transport_error(self) -> None:
        """A request that never got an answer (availability failure)."""
        self.transport_errors += 1
        self.slo_samples.append((False, None))

    def as_dict(self) -> dict:
        """JSON-ready summary (no raw samples)."""
        return {
            "pass": self.pass_no,
            "requests": self.requests,
            "elapsed_s": self.elapsed_s,
            "throughput_rps": self.throughput_rps,
            "ok": self.ok,
            "rejected": self.rejected,
            "reject_rate": self.reject_rate,
            "client_errors": self.client_errors,
            "server_errors": self.server_errors,
            "transport_errors": self.transport_errors,
            "cache_hits": self.cache_hits,
            "p50_ms": self.quantile_ms(0.5),
            "p99_ms": self.quantile_ms(0.99),
            "queue_p50_ms": self.queue_quantile_ms(0.5),
            "queue_p99_ms": self.queue_quantile_ms(0.99),
        }


def _quantile_ms(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(int(math.ceil(q * len(ordered))) - 1, len(ordered) - 1)
    return ordered[max(idx, 0)] * 1e3


def format_stats(stats: PassStats) -> str:
    """One human-readable summary line per pass (stable, grep-friendly)."""
    return (
        f"pass {stats.pass_no}: {stats.requests} requests in "
        f"{stats.elapsed_s:.2f}s  throughput={stats.throughput_rps:.1f} req/s"
        f"  ok={stats.ok} rejected={stats.rejected} "
        f"4xx={stats.client_errors} 5xx={stats.server_errors} "
        f"transport_errors={stats.transport_errors} "
        f"cache_hits={stats.cache_hits}  "
        f"p50={stats.quantile_ms(0.5):.1f}ms p99={stats.quantile_ms(0.99):.1f}ms"
        + (
            f" queue_p99={stats.queue_quantile_ms(0.99):.1f}ms"
            if stats.queue_waits_s
            else ""
        )
    )


def make_bodies(
    seed: int,
    count: int,
    *,
    algorithm: str = "greedy_marginal",
    eps: float = 0.1,
    n_min: int = 6,
    n_max: int = 12,
) -> list[dict[str, Any]]:
    """The seeded request-body stream (same seed ⇒ same bodies)."""
    from repro.core.rejection import RejectionProblem
    from repro.energy import ContinuousEnergyFunction
    from repro.io import instance_to_dict
    from repro.power import xscale_power_model
    from repro.tasks import frame_instance

    if np is None:  # pragma: no cover - exercised by the no-numpy CI job
        raise RuntimeError(
            "make_bodies requires numpy (frame_instance is numpy-seeded); "
            "use a repro sim trace with bench-serve --replay instead"
        )
    rng = np.random.default_rng(seed)
    energy_fn = ContinuousEnergyFunction(xscale_power_model(), deadline=1.0)
    bodies: list[dict[str, Any]] = []
    for _ in range(count):
        n = int(rng.integers(n_min, n_max + 1))
        load = float(rng.uniform(0.8, 2.2))
        problem = RejectionProblem(
            tasks=frame_instance(rng, n_tasks=n, load=load),
            energy_fn=energy_fn,
        )
        bodies.append(
            {
                "instance": instance_to_dict(problem),
                "algorithm": algorithm,
                "eps": eps,
                "weight": float(rng.uniform(0.5, 2.0)),
                "deadline_s": 30.0,
            }
        )
    return bodies


async def http_exchange(
    host: str,
    port: int,
    method: str,
    path: str,
    body: dict | None = None,
    *,
    reader: asyncio.StreamReader | None = None,
    writer: asyncio.StreamWriter | None = None,
) -> tuple[int, dict[str, str], Any]:
    """One request/response exchange; reuses (reader, writer) when given.

    Returns ``(status, headers, payload)`` with header names
    lower-cased; *payload* is the decoded JSON body for JSON responses
    and the raw text for everything else (``/metrics`` exposition).
    The wire format is :mod:`repro.service.http`'s, so the load
    generator, the test-suite, and the docs all speak to the server the
    same way without external dependencies.
    """
    own_connection = writer is None
    if own_connection:
        reader, writer = await asyncio.open_connection(host, port)
    try:
        await send_request(
            writer,
            method,
            path,
            b"" if body is None else json.dumps(body).encode(),
            host=f"{host}:{port}",
            keep_alive=not own_connection,
        )
        status, headers, raw = await read_response(reader)
        if headers.get("content-type", "").startswith("application/json"):
            decoded: Any = json.loads(raw.decode() or "null")
        else:
            decoded = raw.decode()
        return status, headers, decoded
    finally:
        if own_connection:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def http_json(
    host: str,
    port: int,
    method: str,
    path: str,
    body: dict | None = None,
    *,
    reader: asyncio.StreamReader | None = None,
    writer: asyncio.StreamWriter | None = None,
) -> tuple[int, dict]:
    """:func:`http_exchange` without the headers (the common case)."""
    status, _, payload = await http_exchange(
        host, port, method, path, body, reader=reader, writer=writer
    )
    return status, payload


def _classify(stats: PassStats, status: int, payload: dict) -> None:
    if status == 200:
        stats.ok += 1
        if payload.get("cache") == "hit":
            stats.cache_hits += 1
    elif status == 429:
        stats.rejected += 1
    elif 400 <= status < 500:
        stats.client_errors += 1
    elif status >= 500:
        stats.server_errors += 1
    else:
        stats.ok += 1


@dataclass(frozen=True)
class ReplayOutcome:
    """The server's verdict for one replayed trace entry."""

    req_id: str
    status: int
    reason: str
    latency_s: float

    def as_pair(self) -> tuple[str, int, str]:
        """The ``(req_id, status, reason)`` triple the bridge pairs on."""
        return (self.req_id, self.status, self.reason)


#: The outcome of a request that got no answer.
_NO_ANSWER = (0, "transport_error", 0.0)


async def _pass(
    host: str,
    port: int,
    bodies: list[dict],
    *,
    pass_no: int,
    workers: int,
    fire_at: list[float] | None = None,
    queue_waits: bool = False,
) -> tuple[PassStats, list[tuple[int, str, float]]]:
    """POST every body to ``/solve``; the one pass behind every mode.

    *workers* workers take bodies in index order, each over one
    persistent connection opened when it first needs one.  With
    *fire_at*, body *i* goes out no earlier than ``fire_at[i]`` seconds
    after the pass starts; with *queue_waits* as well, how late it went
    out is recorded as its queue wait.  A transport error is recorded
    and the worker's connection dropped, to be reopened for its next
    body.  Returns the pass's stats and, per body in index order,
    ``(status, reason, latency_s)`` — ``reason`` is ``"admitted"`` for a
    200, else the response's ``reason`` or ``http_<status>``.
    """
    stats = PassStats(pass_no=pass_no, requests=len(bodies), elapsed_s=0.0)
    outcomes = [_NO_ANSWER] * len(bodies)
    loop = asyncio.get_running_loop()
    started = time.perf_counter()
    t0 = loop.time()
    next_index = 0

    async def worker() -> None:
        nonlocal next_index
        reader = writer = None
        while next_index < len(bodies):
            i = next_index
            next_index += 1
            if fire_at is not None:
                intended = t0 + fire_at[i]
                delay = intended - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
            try:
                if writer is None:
                    reader, writer = await asyncio.open_connection(host, port)
                queue_wait = (
                    max(loop.time() - intended, 0.0) if queue_waits else None
                )
                start = time.perf_counter()
                status, payload = await http_json(
                    host,
                    port,
                    "POST",
                    "/solve",
                    bodies[i],
                    reader=reader,
                    writer=writer,
                )
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                stats.record_transport_error()
                if writer is not None:
                    writer.close()
                reader = writer = None
                continue
            latency = time.perf_counter() - start
            stats.record(status, payload, latency, queue_wait_s=queue_wait)
            reason = f"http_{status}"
            if status == 200:
                reason = "admitted"
            elif isinstance(payload, dict):
                reason = str(payload.get("reason", reason))
            outcomes[i] = (status, reason, latency)
        if writer is not None:
            writer.close()

    await asyncio.gather(*(worker() for _ in range(max(workers, 1))))
    stats.elapsed_s = time.perf_counter() - started
    return stats, outcomes


def run_replay(
    host: str,
    port: int,
    entries: list[dict],
    *,
    mode: str = "sequential",
    speedup: float = 1.0,
) -> tuple[PassStats, list[ReplayOutcome]]:
    """Replay a ``repro sim`` trace against a live server.

    Parameters
    ----------
    entries:
        Trace entries from :func:`repro.sim.bridge.load_trace` (each
        carries ``req_id``, ``t`` and a full ``body``).
    mode:
        ``"sequential"`` (default; in-order, pairable decisions) or
        ``"timed"`` (open-loop at the trace timestamps).
    speedup:
        Timed mode only: divide trace timestamps by this factor.
    """
    if mode not in ("sequential", "timed"):
        raise ValueError(f"mode must be 'sequential' or 'timed', got {mode!r}")
    if not entries:
        raise ValueError("cannot replay an empty trace")
    if not speedup > 0:
        raise ValueError(f"speedup must be > 0, got {speedup!r}")
    timed = mode == "timed"
    stats, outcomes = asyncio.run(
        _pass(
            host,
            port,
            [entry["body"] for entry in entries],
            pass_no=1,
            workers=len(entries) if timed else 1,
            fire_at=(
                [entry["t"] / speedup for entry in entries] if timed else None
            ),
        )
    )
    return stats, [
        ReplayOutcome(entry["req_id"], *outcome)
        for entry, outcome in zip(entries, outcomes)
    ]


def run_load(
    host: str,
    port: int,
    *,
    requests: int = 200,
    seed: int = 0,
    passes: int = 2,
    mode: str = "closed",
    concurrency: int = 8,
    rate: float = 200.0,
    algorithm: str = "greedy_marginal",
    eps: float = 0.1,
) -> list[PassStats]:
    """Run *passes* identical seeded passes; returns per-pass stats.

    Every pass regenerates the same request stream from *seed*, so the
    server's content cache turns pass 2+ into (mostly) hits.
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    bodies = make_bodies(seed, requests, algorithm=algorithm, eps=eps)
    open_loop = mode == "open"
    fire_at = [i / rate for i in range(len(bodies))] if open_loop else None

    async def _run() -> list[PassStats]:
        results: list[PassStats] = []
        for pass_no in range(1, passes + 1):
            stats, _ = await _pass(
                host,
                port,
                bodies,
                pass_no=pass_no,
                workers=concurrency,
                fire_at=fire_at,
                queue_waits=open_loop,
            )
            results.append(stats)
        return results

    return asyncio.run(_run())


def slo_results(
    all_stats: list[PassStats],
    objectives: tuple[SloObjective, ...] | None = None,
) -> list[SloResult]:
    """Client-observed SLO attainment aggregated across passes.

    The window is the total wall time of the passes — a batch
    evaluation in the same schema the live server's rolling tracker
    and the simulator's :meth:`SimReport.slo_summary` produce, so the
    three views are directly comparable.
    """
    samples: list[tuple[bool, float | None]] = []
    window = 0.0
    for stats in all_stats:
        samples.extend(stats.slo_samples)
        window += stats.elapsed_s
    return summarize_slo(
        samples, objectives or DEFAULT_SLOS, window_s=max(window, 1e-9)
    )
