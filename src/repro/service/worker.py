"""Worker-side functions for the solve service's process pool.

Everything here is module-level and operates on plain picklable dicts —
the same contract :mod:`repro.runner.pool` imposes on trial functions —
so the service can ship each pool-bound request to the persistent
``ProcessPoolExecutor`` it shares with the experiment runner (the
inline venue calls :func:`solve_payload` on the event loop instead).

Per-request solver counters are captured with a fresh
:mod:`repro.obs.counters` registry (exactly like pooled trials) and
shipped back for the parent to merge, so ``/metrics`` aggregates
branch-and-bound nodes, FPTAS states, etc. across worker processes.
"""

from __future__ import annotations

import time
from typing import Any

try:  # NumPy is optional: rand_reject and calibrate() draw from it.
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None

from repro.obs import counters as obs_counters
from repro.obs import trace as obs_trace

__all__ = ["calibrate", "rand_reject_seed", "solve_payload"]


def rand_reject_seed(instance_json: str) -> int:
    """The ``rand_reject`` stream seed of an instance.

    *instance_json* is the instance's
    :func:`~repro.runner.cache.canonical_json`.  The seed depends on the
    instance content alone (no code fingerprint), so identical payloads
    produce identical results in every worker process and across source
    edits.
    """
    from repro.runner.cache import envelope_key

    key = envelope_key("service:rand_reject", instance_json, code_version="")
    return int(key[:8], 16)


def solve_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Solve one request payload; never raises.

    A ``rand_reject`` payload may carry its ``"seed"``
    (:meth:`~repro.service.models.SolveRequest.worker_payload` adds it);
    without one the seed is derived from the instance here.

    Returns ``{"req_id", "ok", "solution" | "error"/"error_kind",
    "counters", "spans", "seconds"}``.  ``error_kind`` is
    ``"bad_request"`` for malformed instances (HTTP 400) and
    ``"solver"`` for everything else (HTTP 500).

    When the server has a trace sink installed it sets
    ``payload["trace"]`` and the solve runs under a
    ``service.solve.worker`` span (captured in a worker-local
    :class:`~repro.obs.trace.MemorySink`, shipped back in ``"spans"``,
    and re-emitted by the server when the request settles — the request
    id rides in the span attrs, so a scraped trace links ingest to
    worker).
    """
    from repro.io import solution_to_dict
    from repro.service.models import RequestError

    req_id = payload.get("req_id")
    sink = obs_trace.MemorySink() if payload.get("trace") else None
    start = time.perf_counter()
    counters: dict[str, float] | None = None
    try:
        with obs_counters.counting() as registry:
            with (
                obs_trace.tracing(sink) if sink is not None else _NULL_CTX
            ):
                with obs_trace.span(
                    "service.solve.worker",
                    req_id=req_id,
                    algorithm=payload.get("algorithm"),
                ):
                    solution = _solve_one(payload)
        counters = registry.snapshot() or None
        return {
            "req_id": req_id,
            "ok": True,
            "solution": solution_to_dict(solution),
            "counters": counters,
            "spans": sink.records if sink is not None else None,
            "seconds": time.perf_counter() - start,
        }
    except (RequestError, ValueError, KeyError, TypeError) as exc:
        kind = "bad_request"
        message = str(exc) or type(exc).__name__
    except Exception as exc:  # pragma: no cover - defensive
        kind = "solver"
        message = f"{type(exc).__name__}: {exc}"
    return {
        "req_id": req_id,
        "ok": False,
        "error": message,
        "error_kind": kind,
        "counters": counters,
        "spans": sink.records if sink is not None else None,
        "seconds": time.perf_counter() - start,
    }


class _NullCtx:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CTX = _NullCtx()


def _solve_one(payload: dict[str, Any]):
    """The actual solve, shared by traced and untraced paths."""
    from repro.io import instance_from_dict
    from repro.runner.cache import canonical_json
    from repro.service.models import RequestError, resolve_solver

    problem = instance_from_dict(payload["instance"])
    algorithm = payload["algorithm"]
    solver = resolve_solver(algorithm)
    if algorithm == "fptas":
        return solver(problem, eps=payload.get("eps", 0.1))
    if algorithm == "rand_reject":
        if np is None:  # pragma: no cover - no-numpy CI job
            raise RequestError("rand_reject requires numpy on the server")
        seed = payload.get("seed")
        if seed is None:
            seed = rand_reject_seed(canonical_json(payload["instance"]))
        return solver(problem, rng=np.random.default_rng(seed))
    return solver(problem)


def calibrate(repeats: int = 20) -> float:
    """Measured solve throughput of this worker, in work units/second.

    Times a fixed mid-size greedy solve (the service's cheapest common
    request shape) and converts it through the same
    :func:`~repro.service.models.estimate_cost` units the admission
    controller charges, so capacity and demand share one currency.
    """
    from repro.core.rejection import RejectionProblem, greedy_marginal
    from repro.energy import ContinuousEnergyFunction
    from repro.power import xscale_power_model
    from repro.service.models import estimate_cost
    from repro.tasks import frame_instance

    if np is None:  # pragma: no cover - exercised by the no-numpy CI job
        raise RuntimeError(
            "calibrate requires numpy (frame_instance is numpy-seeded); "
            "start the server with explicit --capacity/--rate instead"
        )
    rng = np.random.default_rng(0)
    problem = RejectionProblem(
        tasks=frame_instance(rng, n_tasks=12, load=1.5),
        energy_fn=ContinuousEnergyFunction(xscale_power_model(), deadline=1.0),
    )
    greedy_marginal(problem)  # warm imports/JIT-ish caches before timing
    start = time.perf_counter()
    for _ in range(repeats):
        greedy_marginal(problem)
    elapsed = max(time.perf_counter() - start, 1e-9)
    units = repeats * estimate_cost(12, "greedy_marginal")
    return units / elapsed
