"""Request model for the solve service.

Every incoming ``POST /solve`` is mapped onto the paper's own task
model before anything is computed: the request becomes a
:class:`~repro.tasks.model.FrameTask` whose *cycles* are a coarse work
estimate (from the instance size and solver choice) and whose *penalty*
is the client-supplied ``weight`` — so the admission controller can run
the exact same :class:`~repro.core.rejection.online.OnlinePolicy`
machinery the REJECT-MIN experiments use, with "reject the request"
playing the role of "reject the task".

Work estimates are deliberately rough (they only need to rank requests
and saturate sensibly, not predict wall time): each solver gets an
asymptotic operation count, and the measured worker throughput (in the
same units per second) converts counts into capacity.  See
:func:`estimate_cost`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

__all__ = [
    "EXACT_SOLVERS",
    "INLINE_UNITS",
    "MULTIPROC_SOLVERS",
    "RequestError",
    "SOLVER_NAMES",
    "SolveRequest",
    "UNIPROC_SOLVERS",
    "estimate_cost",
    "parse_solve_request",
    "resolve_solver",
]


class RequestError(ValueError):
    """A malformed solve request (maps to HTTP 400)."""


#: Uniprocessor solvers reachable over the wire (same set as ``repro
#: solve``); ``fptas`` additionally honours ``eps``.
UNIPROC_SOLVERS = (
    "exhaustive",
    "branch_and_bound",
    "pareto_exact",
    "fptas",
    "greedy_marginal",
    "greedy_density",
    "lp_rounding",
    "accept_all_repair",
)

#: Partitioned-multiprocessor solvers: the only ones for an instance
#: carrying ``"processors": m``, whatever m (even 1), since that key is
#: what makes :func:`repro.io.instance_from_dict` build one.
MULTIPROC_SOLVERS = (
    "ltf_reject",
    "rand_reject",
    "global_greedy_reject",
    "exhaustive_multiproc",
)

SOLVER_NAMES = UNIPROC_SOLVERS + MULTIPROC_SOLVERS

#: Exact solvers, whose work estimate is a shape rather than a price:
#: ``branch_and_bound`` at n = 9 with tied densities is priced 204 units
#: (~0.24 ms at a measured 854k units/s) and takes 52 ms.  They never
#: take the inline venue until their estimates are measured honest.
EXACT_SOLVERS = frozenset(
    {"exhaustive", "branch_and_bound", "pareto_exact", "exhaustive_multiproc"}
)

#: Largest estimated solve (work units) the server runs inline on its
#: event loop instead of shipping it to the pool: about twice the
#: :func:`repro.service.worker.calibrate` reference solve
#: (``greedy_marginal`` at n = 12, 144 units), so an inline solve costs
#: a fraction of the pool round-trip it skips.
INLINE_UNITS = 256.0

#: Asymptotic work units per solver: ``fn(n, eps, m) -> float``.  Units
#: are abstract "operations"; the service calibrates a worker's
#: operations/second at startup to turn them into capacity.
_WORK_UNITS = {
    "exhaustive": lambda n, eps, m: n * 2.0**n,
    "branch_and_bound": lambda n, eps, m: n * 2.0 ** (n / 2.0),
    "pareto_exact": lambda n, eps, m: n**3,
    "fptas": lambda n, eps, m: n**3 / max(eps, 1e-6),
    "greedy_marginal": lambda n, eps, m: float(n**2),
    "greedy_density": lambda n, eps, m: n * math.log2(n + 1.0),
    "lp_rounding": lambda n, eps, m: float(n**2),
    "accept_all_repair": lambda n, eps, m: float(n**2),
    "ltf_reject": lambda n, eps, m: n * math.log2(n + 1.0) + n * m,
    "rand_reject": lambda n, eps, m: float(n * m),
    "global_greedy_reject": lambda n, eps, m: float(n**2 * m),
    "exhaustive_multiproc": lambda n, eps, m: n * float(m + 1) ** n,
}


def estimate_cost(
    n: int, algorithm: str, eps: float = 0.1, processors: int = 1
) -> float:
    """Coarse work estimate (abstract operations) for one solve.

    The estimate is what the admission controller charges against the
    measured pool capacity; it ranks an ``exhaustive`` request on 20
    tasks as ~five orders of magnitude heavier than a greedy sweep,
    which is all the fidelity overload shedding needs.
    """
    if algorithm not in _WORK_UNITS:
        raise RequestError(f"unknown algorithm {algorithm!r}")
    if n < 1:
        raise RequestError(f"instance needs at least one task, got n={n}")
    return max(float(_WORK_UNITS[algorithm](n, eps, processors)), 1.0)


def resolve_solver(name: str):
    """The solver callable for *name* (lazy import keeps startup light)."""
    if name not in SOLVER_NAMES:
        raise RequestError(f"unknown algorithm {name!r}")
    from repro.core import rejection

    return getattr(rejection, name)


@dataclass(frozen=True)
class SolveRequest:
    """One validated solve request.

    Attributes
    ----------
    req_id:
        Server-assigned identifier (also the admission task's name).
    instance:
        The :func:`repro.io.instance_to_dict` payload, passed through to
        the worker untouched (it is also the cache key's content).
    algorithm, eps:
        Solver choice; ``eps`` only matters for ``fptas``.
    deadline_s:
        Client latency budget.  A request whose estimated work cannot
        finish inside it at the measured per-request service rate is
        rejected up front.
    weight:
        Rejection penalty of the request, relative to a default request
        (1.0).  Higher-weight requests are admitted preferentially and
        shed last.
    mode:
        ``"sync"`` (response carries the solution) or ``"async"``
        (202 + ticket, poll ``GET /result/<id>``).
    n, processors:
        Instance size, pre-extracted for cost estimation.
    """

    req_id: str
    instance: dict[str, Any]
    algorithm: str
    eps: float
    deadline_s: float
    weight: float
    mode: str
    n: int
    processors: int

    @property
    def cost_units(self) -> float:
        """Estimated work (abstract operations) of this solve."""
        return estimate_cost(
            self.n, self.algorithm, eps=self.eps, processors=self.processors
        )

    @property
    def inline(self) -> bool:
        """Whether the server solves this request where it lands.

        Only sync requests of heuristic solvers priced at most
        :data:`INLINE_UNITS` qualify: async callers asked for a ticket,
        and an exact solver's price can be orders of magnitude low.
        """
        return (
            self.mode == "sync"
            and self.algorithm not in EXACT_SOLVERS
            and self.cost_units <= INLINE_UNITS
        )

    def worker_payload(self) -> dict[str, Any]:
        """The picklable payload a solve runs from, pooled or inline."""
        return {
            "req_id": self.req_id,
            "instance": self.instance,
            "algorithm": self.algorithm,
            "eps": self.eps,
        }


def _positive_number(body: dict, key: str, default: float) -> float:
    value = body.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"{key} must be a number, got {value!r}")
    if not value > 0 or not math.isfinite(value):
        raise RequestError(f"{key} must be finite and > 0, got {value!r}")
    return float(value)


def parse_solve_request(body: Any, req_id: str) -> SolveRequest:
    """Validate a ``POST /solve`` JSON body into a :class:`SolveRequest`.

    Raises :class:`RequestError` (HTTP 400) on any schema violation.
    Instance *content* (task values, energy-model parameters) is only
    sanity-checked here; full validation happens in the worker when the
    instance is deserialised.  The instance kind is decided here once:
    it is multiprocessor exactly when it carries ``processors``, which
    picks both the default algorithm and the solvers allowed; an
    instance carrying ``platform`` is refused.
    """
    if not isinstance(body, dict):
        raise RequestError("request body must be a JSON object")
    instance = body.get("instance")
    if not isinstance(instance, dict):
        raise RequestError("'instance' must be an instance_to_dict object")
    tasks = instance.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise RequestError("'instance.tasks' must be a non-empty list")
    if "platform" in instance:
        # instance_from_dict would build a heterogeneous problem, which
        # no served solver takes.
        raise RequestError(
            "heterogeneous-platform instances ('instance.platform') are "
            "not served; solve them with repro solve --platform"
        )
    multiproc = "processors" in instance
    processors = instance.get("processors", 1)
    if isinstance(processors, bool) or not isinstance(processors, int):
        raise RequestError(
            f"'instance.processors' must be an integer, got {processors!r}"
        )
    if processors < 1:
        raise RequestError(
            f"'instance.processors' must be >= 1, got {processors}"
        )
    algorithm = body.get("algorithm", "ltf_reject" if multiproc else "fptas")
    if algorithm not in SOLVER_NAMES:
        raise RequestError(
            f"unknown algorithm {algorithm!r} "
            f"(choose from {', '.join(SOLVER_NAMES)})"
        )
    if not multiproc and algorithm in MULTIPROC_SOLVERS:
        raise RequestError(
            f"{algorithm!r} needs a multiprocessor instance "
            "(one with instance.processors)"
        )
    if multiproc and algorithm in UNIPROC_SOLVERS:
        raise RequestError(
            f"{algorithm!r} cannot solve a multiprocessor instance; "
            f"choose from {', '.join(MULTIPROC_SOLVERS)}"
        )
    mode = body.get("mode", "sync")
    if mode not in ("sync", "async"):
        raise RequestError(f"mode must be 'sync' or 'async', got {mode!r}")
    return SolveRequest(
        req_id=req_id,
        instance=instance,
        algorithm=algorithm,
        eps=_positive_number(body, "eps", 0.1),
        deadline_s=_positive_number(body, "deadline_s", 30.0),
        weight=_positive_number(body, "weight", 1.0),
        mode=mode,
        n=len(tasks),
        processors=processors,
    )
