"""Fractional relaxation of REJECT-MIN: lower bound and rounding.

Allowing a task to be rejected *fractionally* (``xi ∈ [0, 1]``) turns
REJECT-MIN into a convex program:

    minimize  g(Σ ci (1 − xi)) + Σ ρi xi     s.t.  Σ ci (1 − xi) ≤ cap.

For a fixed accepted workload ``w``, the cheapest fractional way to shed
``C − w`` cycles is the fractional knapsack: reject prefixes of the tasks
sorted by penalty density ``ρ/c``.  That yields a piecewise-linear convex
shedding cost ``h(C − w)``, so the relaxation reduces to minimising the
1-D convex function ``g(w) + h(C − w)`` — solved here by evaluating every
breakpoint and golden-sectioning inside the bracketing pieces.

The optimum is a **valid lower bound** on REJECT-MIN (used to normalise
the large-instance experiments, mirroring the companion text's "relaxed
relative ratio"), and the classic structure — at most one fractional task
— makes rounding trivial: :func:`lp_rounding` rounds that task both ways
and keeps the better feasible result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.rejection.problem import (
    RejectionProblem,
    RejectionSolution,
    best_solution,
)
from repro.energy.base import EnergyFunction
from repro.kernels import get_kernel

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _require_convex(energy_fn: EnergyFunction) -> EnergyFunction:
    """Return a convex stand-in for *energy_fn* (or the function itself).

    Non-convex functions (dormant-enable with ``e_sw > 0``) expose
    ``convex_lower_bound``; substituting it keeps the relaxation a valid
    lower bound because it under-estimates pointwise.
    """
    if getattr(energy_fn, "is_convex", True):
        return energy_fn
    lower = getattr(energy_fn, "convex_lower_bound", None)
    if lower is None:
        raise ValueError(
            f"{type(energy_fn).__name__} is not convex and offers no "
            "convex_lower_bound; the fractional relaxation needs convexity"
        )
    return lower()


def _minimize_convex(fn, lo: float, hi: float, *, iters: int = 120) -> tuple[float, float]:
    """(argmin, min) of the convex *fn* on [lo, hi] by golden section."""
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if math.isclose(lo, hi, rel_tol=0, abs_tol=1e-15):
        return lo, fn(lo)
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if (b - a) <= 1e-12 * max(1.0, abs(lo) + abs(hi)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


@dataclass(frozen=True)
class FractionalRelaxation:
    """Result of the fractional relaxation.

    Attributes
    ----------
    value:
        The relaxation optimum — a lower bound on the integral optimum.
    accepted_workload:
        The optimal fractional accepted workload ``w*``.
    fully_rejected:
        Indices rejected with ``xi = 1`` at the optimum (density order).
    fractional_task:
        The single partially rejected task index, or None.
    fraction:
        Its rejected fraction ``xi`` (0 when no fractional task).
    """

    value: float
    accepted_workload: float
    fully_rejected: tuple[int, ...]
    fractional_task: int | None
    fraction: float


def fractional_relaxation(problem: RejectionProblem) -> FractionalRelaxation:
    """Solve the fractional relaxation exactly (see module docstring)."""
    g = _require_convex(problem.energy_fn)
    tasks = problem.tasks
    kern = get_kernel()
    order = kern.density_order(
        [t.cycles for t in tasks], [t.penalty for t in tasks]
    )
    cycles = [tasks[i].cycles for i in order]
    penalties = [tasks[i].penalty for i in order]

    total = sum(cycles)
    cap = problem.capacity
    w_hi = min(total, cap)
    w_lo = 0.0

    # Prefix sums: rejecting the first k tasks (density order) sheds
    # cum_c[k] cycles at cum_p[k] penalty, accumulated strictly left to
    # right as plain floats on every kernel.
    cum_c = kern.prefix_sums(cycles)
    cum_p = kern.prefix_sums(penalties)

    def shed_cost(rejected_cycles: float) -> float:
        """Min fractional penalty to shed *rejected_cycles* (piecewise lin)."""
        if rejected_cycles <= 0.0:
            return 0.0
        # Find the piece: smallest k with cum_c[k] >= rejected_cycles.
        lo, hi = 0, len(cum_c) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cum_c[mid] >= rejected_cycles - 1e-15:
                hi = mid
            else:
                lo = mid + 1
        k = lo
        if k == 0:
            return 0.0
        partial = rejected_cycles - cum_c[k - 1]
        density = penalties[k - 1] / cycles[k - 1]
        return cum_p[k - 1] + max(partial, 0.0) * density

    def objective(w: float) -> float:
        return g.energy(min(max(w, 0.0), w_hi)) + shed_cost(total - w)

    # Candidates: every prefix breakpoint inside [w_lo, w_hi] plus the
    # golden-section optimum over the whole (convex) range.
    best_w, best_val = _minimize_convex(objective, w_lo, w_hi)
    for k in range(len(cum_c)):
        w = total - cum_c[k]
        if w_lo - 1e-12 <= w <= w_hi + 1e-12:
            w = min(max(w, w_lo), w_hi)
            val = objective(w)
            if val < best_val:
                best_w, best_val = w, val

    # Recover the witness: how many tasks are fully rejected at best_w.
    rejected_cycles = total - best_w
    fully: list[int] = []
    fractional: int | None = None
    fraction = 0.0
    remaining = rejected_cycles
    for rank, i in enumerate(order):
        c = cycles[rank]
        if remaining >= c - 1e-9:
            fully.append(i)
            remaining -= c
        elif remaining > 1e-9:
            fractional = i
            fraction = remaining / c
            remaining = 0.0
            break
        else:
            break
    return FractionalRelaxation(
        value=best_val,
        accepted_workload=best_w,
        fully_rejected=tuple(fully),
        fractional_task=fractional,
        fraction=fraction,
    )


def fractional_lower_bound(problem: RejectionProblem) -> float:
    """The relaxation optimum: a valid lower bound on REJECT-MIN."""
    return fractional_relaxation(problem).value


def lp_rounding(problem: RejectionProblem) -> RejectionSolution:
    """Round the fractional optimum's single fractional task both ways.

    Candidate A rejects the fractional task fully; candidate B accepts
    it (kept only when feasible).  Both retain the fully rejected prefix;
    the cheaper feasible candidate wins.
    """
    relaxed = fractional_relaxation(problem)
    everyone = set(range(problem.n))
    base_accept = everyone - set(relaxed.fully_rejected)

    candidates: list[RejectionSolution | None] = []

    if relaxed.fractional_task is None:
        if problem.is_feasible(base_accept):
            candidates.append(
                problem.solution(base_accept, algorithm="lp_rounding")
            )
    else:
        reject_it = base_accept - {relaxed.fractional_task}
        if problem.is_feasible(reject_it):
            candidates.append(problem.solution(reject_it, algorithm="lp_rounding"))
        if problem.is_feasible(base_accept):
            candidates.append(
                problem.solution(base_accept, algorithm="lp_rounding")
            )

    # Robust fallbacks: rejecting everything is always feasible, and the
    # density prefix one step past the optimum restores feasibility when
    # rounding up did not.
    if not candidates:
        order = sorted(
            range(problem.n), key=lambda i: problem.tasks[i].penalty_density
        )
        accepted = set(order)
        workload = problem.workload(accepted)
        for i in order:
            if problem.fits(workload):
                break
            accepted.discard(i)
            workload -= problem.tasks[i].cycles
        candidates.append(problem.solution(accepted, algorithm="lp_rounding"))
    return best_solution(*candidates)
