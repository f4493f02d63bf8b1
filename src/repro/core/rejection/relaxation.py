"""Fractional relaxation of REJECT-MIN: lower bound and rounding.

Allowing a task to be rejected *fractionally* (``xi ∈ [0, 1]``) turns
REJECT-MIN into a convex program:

    minimize  g(W) + Σ ρi xi     s.t.  W = Σ ci (1 − xi) ≤ cap.

Pricing a cycle at ``λ`` gives its Lagrangian dual
``d(λ) = Σ min(λ ci, ρi) − g*(λ)``, with ``g*`` the convex conjugate of
``g``: a lower bound for every ``λ``, concave, and maximal at the
relaxation optimum.  Between consecutive penalty densities ``ρ/c``, ``d``
is ``Σ_{i<k} ρi + λ A_k − g*(λ)`` (``A_k``: the cycles left once the first
``k`` tasks go), so the search bisects over ``k`` for the piece where the
workload ``W*(λ)`` that ``g*`` picks crosses ``A_k``, then solves for
``λ`` inside it (docs/theory.md §5).  A curve without a closed-form
conjugate takes one golden-section search on the primal instead.

The optimum is a **valid lower bound** on REJECT-MIN (used to normalise
the large-instance experiments, mirroring the companion text's "relaxed
relative ratio"), and the classic structure — at most one fractional task
— makes rounding trivial: :func:`lp_rounding` rounds that task both ways
and keeps the better feasible result.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from repro.core.rejection.problem import (
    RejectionProblem,
    RejectionSolution,
    best_solution,
)
from repro.energy.base import EnergyFunction
from repro.kernels import get_kernel

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: A λ search stops once its bracket, or ``W*(λ)``'s miss of the target,
#: is this small relative to it; or after ``_LAM_STEPS`` steps.
_LAM_RTOL, _LAM_STEPS = 2.0**-50, 100


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


def _minimize_convex(fn, lo: float, hi: float) -> tuple[float, float]:
    """(argmin, min) of the convex *fn* on [lo, hi] by golden section,
    to a bracket of ``1e-12`` of the interval's magnitude (in any unit)."""
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if lo == hi:
        return lo, fn(lo)
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    tol = 1e-12 * (abs(lo) + abs(hi))
    for _ in range(120):
        if (b - a) <= tol:
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


def closed_conjugate(energy_fn):
    """*energy_fn*'s ``conjugate`` when it has a closed form, else None."""
    conjugate = getattr(energy_fn, "conjugate", None)
    if conjugate is None or conjugate(0.0) is None:
        return None
    return conjugate


def dual_crossing(conjugate, target: float, lo: float, hi: float) -> float:
    """``max λ·target − g*(λ)`` over ``λ ∈ [lo, hi]``.

    Needs ``W*(lo) ≤ target ≤ W*(hi)``: the concave objective then peaks
    where ``W*(λ)`` crosses *target*.  Illinois false position on
    ``W*(λ) − target`` closes in on the crossing, and the best value met
    is returned, since every ``λ`` gives a lower bound.
    """
    star_lo, w_lo = conjugate(lo)
    star_hi, w_hi = conjugate(hi)
    best = max(lo * target - star_lo, hi * target - star_hi)
    f_lo, f_hi = w_lo - target, w_hi - target
    near = _LAM_RTOL * target
    side = 0
    for _ in range(_LAM_STEPS):
        if -f_lo <= near or f_hi <= near or hi - lo <= _LAM_RTOL * hi:
            break
        lam = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi)
        star, w = conjugate(lam)
        best = max(best, lam * target - star)
        f = w - target
        if f >= 0.0:
            hi, f_hi = lam, f
            if side > 0:
                f_lo *= 0.5
            side = 1
        else:
            lo, f_lo = lam, f
            if side < 0:
                f_hi *= 0.5
            side = -1
    return best


def relax_suffix(
    energy_fn,
    densities,
    cum_c,
    cum_p,
    start: int,
    base: float,
    cap: float,
) -> tuple[float, int, float]:
    """Relax the tasks ``start..`` on top of *base* accepted cycles.

    The tasks are in density order with ``densities[k] = ρk / ck`` and
    ``cum_c``/``cum_p`` their cycle/penalty prefix sums (length
    ``n + 1``, leading 0); the tasks before *start* are decided, with
    *base* cycles accepted (``base < cap``).  Returns ``(value, k, w)``:
    the optimum of ``g(W) + shed(W)`` over ``base ≤ W ≤ cap`` (penalties
    of decided tasks excluded), with ``start..k−1`` fully rejected and
    ``w`` accepted cycles; task ``k`` is partly rejected when ``w`` is
    below the cycles rejecting ``start..k−1`` leaves.
    """
    n = len(densities)
    rest = cum_c[n]

    def accepted(k: int) -> float:
        return base + (rest - cum_c[k])

    conjugate = closed_conjugate(energy_fn)
    if conjugate is None:
        return _golden_suffix(
            energy_fn.energy, densities, cum_c, cum_p, start, base,
            min(accepted(start), cap), accepted,
        )
    if base > 0.0:  # W* clamped to [base, cap]
        free, g_base = conjugate, energy_fn.energy(base)

        def conjugate(lam: float) -> tuple[float, float]:
            star, w = free(lam)
            return (lam * base - g_base, base) if w < base else (star, w)

    # The first k at whose density g* takes at least what rejecting
    # tasks start..k leaves.
    k = start + bisect_left(
        range(start, n - 1),
        True,
        key=lambda i: conjugate(densities[i])[1] >= accepted(i + 1),
    )
    lam = densities[k]
    star, w = conjugate(lam)
    top = accepted(k)
    shed = cum_p[k] - cum_p[start]
    if w < top:  # λ* = d_k, and task k is split at w
        value = shed + lam * top - star
        return value, (k + 1 if w <= accepted(k + 1) else k), w
    low = densities[k - 1] if k > start else 0.0
    return shed + dual_crossing(conjugate, top, low, lam), k, top


def suffix_shed_cost(cum_c, cum_p, densities, start: int, rejected: float) -> float:
    """Cheapest penalty to shed *rejected* cycles from tasks ``start..``.

    Shedding is fractional: whole tasks are rejected in density order
    until the remainder fits inside one task, which is charged pro rata
    (the arguments are :func:`relax_suffix`'s).
    """
    if rejected <= 0.0:
        return 0.0
    n = len(densities)
    j = max(bisect_left(cum_c, rejected + cum_c[start]), start + 1)
    if j > n:
        return cum_p[n] - cum_p[start]
    k = j - 1
    return (cum_p[k] - cum_p[start]) + (
        rejected - (cum_c[k] - cum_c[start])
    ) * densities[k]


def _golden_suffix(energy, densities, cum_c, cum_p, start, base, hi, accepted):
    """:func:`relax_suffix` for a curve without a closed-form conjugate.

    One golden-section search over the convex ``g(W) + shed(W)``, then
    the breakpoints on either side of its argmin, where the minimum of
    a piecewise function may sit exactly.
    """
    top = accepted(start)
    tasks = range(start, len(densities) - 1)

    def piece(w: float) -> int:
        """The first ``k`` whose rejection leaves no more than *w* cycles."""
        return start + bisect_left(tasks, True, key=lambda i: accepted(i + 1) <= w)

    def objective(w: float) -> float:
        return energy(w) + suffix_shed_cost(cum_c, cum_p, densities, start, top - w)

    w, value = _minimize_convex(objective, base, hi)
    k = piece(w)
    for edge in (accepted(k), accepted(k + 1)):
        if base <= edge <= hi:
            edge_value = objective(edge)
            if edge_value < value:
                w, value = edge, edge_value
    k = piece(w)
    return value, (k + 1 if w <= accepted(k + 1) else k), w


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
    """Solve the fractional relaxation exactly (see module docstring).

    The witness comes from the breakpoint the search stops on, so it
    involves no tolerance and reads the same in any unit of measure.
    """
    g = _require_convex(problem.energy_fn)
    kern = get_kernel()
    order = kern.density_order(problem.cycles, problem.penalties)
    cycles = [problem.cycles[i] for i in order]
    penalties = [problem.penalties[i] for i in order]
    densities = [p / c for p, c in zip(penalties, cycles)]
    # Rejecting the first k tasks (density order) sheds cum_c[k] cycles
    # at cum_p[k] penalty, accumulated strictly left to right.
    cum_c = kern.prefix_sums(cycles)
    cum_p = kern.prefix_sums(penalties)
    value, k, w = relax_suffix(
        g, densities, cum_c, cum_p, 0, 0.0, problem.capacity
    )
    fractional: int | None = None
    fraction = 0.0
    if k < len(order):
        top = cum_c[-1] - cum_c[k]
        if w < top:
            fractional = order[k]
            fraction = (top - w) / cycles[k]
    return FractionalRelaxation(
        value=value,
        accepted_workload=w,
        fully_rejected=tuple(order[:k]),
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
    the cheaper feasible candidate wins.  Candidate A accepts no more
    than the relaxation's workload, which fits, so one always exists.
    """
    relaxed = fractional_relaxation(problem)
    base_accept = set(range(problem.n)) - set(relaxed.fully_rejected)
    candidates = [base_accept]
    if relaxed.fractional_task is not None:
        candidates.insert(0, base_accept - {relaxed.fractional_task})
    return best_solution(
        *(
            problem.solution(accepted, algorithm="lp_rounding")
            for accepted in candidates
            if problem.is_feasible(accepted)
        )
    )
