"""Exact algorithms for REJECT-MIN: exhaustive search and branch-and-bound.

:func:`exhaustive` is the reference oracle the experiments normalise
against (as the companion text normalises against "the optimal task
assignment by exhaustive searches"); it enumerates all 2^n subsets with
incrementally maintained sums, so it is practical to n ≈ 20.

:func:`branch_and_bound` is exact as well but prunes with the fractional
relaxation (see :mod:`repro.core.rejection.relaxation`), typically
visiting a tiny fraction of the tree; it extends the exact range to the
mid-20s and serves as an independent implementation to cross-check the
oracle in tests.

Subset-sum tables, the feasible-subset scan, and the piecewise-linear
breakpoint sweep of the fractional bound run on the active array kernel
(:mod:`repro.kernels`).
"""

from __future__ import annotations

import math

from repro._validation import fits
from repro.core.rejection.greedy import greedy_marginal
from repro.core.rejection.problem import RejectionProblem, RejectionSolution
from repro.core.rejection.relaxation import _minimize_convex, _require_convex
from repro.kernels import get_kernel
from repro.kernels.base import suffix_shed_cost
from repro.obs import counters as obs_counters
from repro.obs.trace import span

#: Hard guard: beyond this, subset enumeration is a programming error.
MAX_EXHAUSTIVE_TASKS = 24


def exhaustive(problem: RejectionProblem) -> RejectionSolution:
    """Optimal solution by subset enumeration (n <= 24).

    Subset workload and penalty sums are built by iterative doubling
    (``sum[mask] = sum[mask without lowest bit] + value[lowest bit]``), so
    the enumeration costs O(2^n) arithmetic plus one ``g`` evaluation per
    *feasible* subset.
    """
    n = problem.n
    if n > MAX_EXHAUSTIVE_TASKS:
        raise ValueError(
            f"exhaustive search limited to {MAX_EXHAUSTIVE_TASKS} tasks, got {n}; "
            "use branch_and_bound or the DP/FPTAS algorithms instead"
        )
    cycles = [t.cycles for t in problem.tasks]
    penalties = [t.penalty for t in problem.tasks]
    total_penalty = sum(penalties)

    kern = get_kernel()
    with span("solve.exhaustive", n=n):
        workload = kern.subset_sums(cycles)
        accepted_penalty = kern.subset_sums(penalties)
        best_mask, _ = kern.exhaustive_best(
            workload,
            accepted_penalty,
            total_penalty,
            problem.capacity,
            problem.energy_fn,
        )
    obs_counters.emit("exhaustive", calls=1, subsets=1 << n)

    if best_mask < 0:  # pragma: no cover - the empty subset always fits
        best_mask = 0
    accepted = [i for i in range(n) if best_mask >> i & 1]
    return problem.solution(accepted, algorithm="exhaustive")


def _suffix_fractional_value(
    kern,
    energy_fn,
    cap: float,
    base_workload: float,
    base_penalty: float,
    densities: list[float],
    cum_c,
    cum_p,
    start: int,
) -> float:
    """Lower bound on completing a partial solution.

    The first ``start`` tasks (density order) are already decided with
    ``base_workload`` accepted cycles and ``base_penalty`` rejected
    penalty; the remaining suffix may be accepted fractionally.  Returns
    the convex-relaxation value of the best completion: the golden-section
    minimum of the continuous objective, tightened by the kernel's sweep
    over the shed-cost breakpoints.
    """
    suffix_total = cum_c[-1] - cum_c[start]
    room = cap - base_workload
    if room < -1e-12:
        return math.inf
    w_hi = min(suffix_total, max(room, 0.0))

    g_energy = energy_fn.energy

    def objective(w: float) -> float:
        return (
            base_penalty
            + g_energy(min(base_workload + w, cap))
            + suffix_shed_cost(cum_c, cum_p, densities, start, suffix_total - w)
        )

    _, val = _minimize_convex(objective, 0.0, w_hi)
    # Breakpoints of the piecewise-linear shed cost, for robustness.
    return min(
        val,
        kern.bound_breakpoint_min(
            cum_c,
            cum_p,
            densities,
            start,
            base_workload,
            base_penalty,
            w_hi,
            suffix_total,
            cap,
            energy_fn,
        ),
    )


def branch_and_bound(problem: RejectionProblem) -> RejectionSolution:
    """Optimal solution by depth-first search with fractional pruning.

    Tasks are branched in non-decreasing penalty-density order (the order
    in which the relaxation rejects them), reject-branch first, so the
    incumbent drops quickly; every node is pruned against the fractional
    completion bound.
    """
    g_all = _require_convex(problem.energy_fn)
    cap = problem.capacity
    kern = get_kernel()

    order = kern.density_order(
        [t.cycles for t in problem.tasks],
        [t.penalty for t in problem.tasks],
    )
    cycles = [problem.tasks[i].cycles for i in order]
    penalties = [problem.tasks[i].penalty for i in order]
    densities = [p / c for p, c in zip(penalties, cycles)]
    # Plain-float prefix sums (on every kernel): the bound objective
    # feeds these into the scalar energy function.
    cum_c = kern.prefix_sums(cycles)
    cum_p = kern.prefix_sums(penalties)

    incumbent = greedy_marginal(problem)
    best_cost = incumbent.cost
    best_accept_ranks: list[int] | None = None
    exact_g = problem.energy_fn.energy  # evaluate leaves with the true g

    n = problem.n
    chosen: list[bool] = [False] * n
    nodes = pruned = incumbents = 0

    def dfs(depth: int, workload: float, rejected_penalty: float) -> None:
        nonlocal best_cost, best_accept_ranks, nodes, pruned, incumbents
        nodes += 1
        if depth == n:
            cost = exact_g(min(workload, cap)) + rejected_penalty
            if cost < best_cost - 1e-15:
                best_cost = cost
                best_accept_ranks = [k for k in range(n) if chosen[k]]
                incumbents += 1
            return
        bound = _suffix_fractional_value(
            kern,
            g_all,
            cap,
            workload,
            rejected_penalty,
            densities,
            cum_c,
            cum_p,
            depth,
        )
        if bound >= best_cost - 1e-12:
            pruned += 1
            return
        # Reject branch first (matches the relaxation's preference).
        dfs(depth + 1, workload, rejected_penalty + penalties[depth])
        if fits(workload + cycles[depth], cap):
            chosen[depth] = True
            dfs(depth + 1, workload + cycles[depth], rejected_penalty)
            chosen[depth] = False

    with span("solve.branch_and_bound", n=n):
        dfs(0, 0.0, 0.0)
    obs_counters.emit(
        "branch_and_bound",
        calls=1,
        nodes=nodes,
        pruned=pruned,
        incumbents=incumbents,
    )

    if best_accept_ranks is None:
        # The greedy incumbent was already optimal.
        return problem.solution(
            incumbent.accepted, algorithm="branch_and_bound"
        )
    accepted = [order[k] for k in best_accept_ranks]
    solution = problem.solution(accepted, algorithm="branch_and_bound")
    # The DFS compares against the incumbent with a strict margin; keep
    # whichever is genuinely cheaper.
    if incumbent.cost < solution.cost:
        return problem.solution(incumbent.accepted, algorithm="branch_and_bound")
    return solution
