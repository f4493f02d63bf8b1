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

Subset-sum tables and the feasible-subset scan run on the active array
kernel (:mod:`repro.kernels`); each node's bound is one λ search of
:func:`~repro.core.rejection.relaxation.relax_suffix`.
"""

from __future__ import annotations

from repro._validation import fits
from repro.core.rejection.greedy import greedy_marginal
from repro.core.rejection.problem import RejectionProblem, RejectionSolution
from repro.core.rejection.relaxation import _require_convex, relax_suffix
from repro.kernels import get_kernel
from repro.obs import counters as obs_counters
from repro.obs.trace import span

#: Hard guard: beyond this, subset enumeration is a programming error.
MAX_EXHAUSTIVE_TASKS = 24

#: Branch-and-bound's margins, relative to the incumbent's cost so the
#: search is the same in any unit: a node whose bound comes within
#: ``PRUNE_RTOL`` of it is pruned, and a leaf must beat it by ``LEAF_RTOL``.
PRUNE_RTOL, LEAF_RTOL = 1e-12, 1e-15


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
    cycles, penalties = problem.cycles, problem.penalties
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

    order = kern.density_order(problem.cycles, problem.penalties)
    cycles = [problem.cycles[i] for i in order]
    penalties = [problem.penalties[i] for i in order]
    densities = [p / c for p, c in zip(penalties, cycles)]
    # Plain-float prefix sums (on every kernel): the bound feeds these
    # into the scalar energy function.
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
            if cost < best_cost - LEAF_RTOL * abs(best_cost):
                best_cost = cost
                best_accept_ranks = [k for k in range(n) if chosen[k]]
                incumbents += 1
            return
        if workload < cap:
            relaxed, _, _ = relax_suffix(
                g_all, densities, cum_c, cum_p, depth, workload, cap
            )
        else:  # a full node can only reject the rest
            relaxed = g_all.energy(cap) + (cum_p[n] - cum_p[depth])
        if rejected_penalty + relaxed >= best_cost - PRUNE_RTOL * abs(best_cost):
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
