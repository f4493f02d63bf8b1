"""FPTAS for REJECT-MIN by penalty scaling.

Scheme (standard min-knapsack-style scaling, adapted to the convex energy
term; DESIGN.md §1.3):

1. Seed with the best polynomial heuristic; its cost ``UB`` upper-bounds
   the optimum.
2. Tasks whose individual penalty exceeds ``UB`` are *forced-accept*: no
   solution of cost ≤ UB ever rejects them (their penalty alone would
   blow the budget).  Their cycles become a base workload offset.
3. Scale the remaining penalties by ``K = ε·UB/r`` (``r`` candidates) and
   run the penalty-indexed DP on ``⌊ρi/K⌋ ≤ r/ε``, i.e. at most ``r²/ε``
   table cells.
4. Evaluate every reachable level with the **true** energy function and
   the scaled penalty proxy, reconstruct the winner, and return the
   cheaper of {winner, seed}.

Guarantee: each scaled penalty under-counts by < K, so the proxy search
misses the optimum by at most ``r·K = ε·UB``; since ``UB ≥ OPT`` the
returned cost is ≤ ``OPT + ε·UB ≤ (1 + ε·UB/OPT)·OPT``, and because the
seed is returned when cheaper, the cost is also ≤ ``UB``.  With the seed
within a constant factor of OPT (the usual case; always verifiable a
posteriori against the fractional bound) this is a (1+O(ε))-approximation
with running time polynomial in ``n`` and ``1/ε`` — an FPTAS.
"""

from __future__ import annotations

import math

from repro.core.rejection.dp import _check_table, _dp_over_penalties
from repro.core.rejection.greedy import (
    accept_all_repair,
    greedy_density,
    greedy_marginal,
)
from repro.core.rejection.problem import (
    RejectionProblem,
    RejectionSolution,
    best_solution,
)
from repro.kernels import get_kernel
from repro.obs import counters as obs_counters
from repro.obs.trace import span


def fptas(
    problem: RejectionProblem,
    *,
    eps: float = 0.1,
    seed_solution: RejectionSolution | None = None,
) -> RejectionSolution:
    """Approximate REJECT-MIN within additive ``ε·UB`` (see module doc).

    Parameters
    ----------
    eps:
        Scaling accuracy; table size grows as ``n²/ε``.
    seed_solution:
        Optional pre-computed upper-bound solution; by default the best
        of the greedy family is used.
    """
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps!r}")

    seed = seed_solution or best_solution(
        greedy_marginal(problem), greedy_density(problem), accept_all_repair(problem)
    )
    upper = seed.cost
    if upper <= 0.0:
        # Zero total cost cannot be beaten; the seed is optimal.
        return problem.solution(
            seed.accepted, algorithm="fptas", eps=eps, scaled=False
        )

    cap = problem.capacity
    penalties, acceptable = problem.penalties, problem.acceptable
    forced_accept = [i for i in acceptable if penalties[i] > upper]
    candidates = [i for i in acceptable if not penalties[i] > upper]
    # Tasks too large to ever accept are equally out of the DP.
    forced_reject = problem.n - len(acceptable)

    base_workload = problem.workload(forced_accept)
    if not problem.fits(base_workload):
        # Cannot happen when `upper` comes from a feasible seed: the seed
        # accepts every forced-accept task (rejecting one costs > UB)...
        # unless the seed itself IS infeasible, which solution() forbids.
        raise AssertionError("forced-accept set exceeds the capacity")

    if not candidates:
        return problem.solution(
            forced_accept, algorithm="fptas", eps=eps, scaled=False
        )

    scale = eps * upper / len(candidates)
    if scale <= 0.0:
        # `upper` is denormal-small: every cost in play is ~0 and the
        # seed cannot be meaningfully improved (scaling would divide by
        # an underflowed zero).
        return problem.solution(
            seed.accepted, algorithm="fptas", eps=eps, scaled=False
        )
    units = [int(math.floor(penalties[i] / scale)) for i in candidates]
    cycles = [problem.cycles[i] for i in candidates]
    states = sum(units) + 1
    _check_table(states, "fptas")
    obs_counters.emit(
        "fptas",
        calls=1,
        scale=scale,
        states=states,
        cells=states * len(candidates),
        candidates=len(candidates),
        forced_accept=len(forced_accept),
        forced_reject=forced_reject,
    )
    kern = get_kernel()
    total = base_workload + sum(cycles)
    with span(
        "solve.fptas", n=problem.n, eps=eps, states=states
    ):
        dp, decisions = _dp_over_penalties(units, cycles, kern)
        # Each reachable level is priced with the true energy function
        # and the scaled penalty proxy ``p * scale``.
        best_p, _ = kern.best_penalty_level(
            dp, total, cap, problem.energy_fn, scale
        )

    if best_p < 0:
        # Every DP completion overflows the capacity — only possible when
        # even rejecting all candidates leaves base_workload infeasible,
        # which the assertion above excludes; fall back to the seed.
        return problem.solution(
            seed.accepted, algorithm="fptas", eps=eps, scaled=False
        )

    rejected = set(range(problem.n)).difference(acceptable)
    p = best_p
    for k in range(len(candidates) - 1, -1, -1):
        if decisions[k][p]:
            rejected.add(candidates[k])
            p -= units[k]
    accepted = [i for i in range(problem.n) if i not in rejected]
    scaled = problem.solution(
        accepted,
        algorithm="fptas",
        eps=eps,
        scaled=True,
        additive_bound=eps * upper,
    )
    if seed.cost < scaled.cost:
        obs_counters.add("fptas.seed_won")
        return problem.solution(
            seed.accepted,
            algorithm="fptas",
            eps=eps,
            scaled=False,
            additive_bound=eps * upper,
        )
    return scaled
