"""Exact rejection by Pareto-frontier enumeration (Nemhauser–Ullmann).

The cost of an accepted subset is ``g(w) + p`` with ``w`` the accepted
cycles and ``p`` the rejected penalty; since ``g`` is non-decreasing, a
partial solution with both smaller-or-equal ``w`` *and* ``p`` than
another can never end up worse — it **dominates**.  Processing tasks one
at a time and keeping only the non-dominated ``(w, p)`` states yields an
exact algorithm that:

* needs **no integrality** of cycles or penalties (unlike the DPs),
* needs **no convexity** of ``g`` (unlike branch-and-bound's fractional
  pruning — this is the exact method of choice for the kinked
  dormant-enable model with ``e_sw > 0``),
* runs in ``O(n · F)`` where ``F`` is the frontier size — worst-case
  exponential (the problem is NP-hard), but typically far smaller; a
  guard caps it explicitly rather than thrashing.

The frontier lives as parallel workload/penalty sequences native to the
active array kernel (:mod:`repro.kernels`), whose
:meth:`~repro.kernels.Kernel.frontier_sweep` runs the extend-and-prune
step of every task in one call and keeps each step's survivors for O(n)
reconstruction.

This is the strongest general-purpose exact solver in the library and
the recommended oracle beyond exhaustive range.
"""

from __future__ import annotations

from repro.core.rejection.problem import RejectionProblem, RejectionSolution
from repro.kernels import Frontier, get_kernel
from repro.obs import counters as obs_counters
from repro.obs.trace import span

#: Refuse to grow the frontier beyond this many states.
MAX_FRONTIER = 2_000_000


def _build_frontier(
    problem: RejectionProblem, *, label: str, guard_hint: str = ""
) -> Frontier:
    """Run the dominance-pruned sweep; emits frontier-size counters.

    Shared by :func:`pareto_frontier` and :func:`pareto_exact` (they
    differ only in how the final frontier is consumed).  Returns the
    kernel's :class:`~repro.kernels.Frontier`: the final frontier
    (kernel-native sequences, workload ascending / penalty strictly
    descending) and the steps that reconstruct each of its states.
    """
    kern = get_kernel()
    with span(f"solve.{label}", n=problem.n):
        frontier = kern.frontier_sweep(
            problem.cycles, problem.penalties, problem.capacity, MAX_FRONTIER
        )
        if frontier.peak > MAX_FRONTIER:
            raise ValueError(
                f"Pareto frontier exceeded {MAX_FRONTIER} states" + guard_hint
            )
    obs_counters.emit(
        label,
        calls=1,
        states=frontier.states,
        peak_frontier=frontier.peak,
        final_frontier=len(frontier),
    )
    return frontier


def pareto_frontier(
    problem: RejectionProblem,
) -> list[tuple[float, float, float]]:
    """The full accepted-workload/penalty trade-off curve.

    Returns the non-dominated ``(workload, rejected_penalty, cost)``
    triples in increasing-workload order — the design-space view behind
    :func:`pareto_exact` (whose answer is the triple with minimum cost).
    Useful for "what would accepting more work cost me" exploration.
    """
    cap = problem.capacity
    frontier = _build_frontier(problem, label="pareto_frontier")
    workloads, penalties = frontier.workloads, frontier.penalties
    kern = get_kernel()
    energies = kern.energy_table(
        problem.energy_fn, [min(float(w), cap) for w in workloads]
    )
    return [
        (float(w), float(p), float(e) + float(p))
        for w, p, e in zip(workloads, penalties, energies)
    ]


def pareto_exact(problem: RejectionProblem) -> RejectionSolution:
    """Optimal solution by dominance-pruned state enumeration.

    Exact for any non-decreasing energy function (convexity not
    required) and arbitrary float cycles/penalties.  Raises when the
    frontier exceeds :data:`MAX_FRONTIER` states (an adversarial
    instance; fall back to the FPTAS).
    """
    frontier = _build_frontier(
        problem,
        label="pareto_exact",
        guard_hint="; use fptas() for this instance",
    )

    kern = get_kernel()
    best, _ = kern.frontier_best(
        frontier.workloads, frontier.penalties, problem.capacity, problem.energy_fn
    )
    assert best >= 0  # the frontier always contains reject-all
    return problem.solution(
        frontier.accepted(best), algorithm="pareto_exact", frontier=len(frontier)
    )
