"""Polynomial-time heuristics for REJECT-MIN.

The paper (per its citation in the companion text) contributes "hardness
analysis and heuristic algorithms"; these are the reconstruction's
heuristic family:

* :func:`greedy_density`   — reject in non-decreasing penalty-per-cycle
  (``ρ/c``) order while the cost keeps improving.  Cheap tasks per cycle
  shed the most workload (= the most convex energy) per unit of penalty.
* :func:`greedy_marginal`  — reject, repeatedly, the single task whose
  rejection improves the cost the most (``ρi`` vs the *marginal* energy
  ``g(W) − g(W − ci)``); strictly stronger than density ordering on
  heterogeneous instances, at O(n²) energy evaluations.
* :func:`accept_all_repair` — naive admission control: accept everything,
  restore feasibility by dropping the largest tasks.  The baseline a
  rejection-aware scheduler must beat.
* :func:`reject_random`    — arrival-order (or shuffled) first-fit
  admission, the RAND-style reference of the companion text's
  experiments.

All of them begin by excluding tasks that can never be accepted
(``ci > s_max·D``) and by restoring feasibility, so the returned
solutions are always valid.  The order scans — density sorting, the
prefix-capacity sweep, the improving-prefix scan, and the marginal
argmin — run on the active array kernel (:mod:`repro.kernels`).
"""

from __future__ import annotations

from repro.core.rejection.problem import RejectionProblem, RejectionSolution
from repro.kernels import get_kernel
from repro.obs import counters as obs_counters
from repro.obs.trace import span


def _acceptable_indices(problem: RejectionProblem) -> list[int]:
    """Indices of tasks that individually fit the capacity."""
    return [
        i for i, t in enumerate(problem.tasks) if problem.fits(t.cycles)
    ]


def _restore_feasibility(
    problem: RejectionProblem, accepted: set[int], order: list[int], kern=None
) -> int:
    """Reject the shortest prefix of *order* that makes the workload fit.

    Returns the number of forced rejections.  The sweep is the kernel's
    :meth:`~repro.kernels.Kernel.prefix_reject_count` over the ordered
    candidates' cycles.
    """
    kern = kern or get_kernel()
    candidates = [i for i in order if i in accepted]
    cycles = [problem.tasks[i].cycles for i in candidates]
    k, _ = kern.prefix_reject_count(
        cycles, problem.workload(accepted), problem.capacity
    )
    for i in candidates[:k]:
        accepted.discard(i)
    if not problem.fits(problem.workload(accepted)):  # pragma: no cover
        raise AssertionError("feasibility restoration exhausted the order")
    return k


def _improving_scan(
    problem: RejectionProblem, accepted: set[int], order: list[int], kern
) -> tuple[int, int]:
    """Reject the longest improving prefix of *order*'s remaining tasks.

    Returns ``(scanned, improved)`` — candidates examined and candidates
    actually rejected (the scan stops at the first non-improving one).
    """
    remaining = [i for i in order if i in accepted]
    count, _ = kern.improving_prefix(
        problem.workload(accepted),
        [problem.tasks[i].cycles for i in remaining],
        [problem.tasks[i].penalty for i in remaining],
        problem.energy_fn,
    )
    for i in remaining[:count]:
        accepted.discard(i)
    return min(count + 1, len(remaining)), count


def greedy_density(problem: RejectionProblem) -> RejectionSolution:
    """Reject in non-decreasing ``ρ/c`` order while the cost improves.

    Two phases: (1) reject in density order until the workload is
    feasible — mandatory in overload; (2) keep scanning the same order,
    rejecting every task whose penalty is below the marginal energy it
    releases, stopping at the first non-improving candidate (the marginal
    energy only shrinks as more work is shed, so later, denser candidates
    rarely help).
    """
    kern = get_kernel()
    idx = _acceptable_indices(problem)
    accepted = set(idx)
    positions = kern.density_order(
        [problem.tasks[i].cycles for i in idx],
        [problem.tasks[i].penalty for i in idx],
    )
    order = [idx[k] for k in positions]
    with span("solve.greedy_density", n=problem.n):
        forced = _restore_feasibility(problem, accepted, order, kern)
        scanned, improved = _improving_scan(problem, accepted, order, kern)
    obs_counters.emit(
        "greedy_density",
        calls=1,
        scanned=scanned,
        forced_rejections=forced,
        improving_rejections=improved,
    )
    return problem.solution(accepted, algorithm="greedy_density")


def greedy_marginal(problem: RejectionProblem) -> RejectionSolution:
    """Repeatedly reject the task with the best marginal cost delta.

    Each round prices every accepted task at
    ``Δi = ρi − (g(W) − g(W − ci))`` and rejects the minimiser while it is
    negative.  Terminates after at most ``n`` rounds (each rejection is
    permanent).  Rounds scan the active tasks in ascending index order,
    so ties resolve to the lowest index on every kernel.
    """
    kern = get_kernel()
    accepted = set(_acceptable_indices(problem))
    density_order = sorted(
        accepted, key=lambda i: problem.tasks[i].penalty_density
    )
    with span("solve.greedy_marginal", n=problem.n):
        _restore_feasibility(problem, accepted, density_order, kern)
        workload = problem.workload(accepted)
        active = sorted(accepted)
        rounds = evaluations = rejections = 0
        while active:
            rounds += 1
            evaluations += len(active)
            best = kern.marginal_best(
                workload,
                [problem.tasks[i].cycles for i in active],
                [problem.tasks[i].penalty for i in active],
                problem.energy_fn,
            )
            if best < 0:
                break
            i = active.pop(best)
            accepted.discard(i)
            workload -= problem.tasks[i].cycles
            rejections += 1
    obs_counters.emit(
        "greedy_marginal",
        calls=1,
        rounds=rounds,
        evaluations=evaluations,
        rejections=rejections,
    )
    return problem.solution(accepted, algorithm="greedy_marginal")


def greedy_ordered(
    problem: RejectionProblem,
    order_key,
    *,
    name: str = "greedy_ordered",
) -> RejectionSolution:
    """The greedy-density machinery under an arbitrary rejection order.

    *order_key* maps a :class:`repro.tasks.FrameTask` to its sort key;
    tasks are considered for rejection in ascending key order.  Used by
    the Fig R8 ordering ablation (``ρ/c`` vs ``ρ`` vs ``−c`` vs ...);
    ``greedy_density`` is exactly ``greedy_ordered(p, t -> ρ/c)``.
    """
    kern = get_kernel()
    accepted = set(_acceptable_indices(problem))
    order = sorted(accepted, key=lambda i: order_key(problem.tasks[i]))
    _restore_feasibility(problem, accepted, order, kern)
    _improving_scan(problem, accepted, order, kern)
    return problem.solution(accepted, algorithm=name)


def accept_all_repair(problem: RejectionProblem) -> RejectionSolution:
    """Accept everything; drop largest-cycle tasks until feasible.

    The classic overload repair of admission control without any energy
    awareness — the baseline the rejection-aware algorithms are measured
    against.
    """
    accepted = set(_acceptable_indices(problem))
    largest_first = sorted(
        accepted, key=lambda i: problem.tasks[i].cycles, reverse=True
    )
    _restore_feasibility(problem, accepted, largest_first)
    return problem.solution(accepted, algorithm="accept_all_repair")


def reject_random(
    problem: RejectionProblem,
    rng=None,
) -> RejectionSolution:
    """First-fit admission in task order (shuffled when *rng* is given).

    Walks the tasks once and accepts each one that still fits the
    remaining capacity; everything else is rejected.  No energy
    awareness, no sorting — the RAND reference point.  *rng* is anything
    with a ``permutation(n)`` method (e.g. ``numpy.random.Generator``);
    the module itself stays NumPy-free.
    """
    order = list(range(problem.n))
    if rng is not None:
        order = [int(i) for i in rng.permutation(problem.n)]
    accepted: set[int] = set()
    workload = 0.0
    for i in order:
        cycles = problem.tasks[i].cycles
        if problem.fits(workload + cycles):
            accepted.add(i)
            workload += cycles
    return problem.solution(accepted, algorithm="reject_random")
