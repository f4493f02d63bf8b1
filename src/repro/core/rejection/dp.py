"""Pseudo-polynomial dynamic programs for REJECT-MIN.

Two classic axes:

* :func:`dp_cycles`  — table indexed by accepted cycles.  Exact when
  task cycles are integer multiples of the quantum; with a coarser
  quantum it becomes the granularity-ablation algorithm of Tab R3
  (cycles are rounded *up*, so the returned subset is always feasible
  for the true instance).
* :func:`dp_penalty` — table indexed by rejected penalty, storing the
  maximum shed cycles per penalty level.  Exact for integer penalties;
  it is also the engine of the FPTAS (:mod:`repro.core.rejection.fptas`),
  which feeds it scaled penalties.

Both run in O(n · table) with the whole table sweep and the final level
scan delegated to the active array kernel (:mod:`repro.kernels`), one
call each, keeping the per-task decision bits for O(n) reconstruction.
"""

from __future__ import annotations

import math

from repro.core.rejection.problem import RejectionProblem, RejectionSolution
from repro.kernels import get_kernel
from repro.obs import counters as obs_counters
from repro.obs.trace import span

#: Refuse to allocate DP tables beyond this many cells (per stage).
MAX_TABLE_CELLS = 50_000_000


def _check_table(cells: int, what: str) -> None:
    if cells > MAX_TABLE_CELLS:
        raise ValueError(
            f"{what} needs {cells} DP cells (> {MAX_TABLE_CELLS}); "
            "coarsen the quantum or use the FPTAS"
        )


def dp_cycles(
    problem: RejectionProblem,
    *,
    quantum: float = 1.0,
    round_cycles: bool = False,
) -> RejectionSolution:
    """DP over accepted cycles; exact on quantum-aligned instances.

    Parameters
    ----------
    quantum:
        Cycle grid size.  Every task's cycles must be an integer multiple
        of it (to 1e-9 relative) unless ``round_cycles`` is set.
    round_cycles:
        Round task cycles *up* to the grid.  The DP then optimises the
        rounded instance; the reconstructed subset is evaluated against
        the true instance (rounding up can only shrink the accepted set's
        true workload, so feasibility is preserved).
    """
    if quantum <= 0:
        raise ValueError(f"quantum must be > 0, got {quantum!r}")
    units: list[int] = []
    for task in problem.tasks:
        exact = task.cycles / quantum
        if round_cycles:
            units.append(max(1, math.ceil(exact - 1e-9)))
        else:
            nearest = round(exact)
            if nearest < 1 or abs(exact - nearest) > 1e-9 * max(1.0, exact):
                raise ValueError(
                    f"task {task.name!r} cycles {task.cycles} are not a "
                    f"multiple of quantum {quantum}; pass round_cycles=True"
                )
            units.append(int(nearest))

    cap_units = int(math.floor(problem.capacity / quantum + 1e-9))
    w_max = min(sum(units), cap_units)
    _check_table((w_max + 1), "dp_cycles")

    kern = get_kernel()
    # dp[w] = min rejected penalty with accepted cycles exactly w units.
    with span("solve.dp_cycles", n=problem.n, width=w_max + 1):
        dp, decisions = kern.dp_sweep_min(units, problem.penalties, w_max + 1)
        best_w, _ = kern.best_workload_level(
            dp, quantum, problem.capacity, problem.energy_fn
        )
    obs_counters.emit(
        "dp_cycles",
        calls=1,
        width=w_max + 1,
        cells=(w_max + 1) * problem.n,
    )

    if best_w < 0:  # pragma: no cover - dp[0] is always finite
        raise AssertionError("empty DP table")

    accepted: list[int] = []
    w = best_w
    for i in range(problem.n - 1, -1, -1):
        if decisions[i][w]:
            accepted.append(i)
            w -= units[i]
    if w != 0:  # pragma: no cover - reconstruction invariant
        raise AssertionError("DP reconstruction did not return to the origin")
    return problem.solution(
        accepted,
        algorithm="dp_cycles",
        quantum=quantum,
        rounded=round_cycles,
    )


def _dp_over_penalties(units: list[int], cycles: list[float], kern=None):
    """Core penalty-indexed DP.

    ``dp[p]`` is the maximum cycles shed by rejecting a subset with
    integer penalty sum exactly ``p`` (−inf when unreachable); the
    decision table says, per task, whether the entry at ``p`` rejected
    it.  The row and the table are kernel-native.
    """
    kern = kern or get_kernel()
    p_max = sum(units)
    _check_table(p_max + 1, "dp_penalty")
    return kern.dp_sweep_max(units, cycles, p_max + 1)


def dp_penalty(problem: RejectionProblem, *, quantum: float = 1.0) -> RejectionSolution:
    """DP over rejected penalty; exact on quantum-aligned penalties.

    For each reachable integer penalty level ``p`` the table stores the
    maximum cycles that can be shed at that price; since the energy
    function is non-decreasing, shedding the most cycles is optimal per
    level, and the answer is the cheapest
    ``g(C − shed) + p·quantum`` over feasible levels.
    """
    if quantum <= 0:
        raise ValueError(f"quantum must be > 0, got {quantum!r}")
    units: list[int] = []
    for task in problem.tasks:
        exact = task.penalty / quantum
        nearest = round(exact)
        if abs(exact - nearest) > 1e-9 * max(1.0, exact):
            raise ValueError(
                f"task {task.name!r} penalty {task.penalty} is not a "
                f"multiple of quantum {quantum}"
            )
        units.append(int(nearest))

    cycles = problem.cycles
    total = sum(cycles)
    kern = get_kernel()
    with span("solve.dp_penalty", n=problem.n, width=sum(units) + 1):
        dp, decisions = _dp_over_penalties(units, cycles, kern)
        best_p, _ = kern.best_penalty_level(
            dp, total, problem.capacity, problem.energy_fn, quantum
        )
    obs_counters.emit(
        "dp_penalty",
        calls=1,
        width=sum(units) + 1,
        cells=(sum(units) + 1) * problem.n,
    )

    if best_p < 0:
        raise ValueError(
            "no feasible penalty level; every subset exceeds the capacity "
            "(this cannot happen: rejecting everything is always feasible)"
        )

    rejected: set[int] = set()
    p = best_p
    for i in range(problem.n - 1, -1, -1):
        if decisions[i][p]:
            rejected.add(i)
            p -= units[i]
    if p != 0:  # pragma: no cover - reconstruction invariant
        raise AssertionError("DP reconstruction did not return to the origin")
    accepted = [i for i in range(problem.n) if i not in rejected]
    return problem.solution(accepted, algorithm="dp_penalty", quantum=quantum)
