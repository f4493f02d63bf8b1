"""Task rejection on a heterogeneous DVS + non-DVS two-PE system.

The companion text's Section III-C pairs a DVS processor with a non-DVS
processing element (e.g. an FPGA): task ``τi`` costs ``ci`` cycles on the
DVS side or ``ui`` utilisation on the PE (total PE utilisation ≤ 100%).
This module extends that model with the rejection option — the natural
fusion of the two DATE'07 papers: each task is placed on the **DVS**
processor, on the **PE**, or **rejected** at penalty ``ρi``:

    minimize  g(Σ_DVS ci) + P_pe·D·(Σ_PE ui) + Σ_rej ρi
    s.t.      Σ_DVS ci ≤ s_max·D   and   Σ_PE ui ≤ 1

with a *workload-dependent* PE (energy ∝ utilisation, the companion's
``(P2·L)·U2`` model); a workload-independent PE is the special case
``pe_power·D`` charged iff any task lands there (also supported).

Algorithms: :func:`exhaustive_twope` (the 3ⁿ oracle, walked depth-first
with infeasible subtrees pruned and ``g`` evaluated once per distinct DVS
load; its guard counts the raw 3ⁿ) and :func:`greedy_twope`
(density-ordered marginal placement with a rejection-repair pass).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro._validation import (
    capacity_limit,
    fits,
    require_nonnegative,
    require_positive,
)
from repro.core.rejection.problem import CostBreakdown
from repro.energy.base import EnergyFunction
from repro.obs import counters as obs_counters
from repro.obs.trace import span
from repro.tasks.model import FrameTaskSet

#: Enumeration guard for the 3^n oracle.
MAX_ENUM = 3_000_000

#: Placement codes.
REJECT, DVS, PE = 0, 1, 2


@dataclass(frozen=True)
class TwoPeTask:
    """One task of the two-PE rejection problem.

    Attributes
    ----------
    name:
        Unique identifier.
    cycles:
        Execution cycles on the DVS processor.
    pe_utilization:
        Utilisation ``ui`` consumed on the non-DVS PE (0 < ui; a value
        above 1 means the task cannot run on the PE at all).
    penalty:
        Rejection penalty.
    """

    name: str
    cycles: float
    pe_utilization: float
    penalty: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("task name must be non-empty")
        require_positive("cycles", self.cycles)
        require_positive("pe_utilization", self.pe_utilization)
        require_nonnegative("penalty", self.penalty)


@dataclass(frozen=True)
class TwoPeProblem:
    """A two-PE rejection instance.

    Attributes
    ----------
    tasks:
        The task tuple (order defines indices).
    energy_fn:
        DVS-side workload→energy function (capacity = ``max_workload``).
    pe_power:
        Power of the non-DVS PE (W).
    workload_dependent:
        True: PE energy is ``pe_power·D·U2`` (utilisation-proportional);
        False: ``pe_power·D`` whenever at least one task is on the PE.
    """

    tasks: tuple[TwoPeTask, ...]
    energy_fn: EnergyFunction
    pe_power: float
    workload_dependent: bool = True

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a two-PE problem needs at least one task")
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            raise ValueError("task names must be unique")
        require_nonnegative("pe_power", self.pe_power)

    @property
    def n(self) -> int:
        """Number of tasks."""
        return len(self.tasks)

    @property
    def dvs_capacity(self) -> float:
        """DVS-side cycle capacity ``s_max·D``."""
        return self.energy_fn.max_workload

    def pe_energy(self, pe_utilization: float, any_on_pe: bool) -> float:
        """PE-side energy over the horizon."""
        horizon = self.energy_fn.deadline
        if self.workload_dependent:
            return self.pe_power * horizon * pe_utilization
        return self.pe_power * horizon if any_on_pe else 0.0

    def cost_of(self, placement: Sequence[int]) -> CostBreakdown:
        """Cost of a placement vector (entries REJECT/DVS/PE).

        Raises ValueError when either side's capacity is violated.
        """
        if len(placement) != self.n:
            raise ValueError(
                f"placement has {len(placement)} entries for {self.n} tasks"
            )
        dvs_cycles = 0.0
        pe_util = 0.0
        penalty = 0.0
        any_pe = False
        for task, where in zip(self.tasks, placement):
            if where == DVS:
                dvs_cycles += task.cycles
            elif where == PE:
                pe_util += task.pe_utilization
                any_pe = True
            elif where == REJECT:
                penalty += task.penalty
            else:
                raise ValueError(f"invalid placement code {where!r}")
        if pe_util > 1.0 + 1e-12:
            raise ValueError(f"PE utilisation {pe_util} exceeds 100%")
        energy = self.energy_fn.energy(min(dvs_cycles, self.dvs_capacity)) + (
            self.pe_energy(pe_util, any_pe)
        )
        if not fits(dvs_cycles, self.dvs_capacity):
            raise ValueError(
                f"DVS workload {dvs_cycles} exceeds {self.dvs_capacity}"
            )
        return CostBreakdown(energy=energy, penalty=penalty)


@dataclass(frozen=True, eq=False)
class TwoPeSolution:
    """A validated placement with its cost."""

    problem: TwoPeProblem
    placement: tuple[int, ...]
    breakdown: CostBreakdown
    algorithm: str

    @property
    def cost(self) -> float:
        """Total cost."""
        return self.breakdown.total

    @property
    def on_dvs(self) -> tuple[int, ...]:
        """Indices on the DVS processor."""
        return tuple(i for i, w in enumerate(self.placement) if w == DVS)

    @property
    def on_pe(self) -> tuple[int, ...]:
        """Indices on the non-DVS PE."""
        return tuple(i for i, w in enumerate(self.placement) if w == PE)

    @property
    def rejected(self) -> tuple[int, ...]:
        """Rejected indices."""
        return tuple(i for i, w in enumerate(self.placement) if w == REJECT)


def _solution(problem: TwoPeProblem, placement, algorithm: str) -> TwoPeSolution:
    placement = tuple(placement)
    return TwoPeSolution(
        problem=problem,
        placement=placement,
        breakdown=problem.cost_of(placement),
        algorithm=algorithm,
    )


def exhaustive_twope(problem: TwoPeProblem) -> TwoPeSolution:
    """Optimal placement over all 3ⁿ placements (oracle-sized instances).

    A depth-first walk over tasks in index order, trying REJECT, DVS, PE
    at each task, so leaves arrive in ``itertools.product`` order and
    the strict ``<`` keeps the first minimum.  The running DVS load, PE
    utilisation and penalty add the same floats in the same order as a
    per-leaf sum, and a subtree is pruned at its first capacity
    violation.  Each side's energy is priced where its load changes and
    carried down to the leaves, ``g`` once per distinct DVS load (at most
    2ⁿ).  The guard still counts the raw 3ⁿ.
    """
    count = 3**problem.n
    if count > MAX_ENUM:
        raise ValueError(
            f"{count} placements exceed the enumeration guard ({MAX_ENUM})"
        )
    g = problem.energy_fn
    cap = problem.dvs_capacity
    limit = capacity_limit(cap)
    tasks = problem.tasks
    n = problem.n
    pe_energy = problem.pe_energy
    energies: dict[float, float] = {}  # g per distinct DVS load
    placement = [REJECT] * n
    best_cost = math.inf
    best: tuple[int, ...] | None = None

    def walk(
        i: int, dvs: float, energy: float, pe: float, pe_cost: float, penalty: float
    ) -> None:
        nonlocal best_cost, best
        if i == n:
            cost = energy + pe_cost + penalty
            if cost < best_cost:
                best_cost, best = cost, tuple(placement)
            return
        task = tasks[i]
        placement[i] = REJECT
        walk(i + 1, dvs, energy, pe, pe_cost, penalty + task.penalty)
        load = dvs + task.cycles
        if load <= limit:
            placement[i] = DVS
            loaded = energies.get(load)
            if loaded is None:
                loaded = energies[load] = g.energy(min(load, cap))
            walk(i + 1, load, loaded, pe, pe_cost, penalty)
        util = pe + task.pe_utilization
        if util <= 1.0 + 1e-12:
            placement[i] = PE
            walk(i + 1, dvs, energy, util, pe_energy(util, True), penalty)

    energies[0.0] = g.energy(0.0)
    with span("solve.exhaustive_twope", n=n):
        walk(0, 0.0, energies[0.0], 0.0, pe_energy(0.0, False), 0.0)
    obs_counters.emit(
        "exhaustive_twope",
        calls=1,
        placements=count,
        energy_evals=len(energies),
    )
    if best is None:  # pragma: no cover - all-reject is always valid
        raise AssertionError("no valid placement")
    return _solution(problem, best, "exhaustive_twope")


def greedy_twope(problem: TwoPeProblem) -> TwoPeSolution:
    """Marginal-cost greedy placement.

    Tasks are considered in non-increasing ``penalty / min-resource``
    density (most valuable per unit of either resource first); each task
    takes whichever of {DVS, PE, reject} has the lowest *marginal* cost
    at the current partial state, honouring both capacities.  A final
    repair sweep re-evaluates every placed task against rejection (the
    marginal picture sharpens once the loads are known).
    """
    g = problem.energy_fn
    cap = problem.dvs_capacity
    order = sorted(
        range(problem.n),
        key=lambda i: problem.tasks[i].penalty
        / min(problem.tasks[i].cycles, problem.tasks[i].pe_utilization * cap),
        reverse=True,
    )
    placement = [REJECT] * problem.n
    dvs = pe = 0.0
    any_pe = False

    def pe_marginal(task: TwoPeTask) -> float:
        if problem.workload_dependent:
            return problem.pe_power * g.deadline * task.pe_utilization
        return 0.0 if any_pe else problem.pe_power * g.deadline

    for i in order:
        task = problem.tasks[i]
        options: list[tuple[float, int]] = [(task.penalty, REJECT)]
        if fits(dvs + task.cycles, cap):
            marginal = g.energy(min(dvs + task.cycles, cap)) - g.energy(dvs)
            options.append((marginal, DVS))
        if task.pe_utilization <= 1.0 and pe + task.pe_utilization <= 1.0 + 1e-12:
            options.append((pe_marginal(task), PE))
        _, choice = min(options, key=lambda pair: pair[0])
        placement[i] = choice
        if choice == DVS:
            dvs += task.cycles
        elif choice == PE:
            pe += task.pe_utilization
            any_pe = True

    # Local search over single-task moves AND pairwise placement swaps.
    # The construction order biases early tasks toward the then-cheap
    # DVS marginals; single moves undo that myopia, and swaps unblock
    # the full-PE situations where admitting a better task requires
    # trading places with a worse one.  Each accepted move strictly
    # decreases the cost, so the loop terminates (guard = fp insurance).
    def evaluate(candidate: list[int]) -> float:
        """Cost of a placement, or +inf when it violates a capacity."""
        dvs_load = sum(
            t.cycles for t, w in zip(problem.tasks, candidate) if w == DVS
        )
        pe_load = sum(
            t.pe_utilization for t, w in zip(problem.tasks, candidate) if w == PE
        )
        if not fits(dvs_load, cap) or not fits(pe_load, 1.0):
            return math.inf
        penalty = sum(
            t.penalty for t, w in zip(problem.tasks, candidate) if w == REJECT
        )
        return (
            g.energy(min(dvs_load, cap))
            + problem.pe_energy(pe_load, pe_load > 0.0)
            + penalty
        )

    current = evaluate(placement)
    sweeps = moves = evaluations = 0
    with span("solve.greedy_twope", n=problem.n):
        for _ in range(10 * problem.n + 10):
            sweeps += 1
            best_cost = current
            best_placement: list[int] | None = None
            for i in range(problem.n):
                here = placement[i]
                for where in (REJECT, DVS, PE):
                    if where == here:
                        continue
                    placement[i] = where
                    candidate = evaluate(placement)
                    evaluations += 1
                    placement[i] = here
                    if candidate < best_cost - 1e-12:
                        best_cost = candidate
                        best_placement = list(placement)
                        best_placement[i] = where
            for i in range(problem.n):
                for j in range(i + 1, problem.n):
                    if placement[i] == placement[j]:
                        continue
                    placement[i], placement[j] = placement[j], placement[i]
                    candidate = evaluate(placement)
                    evaluations += 1
                    if candidate < best_cost - 1e-12:
                        best_cost = candidate
                        best_placement = list(placement)
                    placement[i], placement[j] = placement[j], placement[i]
            if best_placement is None:
                break
            placement = best_placement
            moves += 1
            current = best_cost
    obs_counters.emit(
        "greedy_twope",
        calls=1,
        sweeps=sweeps,
        moves=moves,
        evaluations=evaluations,
    )
    return _solution(problem, placement, "greedy_twope")


def tasks_from_frame(
    frame: FrameTaskSet,
    pe_utilizations: Sequence[float],
) -> tuple[TwoPeTask, ...]:
    """Pair a frame task set with per-task PE utilisations."""
    if len(frame) != len(pe_utilizations):
        raise ValueError(
            f"{len(frame)} tasks but {len(pe_utilizations)} PE utilisations"
        )
    return tuple(
        TwoPeTask(
            name=t.name,
            cycles=t.cycles,
            pe_utilization=float(u),
            penalty=t.penalty,
        )
        for t, u in zip(frame, pe_utilizations)
    )
