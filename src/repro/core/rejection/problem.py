"""Problem and solution value objects for REJECT-MIN.

The reconstructed problem (DESIGN.md §1.1): choose an accepted subset
``A`` of the frame tasks with feasible workload, minimising

    cost(A) = g(Σ_{i∈A} ci)  +  Σ_{i∉A} ρi

where ``g`` is the processor's convex workload→energy function.  A
:class:`RejectionProblem` bundles the task set with the energy function;
every algorithm takes one and returns a :class:`RejectionSolution`, which
is *always* validated (feasibility + cost arithmetic) at construction.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro._validation import fits
from repro.energy.base import EnergyFunction
from repro.tasks.model import FrameTaskSet


@dataclass(frozen=True)
class CostBreakdown:
    """The two halves of a solution's cost."""

    energy: float
    penalty: float

    @property
    def total(self) -> float:
        """``energy + penalty``."""
        return self.energy + self.penalty


def task_columns(tasks: FrameTaskSet) -> tuple[tuple, tuple]:
    """``(cycles, penalties)`` of *tasks*, each a tuple in task order.

    The values are stored as given (not cast), so sums over a column add
    the same numbers in the same order as sums over the tasks.
    """
    return tuple(t.cycles for t in tasks), tuple(t.penalty for t in tasks)


@dataclass(frozen=True)
class RejectionProblem:
    """An instance of REJECT-MIN.

    Attributes
    ----------
    tasks:
        The frame task set (cycles + rejection penalties).
    energy_fn:
        The processor's workload→energy function; its ``max_workload``
        is the feasibility cap ``s_max · D``.
    cycles, penalties:
        The tasks' cycles and penalties, tuples in task order, fixed at
        construction so solvers and evaluations read plain values.
    acceptable:
        Indices of the tasks whose cycles alone fit the capacity.

    The columns take no part in ``==``, ``hash`` or ``repr``.
    """

    tasks: FrameTaskSet
    energy_fn: EnergyFunction
    cycles: tuple = field(init=False, repr=False, compare=False)
    penalties: tuple = field(init=False, repr=False, compare=False)
    acceptable: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.tasks) == 0:
            raise ValueError("a rejection problem needs at least one task")
        cycles, penalties = task_columns(self.tasks)
        cap = self.energy_fn.max_workload
        acceptable: list[int] = []
        # A single task larger than the capacity can never be accepted;
        # that is legal (it will always be rejected) but worth allowing
        # explicitly rather than crashing mid-algorithm.
        never: list[str] = []
        for i, (task, c) in enumerate(zip(self.tasks, cycles)):
            if fits(c, cap):
                acceptable.append(i)
            else:
                never.append(task.name)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "penalties", penalties)
        object.__setattr__(self, "acceptable", tuple(acceptable))
        object.__setattr__(self, "_never_acceptable", frozenset(never))

    @property
    def n(self) -> int:
        """Number of tasks."""
        return len(self.tasks)

    @property
    def capacity(self) -> float:
        """The feasibility cap on accepted cycles, ``s_max · D``."""
        return self.energy_fn.max_workload

    @property
    def never_acceptable(self) -> frozenset[str]:
        """Names of tasks individually larger than the capacity."""
        return self._never_acceptable  # type: ignore[attr-defined]

    @property
    def overload(self) -> float:
        """System load ``η = Σci / capacity`` (may be ``> 1`` or 0-div-safe)."""
        cap = self.capacity
        if not math.isfinite(cap) or cap == 0.0:
            return 0.0
        return self.tasks.total_cycles / cap

    # ------------------------------------------------------------------ #
    # Evaluation                                                         #
    # ------------------------------------------------------------------ #

    def workload(self, accepted: Iterable[int]) -> float:
        """Total cycles of the tasks at *accepted* indices.

        Each distinct index counts once.  Raises ``IndexError`` for an
        index outside ``range(n)``: a negative one must not alias a task
        counted from the end.
        """
        chosen = set(accepted)
        cycles = self.cycles
        if chosen and (min(chosen) < 0 or max(chosen) >= len(cycles)):
            bad = next(i for i in chosen if not 0 <= i < len(cycles))
            raise IndexError(f"task index {bad} out of range")
        return sum(map(cycles.__getitem__, chosen))

    def fits(self, load: float) -> bool:
        """True when *load* cycles fit the capacity (shared fp tolerance).

        The single capacity predicate every solver must use; mixing it
        with strict ``<=`` comparisons makes heuristics and exact solvers
        disagree on tasks whose cycles sit a few ulp above the capacity.
        """
        return fits(load, self.capacity)

    def is_feasible(self, accepted: Iterable[int]) -> bool:
        """True when the accepted workload fits the capacity."""
        return self.energy_fn.is_feasible(self.workload(accepted))

    def cost(self, accepted: Iterable[int]) -> CostBreakdown:
        """Cost of accepting exactly the tasks at *accepted* indices.

        Raises ValueError when the accepted workload is infeasible, and
        IndexError (from :meth:`workload`) for an index outside ``range(n)``.
        """
        accepted_set = set(accepted)
        energy = self.energy_fn.energy(self.workload(accepted_set))
        penalty = sum(
            [p for i, p in enumerate(self.penalties) if i not in accepted_set]
        )
        return CostBreakdown(energy=energy, penalty=penalty)

    def solution(
        self, accepted: Iterable[int], *, algorithm: str, **meta: object
    ) -> "RejectionSolution":
        """Build a validated :class:`RejectionSolution`."""
        accepted_set = frozenset(accepted)
        breakdown = self.cost(accepted_set)
        return RejectionSolution(
            problem=self,
            accepted=accepted_set,
            breakdown=breakdown,
            algorithm=algorithm,
            meta=dict(meta),
        )

    def accept_all_cost(self) -> CostBreakdown | None:
        """Cost of accepting every task, or None when infeasible."""
        everyone = range(self.n)
        if not self.is_feasible(everyone):
            return None
        return self.cost(everyone)

    def reject_all_cost(self) -> CostBreakdown:
        """Cost of rejecting every task (a trivial upper bound)."""
        return self.cost(())


@dataclass(frozen=True, eq=False)
class RejectionSolution:
    """An accepted subset plus its validated cost.

    Instances are produced via :meth:`RejectionProblem.solution`, which
    guarantees feasibility; compare solutions by :attr:`cost`.
    """

    problem: RejectionProblem
    accepted: frozenset[int]
    breakdown: CostBreakdown
    algorithm: str
    meta: dict = field(default_factory=dict)

    @property
    def cost(self) -> float:
        """Total cost ``energy + penalty``."""
        return self.breakdown.total

    @property
    def energy(self) -> float:
        """Energy part of the cost."""
        return self.breakdown.energy

    @property
    def penalty(self) -> float:
        """Penalty part of the cost."""
        return self.breakdown.penalty

    @property
    def rejected(self) -> frozenset[int]:
        """Indices of the rejected tasks."""
        return frozenset(range(self.problem.n)) - self.accepted

    @property
    def accepted_tasks(self) -> FrameTaskSet:
        """The accepted tasks as a task set."""
        return self.problem.tasks.subset(self.accepted)

    @property
    def rejected_tasks(self) -> FrameTaskSet:
        """The rejected tasks as a task set."""
        return self.problem.tasks.subset(self.rejected)

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of tasks accepted."""
        return len(self.accepted) / self.problem.n

    @property
    def workload(self) -> float:
        """Accepted cycles."""
        return self.problem.workload(self.accepted)

    def speed_plan(self):
        """The speed plan executing the accepted workload optimally."""
        return self.problem.energy_fn.plan(self.workload)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RejectionSolution(algorithm={self.algorithm!r}, "
            f"cost={self.cost:.6g}, accepted={sorted(self.accepted)})"
        )


def best_solution(*candidates: RejectionSolution | None) -> RejectionSolution:
    """The lowest-cost non-None candidate (raises when all are None)."""
    viable = [c for c in candidates if c is not None]
    if not viable:
        raise ValueError("no feasible candidate solution")
    return min(viable, key=lambda s: s.cost)
