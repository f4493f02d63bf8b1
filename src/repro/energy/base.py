"""The :class:`EnergyFunction` interface and speed-plan value objects.

An :class:`EnergyFunction` answers, for one processor over one scheduling
horizon (a frame ``[0, D]`` or a hyper-period), the minimum energy needed
to retire ``W`` cycles of accepted workload, plus the speed plan that
achieves it.  Implementations must be convex and non-decreasing in ``W``
on ``[0, max_workload]`` — the rejection algorithms' correctness arguments
(fractional lower bound, branch-and-bound pruning, marginal-cost greedy)
rely on exactly that, and the property-based tests enforce it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Iterable
from dataclasses import dataclass

from repro._validation import (
    capacity_limit,
    fits,
    require_nonnegative,
    require_positive,
)


@dataclass(frozen=True)
class SpeedSegment:
    """A constant-speed interval of a speed plan.

    ``speed = 0`` denotes idling; ``speed = -1`` is reserved by
    :class:`SpeedPlan.sleep_segment` for the dormant mode.
    """

    start: float
    end: float
    speed: float

    def __post_init__(self) -> None:
        require_nonnegative("start", self.start)
        if self.end < self.start:
            raise ValueError(
                f"segment end {self.end!r} precedes start {self.start!r}"
            )

    @property
    def duration(self) -> float:
        """Length of the segment in time units."""
        return self.end - self.start

    @property
    def cycles(self) -> float:
        """Cycles retired during the segment (0 while idle or asleep)."""
        return self.duration * max(self.speed, 0.0)

    @property
    def is_sleep(self) -> bool:
        """True when the segment represents the dormant mode."""
        return self.speed == SpeedPlan.SLEEP_SPEED


@dataclass(frozen=True)
class SpeedPlan:
    """An ordered sequence of speed segments covering ``[0, horizon]``.

    Produced by :meth:`EnergyFunction.plan`; consumed by the frame
    executor in :mod:`repro.sched` and by the examples for reporting.
    """

    SLEEP_SPEED = -1.0

    segments: tuple[SpeedSegment, ...]
    energy: float

    def __post_init__(self) -> None:
        require_nonnegative("energy", self.energy)
        previous_end = 0.0
        for seg in self.segments:
            if not math.isclose(seg.start, previous_end, abs_tol=1e-9):
                raise ValueError(
                    f"speed plan has a gap/overlap at t={seg.start!r} "
                    f"(previous segment ended at {previous_end!r})"
                )
            previous_end = seg.end

    @property
    def horizon(self) -> float:
        """End time of the plan (0 for an empty plan)."""
        return self.segments[-1].end if self.segments else 0.0

    @property
    def total_cycles(self) -> float:
        """Total cycles retired by the plan."""
        return sum(seg.cycles for seg in self.segments)

    @property
    def busy_time(self) -> float:
        """Total time spent executing (speed > 0)."""
        return sum(seg.duration for seg in self.segments if seg.speed > 0)


class EnergyFunction(ABC):
    """Minimum energy to execute a workload within a fixed horizon.

    Parameters
    ----------
    deadline:
        The horizon ``D`` (frame deadline or hyper-period length).
    """

    def __init__(self, deadline: float) -> None:
        require_positive("deadline", deadline)
        self._deadline = float(deadline)

    @property
    def deadline(self) -> float:
        """The scheduling horizon ``D``."""
        return self._deadline

    @property
    @abstractmethod
    def max_workload(self) -> float:
        """Largest feasible workload (cycles); ``inf`` for ideal models."""

    def energy(self, workload: float) -> float:
        """Minimum energy (J) to retire *workload* cycles by the deadline.

        Raises ValueError when the workload is infeasible.
        """
        return self._energy(self._check_workload(workload))

    def energy_many(self, workloads: Iterable[float]) -> list[float]:
        """``[self.energy(w) for w in workloads]``, validating each once.

        Raises what that comprehension raises, on the same element.  The
        solver kernels price whole DP rows, frontiers and breakpoint sets
        through this one call, so the fast path of
        :meth:`_check_workload` is inlined here with the limit hoisted.
        """
        limit = capacity_limit(self.max_workload)
        energy, check = self._energy, self._check_workload
        return [
            energy(
                w
                if type(w) is float and 0.0 <= w <= limit and w != math.inf
                else check(w)
            )
            for w in workloads
        ]

    @abstractmethod
    def _energy(self, workload: float) -> float:
        """``g(W)`` for a float already accepted by :meth:`_check_workload`.

        Subclasses implement this instead of :meth:`energy`, and must not
        re-validate: the public entry points have done it once.
        """

    @abstractmethod
    def plan(self, workload: float) -> SpeedPlan:
        """A speed plan achieving :meth:`energy` for *workload*."""

    # ------------------------------------------------------------------ #
    # Conveniences shared by all implementations                         #
    # ------------------------------------------------------------------ #

    def is_feasible(self, workload: float) -> bool:
        """True when *workload* cycles fit before the deadline."""
        require_nonnegative("workload", workload)
        return fits(workload, self.max_workload)

    def marginal(self, workload: float, delta: float) -> float:
        """Energy increase from adding *delta* cycles on top of *workload*.

        ``g(W + delta) - g(W)``; the greedy algorithms price tasks with it.
        """
        require_nonnegative("delta", delta)
        return self.energy(workload + delta) - self.energy(workload)

    def _check_workload(self, workload: float) -> float:
        """*workload* as a float; raises unless it is a feasible workload.

        A plain float is accepted by one range test, which admits exactly
        the floats the full checks below admit.
        """
        if (
            type(workload) is float
            and 0.0 <= workload <= capacity_limit(self.max_workload)
            and workload != math.inf
        ):
            return workload
        require_nonnegative("workload", workload)
        if not fits(workload, self.max_workload):
            raise ValueError(
                f"workload {workload!r} exceeds the feasible maximum "
                f"{self.max_workload!r} for deadline {self._deadline!r}"
            )
        return float(workload)
