"""Energy function for non-ideal processors with discrete speed levels.

The classical two-level result (Ishihara & Yasuura, ISLPED'98): on a
convex power curve, executing a workload whose required average speed
falls between two available levels is done optimally by time-sharing the
two *adjacent* levels so the deadline is exactly filled.  This module
implements that policy plus the leakage-aware refinement: a dormant-enable
processor never time-shares below its *discrete critical level* (the
available level with minimum ``P(s)/s``); it runs there and sleeps.

The resulting ``g(W)`` is piecewise linear and convex unless a positive
transition overhead (``e_sw > 0`` *or* ``t_sw > 0``) flips the slack
policy between sleeping and idling mid-range, which introduces a concave
kink (see :meth:`DiscreteEnergyFunction.is_convex`).
"""

from __future__ import annotations

import math

from repro.energy.base import EnergyFunction, SpeedPlan, SpeedSegment
from repro.power.base import DormantMode, PowerModel
from repro.power.discrete import SpeedLevels


class DiscreteEnergyFunction(EnergyFunction):
    """``g(W)`` for a processor restricted to a finite level set.

    Parameters
    ----------
    power_model:
        Supplies ``P(s)`` at the available levels (its own ``s_min/s_max``
        must admit every level).
    levels:
        The available speeds.
    deadline:
        Frame deadline (or hyper-period) ``D``.
    dormant:
        When given, the processor is dormant-enable: slack is slept away
        (subject to the transition overheads) and the discrete critical
        level applies.  When None, the processor is dormant-disable:
        only dynamic power is counted (plus an optional constant floor),
        and workloads below the slowest level simply idle the remainder.
    include_static_floor:
        Dormant-disable only: add the unavoidable ``Pind * D``.
    """

    def __init__(
        self,
        power_model: PowerModel,
        levels: SpeedLevels,
        deadline: float,
        *,
        dormant: DormantMode | None = None,
        include_static_floor: bool = False,
    ) -> None:
        super().__init__(deadline)
        for level in levels:
            # Fail fast if the level set is inconsistent with the model.
            power_model.power(level)
        self._model = power_model
        self._levels = levels
        self._dormant = dormant
        self._include_floor = bool(include_static_floor)
        if dormant is not None:
            self._critical_level = min(
                levels, key=lambda s: power_model.power(s) / s
            )
        else:
            self._critical_level = levels.s_min
        self._fix_limit()

    @property
    def power_model(self) -> PowerModel:
        """The underlying processor model."""
        return self._model

    @property
    def levels(self) -> SpeedLevels:
        """The available speed levels."""
        return self._levels

    @property
    def dormant_enable(self) -> bool:
        """True when the processor can enter the dormant mode."""
        return self._dormant is not None

    @property
    def dormant(self) -> DormantMode | None:
        """Sleep-transition overheads (None for dormant-disable parts)."""
        return self._dormant

    @property
    def critical_level(self) -> float:
        """The available level with minimum energy per cycle."""
        return self._critical_level

    @property
    def max_workload(self) -> float:
        """``s_top * D`` cycles."""
        return self._levels.s_max * self._deadline

    @property
    def is_convex(self) -> bool:
        """True unless the sleep/idle switch introduces a kink in ``g``.

        Any positive transition overhead breaks convexity when there is
        static power to shed: ``e_sw > 0`` adds the classic concave kink
        where sleeping starts to beat idling, and ``t_sw > 0`` (even with
        ``e_sw == 0``) makes the slack cost jump from
        ``static_power · slack`` to the sleep cost at ``slack == t_sw`` —
        a discontinuous drop in ``g`` as the workload *decreases*, which
        no convex function has.
        """
        if self._dormant is None or self._model.static_power == 0.0:
            return True
        return self._dormant.e_sw == 0.0 and self._dormant.t_sw == 0.0

    def convex_lower_bound(self) -> "DiscreteEnergyFunction":
        """Zero-overhead-sleep relaxation (pointwise lower bound, convex)."""
        if self.is_convex:
            return self
        return DiscreteEnergyFunction(
            self._model,
            self._levels,
            self._deadline,
            dormant=DormantMode(t_sw=0.0, e_sw=0.0),
        )

    # ------------------------------------------------------------------ #
    # Policy                                                             #
    # ------------------------------------------------------------------ #

    def _level_power(self, speed: float) -> float:
        """Power counted at *speed*: full P for dormant-enable, else Pd."""
        if self._dormant is not None:
            return self._model._power(speed)
        return self._model._dynamic_power(speed)

    def _slack_cost(self, slack: float) -> tuple[float, bool]:
        """(energy, slept) for *slack* time units of no execution."""
        if slack <= 1e-12 * self._deadline:
            return (0.0, False)
        if self._dormant is None:
            # Dormant-disable: idle dynamic power is zero; the static part
            # is the constant floor handled in energy().
            return (0.0, False)
        idle_cost = self._model.static_power * slack
        if slack >= self._dormant.t_sw and self._dormant.e_sw < idle_cost:
            return (self._dormant.e_sw, True)
        return (idle_cost, False)

    def _split(self, workload: float) -> tuple[tuple[float, float], tuple[float, float]]:
        """Return ``((lo, t_lo), (hi, t_hi))`` executing *workload* cycles.

        Below the critical level the whole workload runs at the critical
        level (slack handled separately); otherwise the two adjacent
        levels around ``W / D`` exactly fill the deadline.
        """
        required = workload / self._deadline
        if required <= self._critical_level:
            return ((self._critical_level, workload / self._critical_level), (0.0, 0.0))
        lo, hi = self._levels.bracket(required)
        if math.isclose(lo, hi, rel_tol=1e-12):
            return ((lo, workload / lo), (0.0, 0.0))
        t_hi = (workload - lo * self._deadline) / (hi - lo)
        t_hi = min(max(t_hi, 0.0), self._deadline)
        t_lo = self._deadline - t_hi
        return ((lo, t_lo), (hi, t_hi))

    def _energy(self, workload: float) -> float:
        """Minimum energy under the adjacent-level time-sharing policy."""
        floor = (
            self._model.static_power * self._deadline
            if (self._dormant is None and self._include_floor)
            else 0.0
        )
        if workload == 0.0:
            return self._slack_cost(self._deadline)[0] + floor
        (lo, t_lo), (hi, t_hi) = self._split(workload)
        execution = t_lo * self._level_power(lo) + t_hi * self._level_power(hi)
        slack = self._deadline - (t_lo + t_hi)
        return execution + self._slack_cost(slack)[0] + floor

    def plan(self, workload: float) -> SpeedPlan:
        """Speed plan: slow level, fast level, then sleep/idle slack."""
        workload = self._check_workload(workload)
        energy = self._energy(workload)
        segments: list[SpeedSegment] = []
        clock = 0.0
        if workload > 0.0:
            (lo, t_lo), (hi, t_hi) = self._split(workload)
            if t_lo > 1e-12 * self._deadline:
                segments.append(SpeedSegment(clock, clock + t_lo, lo))
                clock += t_lo
            if t_hi > 1e-12 * self._deadline:
                segments.append(SpeedSegment(clock, clock + t_hi, hi))
                clock += t_hi
        slack = self._deadline - clock
        if slack > 1e-12 * self._deadline:
            _, slept = self._slack_cost(slack)
            tail = SpeedPlan.SLEEP_SPEED if slept else 0.0
            segments.append(SpeedSegment(clock, self._deadline, tail))
        return SpeedPlan(segments=tuple(segments), energy=energy)
