"""Energy function for a dormant-enable processor with leakage.

Leakage makes "as slow as possible" wrong: below the critical speed
``s*`` (the minimiser of ``P(s)/s``), stretching execution accrues more
static energy than the dynamic term saves.  The optimal single-processor
policy for ``W`` cycles in ``[0, D]`` is therefore:

* execute at ``s = clamp(max(W / D, s*))``;
* spend the slack ``D - W/s`` in the cheaper of (a) idling at ``Pind`` or
  (b) the dormant mode, paying the transition energy ``e_sw`` once, when
  the slack exceeds the break-even time.

With a zero-overhead dormant mode (``e_sw = t_sw = 0``) the resulting
``g(W)`` is convex (linear at slope ``P(s*)/s*`` up to ``W = s* D``, then
``D * P(W/D)``).  Any positive transition overhead breaks that: with
``e_sw > 0`` the sleep-vs-idle switch introduces one concave kink, and
with ``t_sw > 0`` alone the slack cost jumps at ``slack == t_sw``.
Algorithms that need convexity should call
:meth:`CriticalSpeedEnergyFunction.convex_lower_bound` (the zero-overhead
relaxation, a true pointwise lower bound).
"""

from __future__ import annotations

import math

from repro.energy.base import (
    EnergyFunction,
    SpeedPlan,
    SpeedSegment,
    power_overflow,
)
from repro.power.base import DormantMode, PowerModel


class CriticalSpeedEnergyFunction(EnergyFunction):
    """Leakage-aware ``g(W)`` for a dormant-enable processor.

    Parameters
    ----------
    power_model:
        The processor; ``static_power`` is the leakage the dormant mode
        can shed.
    deadline:
        Frame deadline (or hyper-period) ``D``.
    dormant:
        Sleep-transition overheads; the default zero-overhead mode yields
        the convex ``e_sw = 0`` model of the LA+LTF analysis.
    """

    def __init__(
        self,
        power_model: PowerModel,
        deadline: float,
        *,
        dormant: DormantMode | None = None,
    ) -> None:
        super().__init__(deadline)
        self._model = power_model
        self._dormant = dormant if dormant is not None else DormantMode()
        self._s_star = power_model.critical_speed()
        self._fix_limit()

    @property
    def power_model(self) -> PowerModel:
        """The underlying processor model."""
        return self._model

    @property
    def dormant(self) -> DormantMode:
        """Sleep-transition overheads."""
        return self._dormant

    @property
    def critical_speed(self) -> float:
        """``s*`` — the energy-per-cycle-optimal speed, within the range."""
        return self._s_star

    @property
    def max_workload(self) -> float:
        """``s_max * D`` cycles."""
        return self._model.s_max * self._deadline

    @property
    def is_convex(self) -> bool:
        """True when ``g`` is convex (zero-overhead sleep, or nothing to shed).

        Both transition overheads matter: ``e_sw > 0`` adds the concave
        sleep-vs-idle kink, and ``t_sw > 0`` alone (with ``e_sw == 0``)
        makes the slack cost jump between ``static_power · slack`` and the
        free sleep at ``slack == t_sw``, a discontinuity no convex
        function has.
        """
        if self._model.static_power == 0.0:
            return True
        return self._dormant.e_sw == 0.0 and self._dormant.t_sw == 0.0

    def convex_lower_bound(self) -> "CriticalSpeedEnergyFunction":
        """The ``e_sw = 0`` relaxation: convex and a pointwise lower bound."""
        return CriticalSpeedEnergyFunction(
            self._model, self._deadline, dormant=DormantMode(t_sw=0.0, e_sw=0.0)
        )

    # ------------------------------------------------------------------ #
    # Core policy                                                        #
    # ------------------------------------------------------------------ #

    def execution_speed(self, workload: float) -> float:
        """The constant execution speed for *workload* cycles (0 if none)."""
        return self._speed(self._check_workload(workload))

    def _speed(self, workload: float) -> float:
        if workload == 0.0:
            return 0.0
        speed = max(workload / self._deadline, self._s_star)
        if speed == math.inf:  # W/D overflowed: only an unbounded s_max allows it
            return self._model.clamp_speed(speed)  # raises
        return self._model._clamp_speed(speed)

    def _slack_cost(self, slack: float) -> tuple[float, bool]:
        """(energy, slept) for spending *slack* time off the workload."""
        if slack <= 1e-12 * self._deadline:
            return (0.0, False)
        idle_cost = self._model.static_power * slack
        can_sleep = slack >= self._dormant.t_sw
        if can_sleep and self._dormant.e_sw < idle_cost:
            return (self._dormant.e_sw, True)
        return (idle_cost, False)

    def _energy(self, workload: float) -> float:
        """Minimum energy for *workload* cycles under the clamped policy."""
        speed = self._speed(workload)
        # speed == 0 covers denormal workloads whose W/D underflows (only
        # possible when the model has no leakage, hence s* == 0).
        if workload == 0.0 or speed == 0.0:
            return self._slack_cost(self._deadline)[0]
        busy = workload / speed
        slack_energy, _ = self._slack_cost(self._deadline - busy)
        try:
            return busy * self._model._power(speed) + slack_energy
        except OverflowError:  # only an unbounded s_max reaches such a speed
            raise power_overflow(workload, speed) from None

    def plan(self, workload: float) -> SpeedPlan:
        """Execute at the clamped speed, then sleep or idle through slack."""
        workload = self._check_workload(workload)
        energy = self._energy(workload)
        speed = self._speed(workload)
        if workload == 0.0 or speed == 0.0:
            _, slept = self._slack_cost(self._deadline)
            tail = SpeedPlan.SLEEP_SPEED if slept else 0.0
            return SpeedPlan(
                segments=(SpeedSegment(0.0, self._deadline, tail),), energy=energy
            )
        busy = min(workload / speed, self._deadline)
        segments = [SpeedSegment(0.0, busy, speed)]
        slack = self._deadline - busy
        if slack > 1e-12 * self._deadline:
            _, slept = self._slack_cost(slack)
            tail = SpeedPlan.SLEEP_SPEED if slept else 0.0
            segments.append(SpeedSegment(busy, self._deadline, tail))
        return SpeedPlan(segments=tuple(segments), energy=energy)

    def break_even_time(self) -> float:
        """Idle duration above which sleeping beats idling, for this model."""
        return self._dormant.break_even_time(self._model.static_power)
