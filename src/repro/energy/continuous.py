"""Energy function for an ideal (continuous-speed) dormant-disable processor.

With a convex, increasing ``Pd(s)`` (and ``Pd(s)/s`` increasing, as the
system model requires of dormant-disable processors), the optimal policy
for ``W`` cycles in ``[0, D]`` is a single constant speed: stretch the
execution to fill the deadline, i.e. ``s = max(W / D, s_min)``.  Running
any faster wastes dynamic energy by convexity; the processor cannot save
the speed-independent power anyway (no dormant mode), so the ``Pind * D``
term is a constant offset controlled by ``include_static_floor``.
"""

from __future__ import annotations

import math

from repro.energy.base import EnergyFunction, SpeedPlan, SpeedSegment
from repro.power.base import PowerModel


class ContinuousEnergyFunction(EnergyFunction):
    """``g(W) = (W / s) * Pd(s)`` at ``s = clamp(W / D)`` (+ static floor).

    Parameters
    ----------
    power_model:
        The processor; its ``s_min``/``s_max`` bound the usable speeds.
    deadline:
        Frame deadline (or hyper-period) ``D``.
    include_static_floor:
        When True, adds the unavoidable ``Pind * D`` a dormant-disable
        processor pays over the horizon.  The default (False) matches the
        negligible-leakage model of the companion text's Section III-A,
        where comparisons between accepted subsets are unaffected by the
        constant offset.
    """

    def __init__(
        self,
        power_model: PowerModel,
        deadline: float,
        *,
        include_static_floor: bool = False,
    ) -> None:
        super().__init__(deadline)
        self._model = power_model
        self._floor = (
            power_model.static_power * self._deadline if include_static_floor else 0.0
        )

    @property
    def power_model(self) -> PowerModel:
        """The underlying processor model."""
        return self._model

    @property
    def max_workload(self) -> float:
        """``s_max * D`` cycles (``inf`` for unbounded ideal processors)."""
        return self._model.s_max * self._deadline

    @property
    def is_convex(self) -> bool:
        """Always True: no sleep transition exists to kink ``g``.

        Unlike the dormant-enable functions, there is no slack policy
        switch here — slack just idles — so convexity needs no caveats
        about ``e_sw`` / ``t_sw``.
        """
        return True

    def optimal_speed(self, workload: float) -> float:
        """The single constant speed used for *workload* cycles."""
        return self._speed(self._check_workload(workload))

    def _speed(self, workload: float) -> float:
        if workload == 0.0:
            return 0.0
        speed = workload / self._deadline
        if speed == math.inf:  # W/D overflowed: only an unbounded s_max allows it
            return self._model.clamp_speed(speed)  # raises
        return self._model._clamp_speed(speed)

    def _energy(self, workload: float) -> float:
        """Minimum energy for *workload* cycles (see class docstring)."""
        speed = self._speed(workload)
        # Denormal workloads can underflow W/D to exactly 0; they carry no
        # measurable energy either way.
        if workload == 0.0 or speed == 0.0:
            return self._floor
        dynamic = (workload / speed) * self._model._dynamic_power(speed)
        return dynamic + self._floor

    def plan(self, workload: float) -> SpeedPlan:
        """Constant-speed plan: execute, then idle until the deadline."""
        workload = self._check_workload(workload)
        energy = self._energy(workload)
        speed = self._speed(workload)
        if workload == 0.0 or speed == 0.0:
            segments = (SpeedSegment(0.0, self._deadline, 0.0),)
            return SpeedPlan(segments=segments, energy=energy)
        busy = workload / speed
        busy = min(busy, self._deadline)  # guard fp noise at exactly-full load
        segments = [SpeedSegment(0.0, busy, speed)]
        if not math.isclose(busy, self._deadline, rel_tol=0, abs_tol=1e-12):
            segments.append(SpeedSegment(busy, self._deadline, 0.0))
        return SpeedPlan(segments=tuple(segments), energy=energy)
