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
from collections.abc import Iterable

from repro.energy.base import (
    EnergyFunction,
    SpeedPlan,
    SpeedSegment,
    power_overflow,
)
from repro.power.base import PowerModel
from repro.power.polynomial import prices_as_polynomial


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

    #: True when the model and class admit :meth:`flat_terms` (see there).
    _flat = False

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
        cls = type(self)
        self._flat = (
            prices_as_polynomial(power_model)
            and cls._energy is ContinuousEnergyFunction._energy
            and cls._speed is ContinuousEnergyFunction._speed
        )
        self._fix_limit()

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
        try:
            dynamic = (workload / speed) * self._model._dynamic_power(speed)
        except OverflowError:  # only an unbounded s_max reaches such a speed
            raise power_overflow(workload, speed) from None
        return dynamic + self._floor

    def flat_terms(
        self,
    ) -> tuple[float, float, float, float, float, float, float] | None:
        """``(limit, D, s_min, s_max, beta1, alpha, floor)``, or None.

        The constants of ``g`` on a model that
        :func:`~repro.power.polynomial.prices_as_polynomial` (with
        ``_energy`` and ``_speed`` not overridden), where
        ``g(W) = (W / s) * (beta1 * s**alpha) + floor`` at
        ``s = clamp(W / D)`` for ``0 < W <= limit`` and ``floor`` at
        ``W = 0`` or an underflowed ``s``.  Callers that price in bulk
        (:meth:`energy_many`, the numpy kernel's ``energy_table``) and
        :meth:`conjugate` read them here.  Any other model, a subclass
        that reprices, or an instance whose ``_energy``/``_speed`` was
        replaced (which :meth:`energy` would call) gets None.
        """
        own = self.__dict__
        if not self._flat or "_energy" in own or "_speed" in own:
            return None
        model = self._model
        return (
            self._limit,
            self._deadline,
            model._s_min,
            model._s_max,
            model._beta1,
            model._alpha,
            self._floor,
        )

    def energy_many(self, workloads: Iterable[float]) -> list[float]:
        """:meth:`EnergyFunction.energy_many`, as one flat loop when it can.

        Where :meth:`flat_terms` gives the constants, the chain
        ``_check_workload`` fast path → :meth:`_speed` →
        ``_clamp_speed`` → ``_dynamic_power`` is inlined with them.
        Each element does :meth:`_energy`'s float operations in the same
        order, so the results are bit-identical and a bad element raises
        what the scalar call raises (:func:`~repro.energy.base
        .power_overflow` where the pow overflows).  Otherwise the base
        loop runs.
        """
        terms = self.flat_terms()
        if terms is None:
            return super().energy_many(workloads)
        limit, deadline, s_min, s_max, beta1, alpha, floor = terms
        model, check = self._model, self._check_workload
        out: list[float] = []
        append = out.append
        for w in workloads:
            if not (type(w) is float and 0.0 <= w <= limit):
                w = check(w)
            if w == 0.0:
                append(floor)
                continue
            speed = w / deadline
            if speed == math.inf:  # only an unbounded s_max lets W/D overflow
                speed = model.clamp_speed(speed)  # raises
            if s_min > speed:
                speed = s_min
            if s_max < speed:
                speed = s_max
            if speed == 0.0:  # a denormal W/D underflowed
                append(floor)
                continue
            try:
                append((w / speed) * (beta1 * speed**alpha) + floor)
            except OverflowError:
                raise power_overflow(w, speed) from None
        return out

    def conjugate(self, lam: float) -> tuple[float, float] | None:
        """:meth:`EnergyFunction.conjugate`, closed form on the stock model.

        Where :meth:`flat_terms` gives the constants, ``g`` is linear at
        slope ``β1·s_min^(α−1)`` up to ``D·s_min`` and ``D·β1·(W/D)^α``
        above, so ``W* = D·clamp((λ/(αβ1))^(1/(α−1)))``, or 0 below that
        slope; the static floor shifts ``g*``.  Other models return None.
        """
        terms = self.flat_terms()
        if terms is None:
            return None
        _, deadline, s_min, s_max, beta1, alpha, floor = terms
        if lam <= beta1 * s_min ** (alpha - 1.0):
            return -floor, 0.0
        speed = (lam / (alpha * beta1)) ** (1.0 / (alpha - 1.0))
        speed = min(max(speed, s_min), s_max)
        return deadline * (lam * speed - beta1 * speed**alpha) - floor, (
            deadline * speed
        )

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
        if not math.isclose(busy, self._deadline, rel_tol=1e-12, abs_tol=0.0):
            segments.append(SpeedSegment(busy, self._deadline, 0.0))
        return SpeedPlan(segments=tuple(segments), energy=energy)
