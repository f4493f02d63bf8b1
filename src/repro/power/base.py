"""Abstract power-model interface and dormant-mode parameters.

The system model follows the companion DATE'07 text, Section II: the power
drawn at speed ``s`` splits into a speed-dependent convex part ``Pd(s)``
and a speed-independent part ``Pind`` (leakage and friends).  A
*dormant-enable* processor can drop ``Pind`` to zero by sleeping, at a
mode-switch overhead of ``t_sw`` seconds and ``e_sw`` joules; a
*dormant-disable* processor always pays ``Pind`` and therefore models it
inside ``Pd``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro._validation import require_nonnegative

#: Default relative tolerance for numeric speed searches.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class DormantMode:
    """Overheads of switching a dormant-enable processor to/from sleep.

    Attributes
    ----------
    t_sw:
        Wall-clock time (seconds) consumed by a sleep→active transition.
    e_sw:
        Energy (joules) consumed by one sleep/wake round trip.
    """

    t_sw: float = 0.0
    e_sw: float = 0.0

    def __post_init__(self) -> None:
        require_nonnegative("t_sw", self.t_sw)
        require_nonnegative("e_sw", self.e_sw)

    def break_even_time(self, idle_power: float) -> float:
        """Idle duration above which sleeping beats idling.

        Idling for ``t`` seconds costs ``idle_power * t``; sleeping costs
        ``e_sw`` (plus requires ``t >= t_sw``).  The break-even time is
        ``max(e_sw / idle_power, t_sw)``; infinite when ``idle_power`` is 0
        (there is then nothing to save by sleeping).
        """
        require_nonnegative("idle_power", idle_power)
        if idle_power == 0.0:
            return math.inf
        return max(self.e_sw / idle_power, self.t_sw)


class PowerModel(ABC):
    """A DVS processor's power-vs-speed characteristic.

    Subclasses define :meth:`dynamic_power` (the convex, increasing
    ``Pd(s)``) and the constant :attr:`static_power` (``Pind``).  All
    energy-related conveniences are derived here.

    Parameters
    ----------
    s_min, s_max:
        The available speed range.  ``s_max = math.inf`` models the "ideal"
        analysis processor of the companion text's Section III-A.
    static_power:
        Speed-independent power ``Pind`` (W).
    """

    def __init__(
        self,
        *,
        s_min: float = 0.0,
        s_max: float = 1.0,
        static_power: float = 0.0,
    ) -> None:
        require_nonnegative("s_min", s_min)
        if not s_max > 0:
            raise ValueError(f"s_max must be > 0, got {s_max!r}")
        if math.isfinite(s_max) and s_min > s_max:
            raise ValueError(f"s_min ({s_min}) must be <= s_max ({s_max})")
        require_nonnegative("static_power", static_power)
        self._s_min = float(s_min)
        self._s_max = float(s_max)
        self._static_power = float(static_power)

    # ------------------------------------------------------------------ #
    # Interface                                                          #
    # ------------------------------------------------------------------ #

    def dynamic_power(self, speed: float) -> float:
        """Speed-dependent power ``Pd(s)`` in watts (convex, increasing)."""
        require_nonnegative("speed", speed)
        return self._dynamic_power(speed)

    @abstractmethod
    def _dynamic_power(self, speed: float) -> float:
        """:meth:`dynamic_power` for a speed already known to be >= 0."""

    @property
    def s_min(self) -> float:
        """Lowest available speed."""
        return self._s_min

    @property
    def s_max(self) -> float:
        """Highest available speed (may be ``math.inf`` for ideal models)."""
        return self._s_max

    @property
    def static_power(self) -> float:
        """Speed-independent power ``Pind`` in watts."""
        return self._static_power

    # ------------------------------------------------------------------ #
    # Derived quantities                                                 #
    # ------------------------------------------------------------------ #

    def power(self, speed: float) -> float:
        """Total power ``P(s) = Pd(s) + Pind`` at *speed* (W).

        Speed 0 is idle: dynamic power vanishes but ``Pind`` is still paid
        (a dormant-disable processor cannot shed it).
        """
        self._check_speed(speed)
        return self._power(speed)

    def energy_per_cycle(self, speed: float) -> float:
        """Energy to retire one cycle at *speed*: ``P(s) / s`` (J/cycle)."""
        self._check_speed(speed)
        if speed == 0.0:
            raise ValueError("energy_per_cycle is undefined at speed 0")
        return self.power(speed) / speed

    def energy(self, cycles: float, speed: float) -> float:
        """Energy to execute *cycles* cycles at constant *speed* (J)."""
        require_nonnegative("cycles", cycles)
        if cycles == 0.0:
            return 0.0
        return cycles * self.energy_per_cycle(speed)

    def execution_time(self, cycles: float, speed: float) -> float:
        """Time to execute *cycles* cycles at constant *speed* (s)."""
        require_nonnegative("cycles", cycles)
        self._check_speed(speed)
        if cycles == 0.0:
            return 0.0
        if speed == 0.0:
            raise ValueError("cannot execute a positive workload at speed 0")
        return cycles / speed

    def critical_speed(self, *, tol: float = 1e-12) -> float:
        """The speed minimising energy per cycle, within the speed range.

        For dormant-enable processors this is the ``s*`` of the companion
        text's Figure 2: below ``s*``, slowing down *wastes* energy because
        the static term accrues for longer than the dynamic term shrinks.
        The default implementation runs a golden-section search on the
        (unimodal, since ``P`` is convex) function ``P(s)/s``; analytic
        subclasses override it.
        """
        lo = self._s_min if self._s_min > 0 else 1e-9
        hi = self._s_max if math.isfinite(self._s_max) else max(1.0, lo) * 1e6
        return _golden_section(self.energy_per_cycle, lo, hi, tol=tol)

    def clamp_speed(self, speed: float) -> float:
        """Clamp *speed* into the available range ``[s_min, s_max]``."""
        require_nonnegative("speed", speed)
        return self._clamp_speed(speed)

    # ------------------------------------------------------------------ #
    # Unchecked forms, for callers that validated their input already    #
    # ------------------------------------------------------------------ #

    def _power(self, speed: float) -> float:
        """:meth:`power` for a speed already inside the available range."""
        if speed == 0.0:
            return self._static_power
        return self._dynamic_power(speed) + self._static_power

    def _clamp_speed(self, speed: float) -> float:
        """:meth:`clamp_speed` for a speed already known to be >= 0.

        Spelled out rather than ``min(max(speed, s_min), s_max)`` (which
        it equals, ties and signed zeros included) because it runs once
        per energy evaluation.
        """
        if self._s_min > speed:
            speed = self._s_min
        return self._s_max if self._s_max < speed else speed

    # ------------------------------------------------------------------ #
    # Helpers                                                            #
    # ------------------------------------------------------------------ #

    def _check_speed(self, speed: float) -> None:
        require_nonnegative("speed", speed)
        if speed != 0.0 and not (
            self._s_min - 1e-12 <= speed <= self._s_max * (1 + 1e-12)
        ):
            raise ValueError(
                f"speed {speed!r} outside the available range "
                f"[{self._s_min}, {self._s_max}]"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(s_min={self._s_min}, s_max={self._s_max}, "
            f"static_power={self._static_power})"
        )


def _golden_section(fn, lo: float, hi: float, *, tol: float = 1e-12) -> float:
    """Minimise the unimodal *fn* over [lo, hi] by golden-section search."""
    if lo > hi:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    # Converge on relative width; 200 iterations bounds worst-case cost.
    for _ in range(200):
        if (b - a) <= tol * max(1.0, abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return (a + b) / 2.0
