"""CMOS-derived power model.

The companion DATE'07 text (Equation 1) models the switching power of a
CMOS DVS processor as ``P_switch(s) = Cef * Vdd**2 * s`` where the speed is
tied to the supply voltage by ``s = kappa * (Vdd - Vt)**2 / Vdd``.  This
module implements that model exactly, including the voltage↔speed
inversion, an optional short-circuit term proportional to ``Vdd``, and an
optional constant leakage term.

The resulting ``P(s)`` is convex and increasing on the usable voltage
range, and for ``Vt = 0`` collapses to the familiar cubic
``P(s) = (Cef / kappa**2) * s**3``.
"""

from __future__ import annotations

import math

from repro._validation import require_nonnegative, require_positive
from repro.power.base import PowerModel


class CMOSPowerModel(PowerModel):
    """Power model parameterised by physical CMOS quantities.

    Parameters
    ----------
    c_ef:
        Effective switched capacitance ``Cef`` (F, up to normalisation).
    v_t:
        Threshold voltage ``Vt`` (V), >= 0.
    kappa:
        Hardware-specific proportionality constant ``kappa`` (> 0).
    v_dd_max:
        Maximum supply voltage; determines :attr:`s_max`.
    short_circuit_coeff:
        Optional coefficient ``gamma`` of a short-circuit power term
        ``gamma * Vdd * s`` ("the short-circuit power consumption is
        proportional to the supply voltage").
    static_power:
        Constant leakage power ``Pind``.

    Examples
    --------
    >>> m = CMOSPowerModel(c_ef=1.0, v_t=0.0, kappa=1.0, v_dd_max=1.0)
    >>> round(m.power(0.5), 6)  # Vt=0 -> pure cubic
    0.125
    """

    def __init__(
        self,
        *,
        c_ef: float = 1.0,
        v_t: float = 0.4,
        kappa: float = 1.0,
        v_dd_max: float = 1.8,
        short_circuit_coeff: float = 0.0,
        static_power: float = 0.0,
        s_min: float = 0.0,
    ) -> None:
        require_positive("c_ef", c_ef)
        require_nonnegative("v_t", v_t)
        require_positive("kappa", kappa)
        require_positive("v_dd_max", v_dd_max)
        require_nonnegative("short_circuit_coeff", short_circuit_coeff)
        if v_dd_max <= v_t:
            raise ValueError(
                f"v_dd_max ({v_dd_max}) must exceed v_t ({v_t}) for a "
                "positive maximum speed"
            )
        self._c_ef = float(c_ef)
        self._v_t = float(v_t)
        self._kappa = float(kappa)
        self._v_dd_max = float(v_dd_max)
        self._gamma = float(short_circuit_coeff)
        s_max = self._speed_of_voltage(v_dd_max)
        super().__init__(s_min=s_min, s_max=s_max, static_power=static_power)

    # ------------------------------------------------------------------ #
    # Physics                                                            #
    # ------------------------------------------------------------------ #

    def _speed_of_voltage(self, v_dd: float) -> float:
        """``s(Vdd) = kappa * (Vdd - Vt)**2 / Vdd`` (0 below threshold)."""
        if v_dd <= self._v_t:
            return 0.0
        return self._kappa * (v_dd - self._v_t) ** 2 / v_dd

    def speed_of_voltage(self, v_dd: float) -> float:
        """Public wrapper for the speed delivered at supply voltage *v_dd*."""
        require_nonnegative("v_dd", v_dd)
        if v_dd > self._v_dd_max * (1 + 1e-12):
            raise ValueError(
                f"v_dd {v_dd!r} exceeds v_dd_max {self._v_dd_max!r}"
            )
        return self._speed_of_voltage(v_dd)

    def voltage_of_speed(self, speed: float) -> float:
        """Invert ``s(Vdd)``: the (unique) supply voltage delivering *speed*.

        Solves ``kappa * Vdd**2 - (2 kappa Vt + s) Vdd + kappa Vt**2 = 0``
        for its larger root (the branch with ``Vdd > Vt``, on which speed
        increases with voltage).
        """
        require_nonnegative("speed", speed)
        if speed == 0.0:
            return self._v_t
        if speed > self.s_max * (1 + 1e-9):
            raise ValueError(f"speed {speed!r} exceeds s_max {self.s_max!r}")
        k, vt = self._kappa, self._v_t
        b = 2.0 * k * vt + speed
        discriminant = b * b - 4.0 * k * k * vt * vt
        v_dd = (b + math.sqrt(discriminant)) / (2.0 * k)
        return min(v_dd, self._v_dd_max)

    # ------------------------------------------------------------------ #
    # PowerModel interface                                               #
    # ------------------------------------------------------------------ #

    def _dynamic_power(self, speed: float) -> float:
        """Switching plus short-circuit power at *speed*."""
        if speed == 0.0:
            return 0.0
        v_dd = self.voltage_of_speed(speed)
        switching = self._c_ef * v_dd * v_dd * speed
        short_circuit = self._gamma * v_dd * speed
        return switching + short_circuit

    @property
    def v_t(self) -> float:
        """Threshold voltage (V)."""
        return self._v_t

    @property
    def v_dd_max(self) -> float:
        """Maximum supply voltage (V)."""
        return self._v_dd_max

    @property
    def kappa(self) -> float:
        """Speed/voltage proportionality constant."""
        return self._kappa

    @property
    def c_ef(self) -> float:
        """Effective switched capacitance."""
        return self._c_ef

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CMOSPowerModel(c_ef={self._c_ef}, v_t={self._v_t}, "
            f"kappa={self._kappa}, v_dd_max={self._v_dd_max}, "
            f"static_power={self.static_power})"
        )
