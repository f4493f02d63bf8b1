"""Polynomial power models ``P(s) = beta0 + beta1 * s**alpha``.

This is the family used throughout the companion DATE'07 text's
experiments ("The power consumption function is beta1 + beta2 s^3") and in
most of the DVS literature: ``alpha`` is typically close to 3 for CMOS
dynamic power, ``beta0`` collects the speed-independent (leakage) power.
"""

from __future__ import annotations

import math

from repro._validation import require_nonnegative, require_positive
from repro.power.base import PowerModel


class PolynomialPowerModel(PowerModel):
    """``P(s) = beta0 + beta1 * s**alpha`` with ``alpha > 1``.

    Parameters
    ----------
    beta0:
        Speed-independent power (W).  This is the ``Pind`` of the system
        model; it is exposed as :attr:`static_power`.
    beta1:
        Coefficient of the dynamic term (W at ``s = 1``).
    alpha:
        Exponent of the dynamic term; must exceed 1 so that ``Pd(s)/s`` is
        increasing (required of dormant-disable processors by the system
        model).
    s_min, s_max:
        Available speed range.

    Examples
    --------
    >>> m = PolynomialPowerModel(beta0=0.08, beta1=1.52, alpha=3.0)
    >>> round(m.power(1.0), 2)
    1.6
    >>> round(m.critical_speed(), 4)
    0.2974
    """

    def __init__(
        self,
        *,
        beta0: float = 0.0,
        beta1: float = 1.0,
        alpha: float = 3.0,
        s_min: float = 0.0,
        s_max: float = 1.0,
    ) -> None:
        require_nonnegative("beta0", beta0)
        require_positive("beta1", beta1)
        if not alpha > 1.0:
            raise ValueError(f"alpha must be > 1 for convex P(s)/s, got {alpha!r}")
        super().__init__(s_min=s_min, s_max=s_max, static_power=beta0)
        self._beta1 = float(beta1)
        self._alpha = float(alpha)

    @property
    def beta0(self) -> float:
        """Speed-independent power term (alias of :attr:`static_power`)."""
        return self.static_power

    @property
    def beta1(self) -> float:
        """Dynamic power coefficient."""
        return self._beta1

    @property
    def alpha(self) -> float:
        """Dynamic power exponent."""
        return self._alpha

    def _dynamic_power(self, speed: float) -> float:
        """``Pd(s) = beta1 * s**alpha``."""
        return self._beta1 * speed**self._alpha

    def critical_speed(self, *, tol: float = 1e-12) -> float:
        """Analytic critical speed, clamped into the speed range.

        Minimising ``(beta0 + beta1 s^alpha) / s`` gives
        ``s* = (beta0 / (beta1 * (alpha - 1))) ** (1 / alpha)``; with zero
        leakage the minimiser degenerates to the lowest usable speed.
        """
        if self.beta0 == 0.0:
            unconstrained = 0.0
        else:
            unconstrained = (self.beta0 / (self._beta1 * (self._alpha - 1.0))) ** (
                1.0 / self._alpha
            )
        hi = self.s_max if math.isfinite(self.s_max) else unconstrained
        return min(max(unconstrained, self.s_min), max(hi, self.s_min))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PolynomialPowerModel(beta0={self.beta0}, beta1={self._beta1}, "
            f"alpha={self._alpha}, s_min={self.s_min}, s_max={self.s_max})"
        )


def prices_as_polynomial(model: PowerModel) -> bool:
    """True when *model* prices speeds exactly as the stock polynomial does.

    That holds when its unchecked ``_dynamic_power`` is
    :class:`PolynomialPowerModel`'s (``beta1 * s**alpha``) and its
    ``_clamp_speed`` is :class:`PowerModel`'s.  Callers may then inline
    that arithmetic; a subclass overriding either, and every other
    model, must be called through its methods.
    """
    cls = type(model)
    return (
        getattr(cls, "_dynamic_power", None) is PolynomialPowerModel._dynamic_power
        and getattr(cls, "_clamp_speed", None) is PowerModel._clamp_speed
    )


def xscale_power_model(*, s_max: float = 1.0) -> PolynomialPowerModel:
    """The normalised Intel XScale model used by the companion text.

    ``P(s) = 0.08 + 1.52 * s**3`` W with the highest speed normalised to 1.
    """
    require_positive("s_max", s_max)
    return PolynomialPowerModel(beta0=0.08, beta1=1.52, alpha=3.0, s_max=s_max)
