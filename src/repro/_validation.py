"""Small argument-validation helpers shared across the package.

Every public constructor validates its inputs eagerly so that modelling
mistakes (negative cycles, zero periods, inverted speed bounds, ...) fail
at construction time with a message naming the offending parameter, rather
than surfacing later as a NaN deep inside an experiment sweep.
"""

from __future__ import annotations

import math
from typing import Any

#: The single relative tolerance for every capacity/feasibility check in
#: the package.  A load a few ulp above the capacity (fp noise from
#: summing task cycles in different orders) must be judged identically by
#: every algorithm, or differential runs disagree on boundary instances.
CAPACITY_RTOL = 1e-12


def capacity_limit(capacity: float) -> float:
    """The largest load :func:`fits` accepts for *capacity*."""
    return capacity * (1 + CAPACITY_RTOL)


def fits(load: float, capacity: float) -> bool:
    """True when *load* fits *capacity* under the shared fp tolerance.

    The one capacity predicate used by every solver, feasibility check,
    and partition validator: ``load <= capacity * (1 + CAPACITY_RTOL)``.
    """
    return load <= capacity_limit(capacity)


def require_positive(name: str, value: float) -> float:
    """Return *value* if it is a finite number > 0, else raise ValueError."""
    require_finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def require_nonnegative(name: str, value: float) -> float:
    """Return *value* if it is a finite number >= 0, else raise ValueError."""
    require_finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def require_finite(name: str, value: float) -> float:
    """Return *value* if it is a finite real number, else raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def require_in_range(
    name: str, value: float, low: float, high: float, *, inclusive: bool = True
) -> float:
    """Return *value* if it lies in [low, high] (or (low, high))."""
    require_finite(name, value)
    if inclusive:
        if not low <= value <= high:
            raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    else:
        if not low < value < high:
            raise ValueError(f"{name} must be in ({low}, {high}), got {value!r}")
    return value


def require_type(name: str, value: Any, expected: type) -> Any:
    """Return *value* if isinstance(value, expected), else raise TypeError."""
    if not isinstance(value, expected):
        raise TypeError(
            f"{name} must be a {expected.__name__}, got {type(value).__name__}"
        )
    return value
