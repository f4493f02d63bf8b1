"""``EnergyFunction.energy_many`` against the scalar ``energy`` it batches.

For every subclass: on valid workloads the batch returns the scalar
results bit for bit, and a list holding a bad element raises exactly the
exception type and message the scalar loop raises.
"""

from __future__ import annotations

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro._validation import capacity_limit
from repro.energy import (
    ContinuousEnergyFunction,
    CriticalSpeedEnergyFunction,
    DiscreteEnergyFunction,
)
from repro.hetero.assign import SplitPooledEnergyFunction
from repro.multiproc.pooled import PooledEnergyFunction
from repro.power import CMOSPowerModel, DormantMode, PolynomialPowerModel, SpeedLevels

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None


def _with_float64(values: list) -> list:
    """*values* plus their ``np.float64`` twins, when numpy is installed."""
    if np is None:  # pragma: no cover
        return values
    return values + [np.float64(v) for v in values if type(v) is float]


def _poly(beta0: float = 0.1, s_max: float = 1.0) -> PolynomialPowerModel:
    return PolynomialPowerModel(beta0=beta0, beta1=1.52, alpha=3.0, s_max=s_max)


_LEVELS = SpeedLevels([0.25, 0.5, 0.75, 1.0])

#: One instance of every subclass, with the variants whose arithmetic
#: differs: static floor, unbounded speed, CMOS power, sleep overheads
#: (``e_sw > 0`` and ``t_sw > 0``), dormant-disable levels.
FUNCTIONS = {
    "continuous": ContinuousEnergyFunction(_poly(0.0), 1.0),
    "continuous-floor": ContinuousEnergyFunction(
        _poly(0.08), 2.5, include_static_floor=True
    ),
    "continuous-unbounded": ContinuousEnergyFunction(_poly(0.0, math.inf), 1.0),
    "continuous-cmos": ContinuousEnergyFunction(
        CMOSPowerModel(v_t=0.3, short_circuit_coeff=0.2, static_power=0.05), 1.5
    ),
    "critical": CriticalSpeedEnergyFunction(_poly(0.2), 1.0),
    "critical-overheads": CriticalSpeedEnergyFunction(
        _poly(0.2), 3.0, dormant=DormantMode(t_sw=0.4, e_sw=0.05)
    ),
    "discrete-enable": DiscreteEnergyFunction(
        _poly(0.2), _LEVELS, 2.0, dormant=DormantMode(t_sw=0.1, e_sw=0.02)
    ),
    "discrete-disable": DiscreteEnergyFunction(
        _poly(0.05), _LEVELS, 1.0, include_static_floor=True
    ),
    "pooled": PooledEnergyFunction(CriticalSpeedEnergyFunction(_poly(0.2), 1.0), 3),
    "split": SplitPooledEnergyFunction(
        PooledEnergyFunction(ContinuousEnergyFunction(_poly(0.0, 0.5), 1.0), 2),
        PooledEnergyFunction(CriticalSpeedEnergyFunction(_poly(0.2), 1.0), 1),
    ),
}


def _specials(fn) -> list:
    """Valid boundary workloads: zeros, denormals, the capacity edge.

    (The split bound's inner pools reject the top of the outer tolerance
    band, so for it only parity with the scalar call is required.)
    """
    cap = fn.max_workload
    out = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300]
    if math.isfinite(cap):
        limit = capacity_limit(cap)
        out += [cap, limit, math.nextafter(limit, 0.0)]
    else:
        out += [1e100]
    return _with_float64(out) + [0]


def _bad(fn) -> list:
    """Elements the scalar call rejects, one per failure mode."""
    out = [-1.0, -5e-324, math.nan, math.inf, -math.inf]
    if math.isfinite(fn.max_workload):
        over = math.nextafter(capacity_limit(fn.max_workload), math.inf)
        out += [over, 2 * fn.max_workload]
    return _with_float64(out) + [True, False, "1.0", None]


def _outcome(thunk):
    """The value as exact float bits, or the raised type and message."""
    try:
        values = thunk()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)
    return [float(v).hex() for v in values]


@st.composite
def _valid_workloads(draw, fn) -> list:
    cap = fn.max_workload if math.isfinite(fn.max_workload) else 1e6
    plain = st.floats(min_value=0.0, max_value=cap, allow_nan=False)
    element = st.one_of(
        plain,
        plain.map(np.float64) if np is not None else plain,
        st.sampled_from(_specials(fn)),
    )
    return draw(st.lists(element, max_size=12))


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_is_bit_identical_to_scalar(name, data):
    fn = FUNCTIONS[name]
    workloads = data.draw(_valid_workloads(fn))
    scalar = _outcome(lambda: [fn.energy(w) for w in workloads])
    assert isinstance(scalar, list) or name == "split", scalar
    assert _outcome(lambda: fn.energy_many(workloads)) == scalar


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_boundary_workloads_are_bit_identical(name):
    fn = FUNCTIONS[name]
    workloads = _specials(fn)
    scalar = _outcome(lambda: [fn.energy(w) for w in workloads])
    assert isinstance(scalar, list) or name == "split", scalar
    assert _outcome(lambda: fn.energy_many(workloads)) == scalar
    # Lazy iterables are accepted too.
    assert _outcome(lambda: fn.energy_many(iter(workloads))) == scalar


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_first_bad_element_raises_the_scalar_error(name, data):
    fn = FUNCTIONS[name]
    workloads = data.draw(_valid_workloads(fn))
    bad = data.draw(st.sampled_from(_bad(fn)))
    workloads.insert(data.draw(st.integers(0, len(workloads))), bad)
    if data.draw(st.booleans()):  # a second bad element must not win
        workloads.append(data.draw(st.sampled_from(_bad(fn))))
    scalar = _outcome(lambda: [fn.energy(w) for w in workloads])
    assert not isinstance(scalar, list)
    assert _outcome(lambda: fn.energy_many(workloads)) == scalar


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
@pytest.mark.parametrize("bad_index", [0, 1])
def test_every_failure_mode_matches(name, bad_index):
    fn = FUNCTIONS[name]
    for bad in _bad(fn):
        workloads = [0.0, bad] if bad_index else [bad, 0.0]
        scalar = _outcome(lambda: [fn.energy(w) for w in workloads])
        assert not isinstance(scalar, list), bad
        assert _outcome(lambda: fn.energy_many(workloads)) == scalar, bad


@pytest.mark.parametrize(
    "fn",
    [
        ContinuousEnergyFunction(_poly(0.0, math.inf), 0.5),
        CriticalSpeedEnergyFunction(_poly(0.2, math.inf), 0.5),
    ],
    ids=["continuous", "critical"],
)
def test_unbounded_speed_overflow_still_raises(fn):
    # W/D overflows to inf with an unbounded s_max: the checked
    # clamp_speed has always refused that speed, and still does.
    with pytest.raises(ValueError, match="speed must be finite"):
        fn.energy(1e308)
    scalar = _outcome(lambda: [fn.energy(1e308)])
    assert _outcome(lambda: fn.energy_many([1.0, 1e308])) == scalar
