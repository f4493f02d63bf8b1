"""Tests for SpeedPlan/SpeedSegment and the EnergyFunction entry points."""

import math
import pickle
import sys

import pytest

from repro._validation import capacity_limit, fits, require_nonnegative
from repro.energy import (
    ContinuousEnergyFunction,
    CriticalSpeedEnergyFunction,
    DiscreteEnergyFunction,
)
from repro.energy.base import EnergyFunction, SpeedPlan, SpeedSegment
from repro.hetero.assign import SplitPooledEnergyFunction
from repro.multiproc.pooled import PooledEnergyFunction
from repro.power import DormantMode, PolynomialPowerModel, SpeedLevels

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None


class TestSpeedSegment:
    def test_duration_and_cycles(self):
        seg = SpeedSegment(1.0, 3.0, 0.5)
        assert seg.duration == pytest.approx(2.0)
        assert seg.cycles == pytest.approx(1.0)

    def test_idle_segment_carries_no_cycles(self):
        assert SpeedSegment(0.0, 5.0, 0.0).cycles == 0.0

    def test_sleep_segment(self):
        seg = SpeedSegment(0.0, 1.0, SpeedPlan.SLEEP_SPEED)
        assert seg.is_sleep
        assert seg.cycles == 0.0

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            SpeedSegment(2.0, 1.0, 0.5)


class TestSpeedPlan:
    def test_contiguity_enforced(self):
        with pytest.raises(ValueError, match="gap"):
            SpeedPlan(
                segments=(
                    SpeedSegment(0.0, 1.0, 1.0),
                    SpeedSegment(1.5, 2.0, 0.0),
                ),
                energy=1.0,
            )

    def test_aggregates(self):
        plan = SpeedPlan(
            segments=(
                SpeedSegment(0.0, 1.0, 0.5),
                SpeedSegment(1.0, 2.0, 0.0),
            ),
            energy=0.3,
        )
        assert plan.horizon == pytest.approx(2.0)
        assert plan.total_cycles == pytest.approx(0.5)
        assert plan.busy_time == pytest.approx(1.0)

    def test_empty_plan(self):
        plan = SpeedPlan(segments=(), energy=0.0)
        assert plan.horizon == 0.0
        assert plan.total_cycles == 0.0

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            SpeedPlan(segments=(), energy=-1.0)


def _poly(beta0=0.1, s_max=1.0):
    return PolynomialPowerModel(beta0=beta0, beta1=1.52, alpha=3.0, s_max=s_max)


class _NoInit(DiscreteEnergyFunction):
    """A subclass with no ``__init__`` of its own."""

    @property
    def is_convex(self):
        return True


class _Unbounded(ContinuousEnergyFunction):
    @property
    def max_workload(self):
        return math.inf


FUNCTIONS = {
    "continuous": ContinuousEnergyFunction(_poly(0.0), 1.0),
    "continuous-unbounded": ContinuousEnergyFunction(_poly(0.0, math.inf), 1.0),
    "critical": CriticalSpeedEnergyFunction(
        _poly(0.2), 2.0, dormant=DormantMode(t_sw=0.3, e_sw=0.05)
    ),
    "discrete": DiscreteEnergyFunction(
        _poly(0.2), SpeedLevels([0.3, 0.6, 1.0]), 1.0, dormant=DormantMode()
    ),
    "no-init-subclass": _NoInit(
        _poly(0.2), SpeedLevels([0.4, 0.7, 1.0]), 1.0,
        dormant=DormantMode(t_sw=0.3, e_sw=0.0),
    ),
    "unbounded-subclass": _Unbounded(_poly(0.0), 1.0),
    "pooled": PooledEnergyFunction(ContinuousEnergyFunction(_poly(0.0), 1.0), 3),
    "split": SplitPooledEnergyFunction(
        PooledEnergyFunction(ContinuousEnergyFunction(_poly(0.0, 0.5), 1.0), 2),
        PooledEnergyFunction(CriticalSpeedEnergyFunction(_poly(0.2), 1.0), 1),
    ),
}


def _checked_energy(fn, workload):
    """``energy`` through the full checks alone (no fast path)."""
    require_nonnegative("workload", workload)
    if not fits(workload, fn.max_workload):
        raise ValueError(
            f"workload {workload!r} exceeds the feasible maximum "
            f"{fn.max_workload!r} for deadline {fn.deadline!r}"
        )
    return fn._energy(float(workload))


def _outcome(thunk):
    """The value as exact float bits, or the raised type and message."""
    try:
        value = thunk()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return type(exc), str(exc)
    return float(value).hex()


def _inputs(fn):
    """Every kind of argument the entry points must judge like the full checks."""
    limit = capacity_limit(fn.max_workload)
    values = [0, 1, 0.0, -0.0, 0.5, -1.0, math.nan, math.inf, -math.inf,
              True, False, "1", None, 1e308]
    if math.isfinite(limit):
        values += [fn.max_workload, limit, math.nextafter(limit, math.inf)]
    if np is not None:
        values += [np.float64(v) for v in values if type(v) is float]
    return values


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_fast_paths_judge_like_the_full_checks(name):
    fn = FUNCTIONS[name]
    for workload in _inputs(fn):
        expected = _outcome(lambda: _checked_energy(fn, workload))
        assert _outcome(lambda: fn.energy(workload)) == expected, workload
        assert (
            _outcome(lambda: fn.energy_many([workload])[0]) == expected
        ), workload


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_the_limit_is_fixed_at_construction(name):
    fn = FUNCTIONS[name]
    # In the instance dict before any call: set by __init__, not lazily.
    assert "_limit" in vars(fn)
    assert fn._limit == min(capacity_limit(fn.max_workload), sys.float_info.max)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_energy_functions_round_trip_through_pickle(name):
    fn = FUNCTIONS[name]
    clone = pickle.loads(pickle.dumps(fn))
    assert clone._limit == fn._limit
    top = fn.max_workload if math.isfinite(fn.max_workload) else 2.0
    for workload in (0.0, 0.3, top):
        assert _outcome(lambda: clone.energy(workload)) == _outcome(
            lambda: fn.energy(workload)
        )


def test_a_subclass_that_never_fixes_the_limit_takes_the_full_checks():
    class Linear(EnergyFunction):
        max_workload = 2.0

        def _energy(self, workload):
            return 3.0 * workload

        def plan(self, workload):  # pragma: no cover - not exercised
            raise NotImplementedError

    fn = Linear(1.0)
    assert "_limit" not in vars(fn)
    for workload in _inputs(fn):
        expected = _outcome(lambda: _checked_energy(fn, workload))
        assert _outcome(lambda: fn.energy(workload)) == expected, workload
        assert (
            _outcome(lambda: fn.energy_many([workload])[0]) == expected
        ), workload
