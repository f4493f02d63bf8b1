"""Closed-form conjugates ``g*(λ) = sup_W λW − g(W)`` against brute force.

The fractional bounds maximise ``Σ min(λc, ρ) − g*(λ)`` over ``λ``, so a
conjugate that is too small would make every bound too large.  Each
closed form here is checked against the supremum over a fine workload
grid, and its ``W*`` must attain the value it reports.
"""

from __future__ import annotations

import math

import pytest

from repro.energy import (
    ContinuousEnergyFunction,
    CriticalSpeedEnergyFunction,
    DiscreteEnergyFunction,
)
from repro.hetero.assign import InfConvolution
from repro.hetero.platform import lp_hp_platform
from repro.multiproc.pooled import PooledEnergyFunction
from repro.power import CMOSPowerModel, DormantMode, PolynomialPowerModel, SpeedLevels

#: Every branch of the closed form: plain, static floor, a speed floor
#: (the kink at ``D·s_min``), both, another exponent and deadline.
CURVES = {
    "xscale": ContinuousEnergyFunction(
        PolynomialPowerModel(beta0=0.08, beta1=1.52, alpha=3.0), 1.0
    ),
    "floor": ContinuousEnergyFunction(
        PolynomialPowerModel(beta0=0.08, beta1=1.52, alpha=3.0),
        2.5,
        include_static_floor=True,
    ),
    "smin": ContinuousEnergyFunction(
        PolynomialPowerModel(beta1=1.0, alpha=2.5, s_min=0.3, s_max=2.0), 0.5
    ),
    "smin-floor": ContinuousEnergyFunction(
        PolynomialPowerModel(beta0=0.05, beta1=1.0, alpha=2.5, s_min=0.3),
        2.0,
        include_static_floor=True,
    ),
}

#: Prices below, inside and above every curve's slope range.
PRICES = (0.0, 0.05, 0.25, 0.4, 0.8, 1.5, 3.0, 4.56, 7.0, 20.0)

GRID = 20_000


def _grid_sup(energy, cap: float, lam: float) -> float:
    return max(lam * w - energy(w) for w in (cap * i / GRID for i in range(GRID + 1)))


def _grid_slack(energy, cap: float, lam: float) -> float:
    """How far below the true supremum a grid point may fall."""
    slope = (energy(cap) - energy(cap * (1 - 1 / GRID))) * GRID / cap
    return (abs(lam) + slope) * cap / GRID


@pytest.mark.parametrize("name", sorted(CURVES))
@pytest.mark.parametrize("lam", PRICES)
def test_closed_form_matches_a_grid_supremum(name, lam):
    g = CURVES[name]
    star, w = g.conjugate(lam)
    assert 0.0 <= w <= g.max_workload
    assert lam * w - g.energy(w) == pytest.approx(star, rel=1e-12, abs=1e-14)
    grid = _grid_sup(g.energy, g.max_workload, lam)
    assert grid <= star + 1e-12
    assert star <= grid + _grid_slack(g.energy, g.max_workload, lam)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_the_maximiser_is_non_decreasing_in_the_price(name):
    g = CURVES[name]
    workloads = [g.conjugate(lam)[1] for lam in PRICES]
    assert workloads == sorted(workloads)


@pytest.mark.parametrize(
    "curve",
    [
        ContinuousEnergyFunction(
            CMOSPowerModel(v_t=0.3, short_circuit_coeff=0.2, static_power=0.05), 1.5
        ),
        CriticalSpeedEnergyFunction(
            PolynomialPowerModel(beta0=0.2, beta1=1.52, alpha=3.0), 1.0
        ),
        DiscreteEnergyFunction(
            PolynomialPowerModel(beta0=0.1, beta1=1.52, alpha=3.0),
            SpeedLevels([0.5, 1.0]),
            1.0,
            dormant=DormantMode(),
        ),
    ],
    ids=["cmos", "critical", "discrete"],
)
def test_curves_without_a_closed_form_say_so(curve):
    assert curve.conjugate(1.0) is None
    assert PooledEnergyFunction(curve, 2).conjugate(1.0) is None
    with pytest.raises(ValueError, match="closed-form conjugate"):
        InfConvolution(PooledEnergyFunction(curve, 2), PooledEnergyFunction(curve, 1))


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("lam", PRICES)
def test_a_pool_scales_the_conjugate(m, lam):
    g = CURVES["smin-floor"]
    pool = PooledEnergyFunction(g, m)
    star, w = g.conjugate(lam)
    assert pool.conjugate(lam) == (m * star, m * w)
    grid = _grid_sup(pool.energy, pool.max_workload, lam)
    assert grid <= m * star + 1e-12
    assert m * star <= grid + _grid_slack(pool.energy, pool.max_workload, lam)


def _split_energy(pool_a, pool_b, workload: float, steps: int = 150) -> float:
    """``min_x A(x) + B(W − x)`` over a grid of feasible splits."""
    lo = max(0.0, workload - pool_b.max_workload)
    hi = min(workload, pool_a.max_workload)
    return min(
        pool_a.energy(x) + pool_b.energy(min(workload - x, pool_b.max_workload))
        for x in (lo + (hi - lo) * i / steps for i in range(steps + 1))
    )


@pytest.mark.parametrize("lam", [0.3, 1.2, 5.0])
def test_the_inf_convolution_adds_the_conjugates(lam):
    lp_fn, hp_fn = lp_hp_platform(2, 1).energy_functions()
    pool_a = PooledEnergyFunction(lp_fn, 2)
    pool_b = PooledEnergyFunction(hp_fn, 1)
    combined = InfConvolution(pool_a, pool_b)
    star_a, w_a = pool_a.conjugate(lam)
    star_b, w_b = pool_b.conjugate(lam)
    star, w = combined.conjugate(lam)
    assert (star, w) == (star_a + star_b, w_a + w_b)
    cap = combined.max_workload
    steps = 150
    grid = max(
        lam * v - _split_energy(pool_a, pool_b, v)
        for v in (cap * i / steps for i in range(steps + 1))
    )
    assert grid <= star + 1e-12
    assert star <= grid + 2 * (lam + 5.0) * cap / steps


def test_the_inf_convolution_energy_is_the_best_split():
    lp_fn, hp_fn = lp_hp_platform(1, 2).energy_functions()
    pool_a = PooledEnergyFunction(lp_fn, 1)
    pool_b = PooledEnergyFunction(hp_fn, 2)
    combined = InfConvolution(pool_a, pool_b)
    for frac in (0.0, 0.05, 0.3, 0.6, 0.9, 1.0):
        workload = frac * combined.max_workload
        best = combined.energy(workload)
        assert best == pytest.approx(
            _split_energy(pool_a, pool_b, workload, steps=4000), rel=1e-6, abs=1e-12
        )
        assert not math.isnan(best)
