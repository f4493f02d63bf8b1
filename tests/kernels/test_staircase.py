"""Differential wall for the staircase filter of ``best_penalty_level``.

The op prices only the levels of a penalty DP row that shed more cycles
than every earlier feasible level (see :meth:`Kernel.best_penalty_level`).
Here every available kernel is compared against a brute-force scan over
*every* feasible level, on rows with ``-inf`` gaps, plateaus, infeasible
prefixes and no feasible level at all, under each XScale energy function
the experiments use, including the ones whose ``g`` dips by an ulp.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._validation import CAPACITY_RTOL
from repro.kernels import kernel_names, use_kernel
from repro.kernels.base import STAIRCASE_RTOL
from repro.power import DormantMode

try:
    from repro.experiments.common import xscale_energy
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    xscale_energy = None

DORMANT = DormantMode(t_sw=0.01, e_sw=0.005)

#: (kind, levels) of every energy model ``xscale_energy`` builds.
KINDS = (("continuous", None), ("critical", None), ("discrete", 5))

ENERGY_FNS = [
    pytest.param(
        xscale_energy(deadline=deadline, kind=kind, levels=levels, dormant=dormant),
        id=f"{kind}-D{deadline}-{'dormant' if dormant else 'awake'}",
    )
    for deadline, (kind, levels), dormant in itertools.product(
        (1.0, 0.37, 3.0), KINDS, (None, DORMANT)
    )
    if xscale_energy is not None
]


def full_scan(row, total, capacity, energy_fn, price):
    """The op's contract, priced at every feasible level."""
    best, best_cost = -1, math.inf
    for p, value in enumerate(row):
        if not math.isfinite(value):
            continue
        workload = total - value
        if not workload <= capacity * (1 + CAPACITY_RTOL):
            continue
        cost = energy_fn.energy(min(max(workload, 0.0), capacity)) + p * price
        if cost < best_cost:
            best, best_cost = p, cost
    return best, best_cost


@st.composite
def penalty_rows(draw):
    """A penalty DP row as fractions of the total cycles shed.

    Entries on a coarse grid make plateaus and exact ties common;
    ``-inf`` marks unreachable levels.  Whether a prefix (or the whole
    row) is infeasible depends on the total it is scaled by.
    """
    grid = draw(st.integers(min_value=2, max_value=12))
    # -2 is a gap, -1 repeats the previous entry, k >= 0 is k / grid.
    codes = st.integers(min_value=-2, max_value=grid)
    entry = st.one_of(codes, st.floats(min_value=0.0, max_value=1.0))
    row = [0.0]
    for value in draw(st.lists(entry, max_size=40)):
        if value == -2:
            row.append(-math.inf)
        elif value == -1:
            row.append(row[-1])
        else:
            row.append(value / grid if isinstance(value, int) else value)
    return row


@pytest.mark.parametrize("fn", ENERGY_FNS)
@settings(max_examples=30)
@given(
    fractions=penalty_rows(),
    overload=st.sampled_from([0.5, 1.0, 1.5, 3.0, 10.0]),
    price_exponent=st.floats(min_value=-6.0, max_value=0.0),
    tiny_price=st.booleans(),
)
def test_matches_the_full_scan(fn, fractions, overload, price_exponent, tiny_price):
    capacity = fn.max_workload
    total = capacity * overload
    row = [f * total for f in fractions]
    top = fn.energy(capacity)
    # A tiny price sits at the guard's scale, often below it.
    price = top * (STAIRCASE_RTOL / 2 if tiny_price else 10.0**price_exponent)
    expected = full_scan(row, total, capacity, fn, price)
    for name in kernel_names():
        with use_kernel(name) as kern:
            got = kern.best_penalty_level(row, total, capacity, fn, price)
        assert got == expected, name


class _UlpDip:
    """``g = 1`` up to ``w = 0.5`` and one ulp lower beyond it: the
    shape of the rounding dips the critical and dormant-discrete XScale
    functions show."""

    def energy(self, w: float) -> float:
        return math.nextafter(1.0, 0.0) if w > 0.5 else 1.0


@pytest.mark.parametrize("name", kernel_names())
def test_full_scan_runs_below_the_guard(name):
    # Level 1 sheds less than level 0, so the staircase would skip it,
    # but the dip makes it cheaper when the price cannot cover an ulp.
    row, total, capacity = [0.6, 0.4], 1.0, 1.0
    price = 2.0**-60  # below STAIRCASE_RTOL * g(0.4) = 2**-40
    with use_kernel(name) as kern:
        got = kern.best_penalty_level(row, total, capacity, _UlpDip(), price)
    assert got == full_scan(row, total, capacity, _UlpDip(), price)
    assert got == (1, math.nextafter(1.0, 0.0))
