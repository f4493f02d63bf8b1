"""Exact-value unit tests for the kernel ops at ulp/tie-break corners.

Parametrised over every *available* kernel (just the python reference in
NumPy-free environments), pinning hand-computed expected values at the
capacity-boundary and tie-breaking corners the differential wall's
random instances only occasionally land on.
"""

from __future__ import annotations

import math

import pytest

from repro._validation import CAPACITY_RTOL
from repro.kernels import get_kernel, kernel_names, numpy_available, use_kernel
from repro.kernels.base import suffix_shed_cost


@pytest.fixture(params=kernel_names())
def kern(request):
    with use_kernel(request.param) as kernel:
        yield kernel


class _Cubic:
    """Minimal convex energy-function stand-in for kernel-level ops."""

    def energy(self, w: float) -> float:
        return w * w * w


def test_fits_mask_capacity_ulp_boundary(kern):
    cap = 1.0
    just_inside = cap * (1 + CAPACITY_RTOL)      # exactly on the bound
    just_outside = cap * (1 + 3 * CAPACITY_RTOL)
    loads = [0.0, cap, math.nextafter(cap, 2.0), just_inside, just_outside]
    assert list(kern.fits_mask(loads, cap)) == [True, True, True, True, False]


def test_prefix_reject_count_stops_at_first_fit(kern):
    # workload 3.0 over capacity 1.0: rejecting [0.5, 1.5, ...] in order
    # first fits after the second rejection (3 - 0.5 - 1.5 = 1.0 == cap).
    count, remaining = kern.prefix_reject_count([0.5, 1.5, 0.2], 3.0, 1.0)
    assert count == 2
    assert remaining == 1.0


def test_prefix_reject_count_honours_capacity_tolerance(kern):
    # The remainder lands CAPACITY_RTOL above the capacity: within the
    # shared tolerance, so it counts as fitting.
    cap = 1.0
    over = cap * (1 + CAPACITY_RTOL)
    count, remaining = kern.prefix_reject_count([1.0, 1.0], 2.0 + over, cap)
    assert count == 2
    assert remaining == pytest.approx(over, abs=1e-15)
    assert kern.fits(remaining, cap)


def test_prefix_reject_count_zero_when_already_fitting(kern):
    count, remaining = kern.prefix_reject_count([1.0, 1.0], 0.5, 1.0)
    assert (count, remaining) == (0, 0.5)


def test_dp_relax_min_breaks_ties_toward_reject(kern):
    # reject (row[j] + addend) == accept (row[j - shift]): the accept
    # branch is not strictly smaller, so take must stay False.
    out, take = kern.dp_relax_min([0.0, 0.0], 1, 0.0)
    assert list(out) == [0.0, 0.0]
    assert not take[1]
    # Strictly smaller accept does take.
    out2, take2 = kern.dp_relax_min([0.0, 1.0], 1, 0.5)
    assert list(out2) == [0.5, 0.0]
    assert take2[1] and not take2[0]


def test_dp_relax_max_breaks_ties_toward_keep(kern):
    out, take = kern.dp_relax_max([0.0, 0.0, 0.0], 1, 0.0)
    assert list(out) == [0.0, 0.0, 0.0]
    assert not take[1] and not take[2]  # ties keep the accept branch
    out2, take2 = kern.dp_relax_max([0.0, -math.inf], 1, 2.0)
    assert list(out2) == [0.0, 2.0]
    assert take2[1]


def test_dp_relax_shift_beyond_row_is_reject_only(kern):
    out, take = kern.dp_relax_min([0.0, 3.0], 5, 1.0)
    assert list(out) == [1.0, 4.0]
    assert not any(bool(t) for t in take)
    out2, take2 = kern.dp_relax_max([0.0, 3.0], 5, 1.0)
    assert list(out2) == [0.0, 3.0]
    assert not any(bool(t) for t in take2)


def test_best_workload_level_prefers_first_minimum(kern):
    # quantum 0 collapses every level to workload 0: all finite entries
    # tie, and the first index must win on every kernel.
    row = [math.inf, 1.0, 1.0, math.inf]
    level, cost = kern.best_workload_level(row, 0.0, 10.0, _Cubic())
    assert level == 1
    assert cost == 1.0


def test_best_workload_level_clamps_to_capacity(kern):
    # Level 2 overshoots the capacity; its energy is priced at the cap.
    level, cost = kern.best_workload_level([0.0, 5.0, 0.0], 2.0, 3.0, _Cubic())
    assert level == 0
    assert cost == 0.0
    level2, cost2 = kern.best_workload_level(
        [math.inf, 25.0, 0.0], 2.0, 3.0, _Cubic()
    )
    assert level2 == 2
    assert cost2 == 27.0  # g(min(4, 3)): unclamped would price g(4) = 64


def test_best_penalty_level_skips_infeasible_levels(kern):
    # dp[p] = max shed cycles at penalty p; total 3, capacity 1 means
    # only levels shedding >= 2 cycles are feasible.
    row = [0.0, 1.0, 2.0, 3.0]
    level, cost = kern.best_penalty_level(row, 3.0, 1.0, _Cubic(), 0.25)
    # level 2: g(min(3-2, 1)) + 2*0.25 = 1.5; level 3: g(0) + 0.75 = 0.75.
    assert level == 3
    assert cost == 0.75


def test_best_penalty_level_returns_minus_one_when_nothing_fits(kern):
    level, cost = kern.best_penalty_level([0.0, 0.5], 10.0, 1.0, _Cubic(), 1.0)
    assert level == -1
    assert cost == math.inf


class _PricedCubic(_Cubic):
    """:class:`_Cubic` that records every workload it prices."""

    def __init__(self) -> None:
        self.priced: list[float] = []

    def energy(self, w: float) -> float:
        self.priced.append(w)
        return super().energy(w)


def test_best_penalty_level_plateau_prices_only_its_first_level(kern):
    g = _PricedCubic()
    level, cost = kern.best_penalty_level(
        [-math.inf, 2.0, 2.0, 2.0], 3.0, 1.0, g, 0.25
    )
    assert (level, cost) == (1, 1.25)  # g(1) + 1 * 0.25
    assert g.priced == [1.0]


def test_best_penalty_level_skips_a_dominated_level_across_gaps(kern):
    # Total 3, capacity 1: a level is feasible once it sheds >= 2.  Level
    # 5 sheds 2.0 <= level 1's 2.5, past a gap (2, 4) and an infeasible
    # level (3), so it is never priced; level 6 sheds more and is.
    g = _PricedCubic()
    row = [0.0, 2.5, -math.inf, 0.5, -math.inf, 2.0, 3.0]
    level, cost = kern.best_penalty_level(row, 3.0, 1.0, g, 0.25)
    assert (level, cost) == (1, 0.375)  # g(0.5) + 0.25; level 6 costs 1.5
    assert sorted(g.priced) == [0.0, 0.5]


@pytest.mark.parametrize(
    "price, priced",
    [
        # Above STAIRCASE_RTOL * g(2) = 2**-37 the staircase applies.
        (math.nextafter(2.0**-37, 1.0), [0.0, 1.0, 2.0]),
        # At or below the guard every feasible level is priced.
        (2.0**-37, [0.0, 1.0, 1.5, 2.0]),
        (math.nextafter(2.0**-37, 0.0), [0.0, 1.0, 1.5, 2.0]),
    ],
)
def test_best_penalty_level_staircase_guard(kern, price, priced):
    # Level 0 is the first feasible level: W_max = 2, g(W_max) = 8.
    g = _PricedCubic()
    row = [1.0, 2.0, 1.5, 3.0]
    level, cost = kern.best_penalty_level(row, 3.0, 2.0, g, price)
    # The full scan's answer either way: level 3 sheds everything.
    assert (level, cost) == (3, 3 * price)
    assert sorted(set(g.priced)) == priced


def test_marginal_best_prefers_first_on_exact_tie(kern):
    # Two identical candidates: index 0 must be chosen on every kernel.
    idx = kern.marginal_best(1.0, [0.5, 0.5], [0.01, 0.01], _Cubic())
    assert idx == 0


def test_marginal_best_rejects_fp_noise_improvements(kern):
    # Saving == penalty exactly: not a strict improvement, returns -1.
    g = _Cubic()
    saving = g.energy(1.0) - g.energy(0.5)
    assert kern.marginal_best(1.0, [0.5], [saving], g) == -1


def test_marginal_best_corners_hold_above_the_vectorisation_gate(kern):
    # 32 candidates: past the numpy kernel's gate (VECTOR_MIN_LEN), so
    # its vectorised branch, not the inherited loop, meets both corners.
    g = _Cubic()
    assert kern.marginal_best(1.0, [0.5] * 32, [0.01] * 32, g) == 0
    saving = g.energy(1.0) - g.energy(0.5)
    assert kern.marginal_best(1.0, [0.5] * 32, [saving] * 32, g) == -1


def test_improving_prefix_stops_at_first_non_improving(kern):
    g = _Cubic()
    # Rejecting the first task (cycles 0.5, penalty ~0) improves; the
    # second's penalty towers over any saving, so the scan stops at 1.
    count, remaining = kern.improving_prefix(1.0, [0.5, 0.3], [0.0, 99.0], g)
    assert count == 1
    assert remaining == 0.5


def test_frontier_step_keeps_reject_branch_on_full_tie(kern):
    # cycles == 0 and penalty == 0 duplicates every state in both
    # branches; the stable reject-first order must keep the reject copy.
    step = kern.frontier_step([0.0, 1.0], [5.0, 0.0], 0.0, 0.0, 10.0)
    assert list(step.workloads) == [0.0, 1.0]
    assert list(step.penalties) == [5.0, 0.0]
    assert [bool(a) for a in step.accepted] == [False, False]
    assert step.candidates == 4


def test_frontier_step_prunes_dominated_states(kern):
    # States (0,3),(1,2) + task (c=1, rho=2): candidates are rejects
    # (0,5),(1,4) and accepts (1,3),(2,2); (1,4) is dominated by (1,3).
    step = kern.frontier_step([0.0, 1.0], [3.0, 2.0], 1.0, 2.0, 10.0)
    assert list(step.workloads) == [0.0, 1.0, 2.0]
    assert list(step.penalties) == [5.0, 3.0, 2.0]
    assert [bool(a) for a in step.accepted] == [False, True, True]
    assert [int(s) for s in step.sources] == [0, 0, 1]


def test_frontier_step_capacity_tolerance_on_accept_branch(kern):
    cap = 1.0
    # From workload 3*RTOL above zero, accepting a capacity-sized task
    # lands outside the shared tolerance: only the reject branch remains.
    step = kern.frontier_step([3 * CAPACITY_RTOL * cap], [0.5], cap, 0.25, cap)
    assert len(step) == 1
    assert not bool(step.accepted[0])
    # From exactly zero the same accept lands exactly on the capacity.
    step2 = kern.frontier_step([0.0], [0.5], cap, 0.25, cap)
    assert list(step2.workloads) == [0.0, cap]
    assert [bool(a) for a in step2.accepted] == [False, True]


def test_subset_sums_doubling_order(kern):
    sums = kern.subset_sums([1.0, 10.0, 100.0])
    assert [float(s) for s in sums] == [
        0.0, 1.0, 10.0, 11.0, 100.0, 101.0, 110.0, 111.0,
    ]


def test_exhaustive_best_ties_resolve_to_first_mask(kern):
    # Masks 0 and 1 both cost 1.0 (zero-cycle task... emulate with equal
    # cost cells): workloads equal, penalties equal -> mask 0 wins.
    best, cost = kern.exhaustive_best([0.5, 0.5], [1.0, 1.0], 2.0, 1.0, _Cubic())
    assert best == 0
    assert cost == _Cubic().energy(0.5) + 1.0


def test_suffix_shed_cost_charges_fractional_task(kern):
    cum_c = [0.0, 1.0, 3.0]
    cum_p = [0.0, 2.0, 8.0]
    densities = [2.0, 3.0]
    # Shedding 2.0 from start 0: task 0 fully (1 cycle, 2 penalty) plus
    # half of task 1 (1 of 2 cycles at density 3) = 2 + 3 = 5.
    assert suffix_shed_cost(cum_c, cum_p, densities, 0, 2.0) == 5.0
    # Shedding everything returns the full suffix penalty.
    assert suffix_shed_cost(cum_c, cum_p, densities, 0, 3.0) == 8.0
    # Shedding nothing is free.
    assert suffix_shed_cost(cum_c, cum_p, densities, 0, 0.0) == 0.0


def test_bound_breakpoint_min_matches_scalar_enumeration(kern):
    g = _Cubic()
    cum_c = [0.0, 1.0, 3.0, 4.0]
    cum_p = [0.0, 2.0, 8.0, 9.0]
    densities = [2.0, 3.0, 1.0]
    suffix_total = cum_c[-1]
    w_hi = 2.5
    expected = math.inf
    for k in range(0, 4):
        w = suffix_total - cum_c[k]
        if not 0.0 <= w <= w_hi + 1e-12:
            continue
        wc = min(w, w_hi)
        expected = min(
            expected,
            g.energy(min(0.0 + wc, 10.0))
            + suffix_shed_cost(cum_c, cum_p, densities, 0, suffix_total - wc),
        )
    got = kern.bound_breakpoint_min(
        cum_c, cum_p, densities, 0, 0.0, 0.0, w_hi, suffix_total, 10.0, g
    )
    assert got == expected


def test_get_kernel_reflects_use_kernel_nesting(kern):
    assert get_kernel() is kern
    with use_kernel("python"):
        assert get_kernel().name == "python"
    assert get_kernel() is kern


def test_kernel_names_always_lead_with_python():
    names = kernel_names()
    assert names[0] == "python"
    assert ("numpy" in names) == numpy_available()
