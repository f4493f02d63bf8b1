"""Exact-value unit tests for the kernel ops at ulp/tie-break corners.

The DP relaxations and the frontier steps run inside the sweep ops
(``dp_sweep_min``/``dp_sweep_max``, ``frontier_sweep``); their tests
drive each corner through a short task sequence.

Parametrised over every *available* kernel (just the python reference in
NumPy-free environments), pinning hand-computed expected values at the
capacity-boundary and tie-breaking corners the differential wall's
random instances only occasionally land on.
"""

from __future__ import annotations

import math

import pytest

from repro._validation import CAPACITY_RTOL, fits
from repro.core.rejection.relaxation import suffix_shed_cost
from repro.kernels import get_kernel, kernel_names, numpy_available, use_kernel


@pytest.fixture(params=kernel_names())
def kern(request):
    with use_kernel(request.param) as kernel:
        yield kernel


class _Cubic:
    """Minimal convex energy-function stand-in for kernel-level ops."""

    def energy(self, w: float) -> float:
        return w * w * w


def test_fits_mask_capacity_ulp_boundary(kern):
    # Every kernel's capacity predicate agrees with the shared one at the
    # ulp corners of the tolerance bound.
    cap = 1.0
    just_inside = cap * (1 + CAPACITY_RTOL)      # exactly on the bound
    just_outside = cap * (1 + 3 * CAPACITY_RTOL)
    loads = [0.0, cap, math.nextafter(cap, 2.0), just_inside, just_outside]
    want = [True, True, True, True, False]
    assert [kern.fits(load, cap) for load in loads] == want
    assert [fits(load, cap) for load in loads] == want


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
    # The second task's reject (row[1] + 0) ties its accept (row[0]): the
    # accept branch is not strictly smaller, so take must stay False.
    row, take = kern.dp_sweep_min([1, 1], [0.0, 0.0], 2)
    assert list(row) == [0.0, 0.0]
    assert take[0][1] and not take[1][1]
    # Strictly smaller accepts do take: [0, inf, inf] -> [2, 0, inf]
    # -> [2.5, 0.5, 0], where 0.5 (reject) beats 2.0 (accept) at j = 1.
    row2, take2 = kern.dp_sweep_min([1, 1], [2.0, 0.5], 3)
    assert list(row2) == [2.5, 0.5, 0.0]
    assert [bool(t) for t in take2[1]] == [False, False, True]


def test_dp_relax_max_breaks_ties_toward_keep(kern):
    row, take = kern.dp_sweep_max([1, 1], [0.0, 0.0], 3)
    assert list(row) == [0.0, 0.0, 0.0]
    assert not take[1][1]  # the tie keeps the accept branch
    assert take[0][1] and take[1][2]  # -inf loses to any finite reject
    row2, take2 = kern.dp_sweep_max([1], [2.0], 2)
    assert list(row2) == [0.0, 2.0]
    assert take2[0][1]


def test_dp_relax_shift_beyond_row_is_reject_only(kern):
    row, take = kern.dp_sweep_min([5], [1.0], 2)
    assert list(row) == [1.0, math.inf]
    assert not any(bool(t) for t in take[0])
    row2, take2 = kern.dp_sweep_max([5], [1.0], 2)
    assert list(row2) == [0.0, -math.inf]
    assert not any(bool(t) for t in take2[0])


def test_dp_sweep_zero_shift_relaxes_in_place(kern):
    # A zero-unit task compares each entry with itself: the min sweep
    # keeps it (accept), the max sweep adds the cycles (reject).
    row, take = kern.dp_sweep_min([0, 1], [1.0, 1.0], 3)
    assert list(row) == [1.0, 0.0, math.inf]
    assert [bool(t) for t in take[0]] == [True, False, False]
    row2, take2 = kern.dp_sweep_max([0, 1], [2.0, 1.0], 3)
    assert list(row2) == [2.0, 3.0, -math.inf]
    assert [bool(t) for t in take2[0]] == [True, False, False]


def test_dp_sweep_leaves_the_tail_past_the_reach_alone(kern):
    # Two tasks reach level 3 of 8: levels 4-7 stay +-inf, never taken.
    row, take = kern.dp_sweep_min([1, 2], [1.0, 1.0], 8)
    assert list(row)[4:] == [math.inf] * 4
    assert list(row)[:4] == [2.0, 1.0, 1.0, 0.0]
    row2, take2 = kern.dp_sweep_max([1, 2], [1.0, 1.0], 8)
    assert list(row2)[4:] == [-math.inf] * 4
    assert list(row2)[:4] == [0.0, 1.0, 1.0, 2.0]
    for table in (take, take2):
        assert not any(bool(t) for r in table for t in list(r)[4:])


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
    # The first task builds (0, 5), (1, 0).  The second (cycles == 0,
    # penalty == 0) duplicates every state in both branches; the stable
    # reject-first order must keep the reject copies.
    front = kern.frontier_sweep([1.0, 0.0], [5.0, 0.0], 10.0, 10)
    assert list(front.workloads) == [0.0, 1.0]
    assert list(front.penalties) == [5.0, 0.0]
    kept, size = front.steps[1]
    assert [int(k) for k in kept] == [0, 1] and size == 2  # both rejects
    assert front.states == 1 + 2 + 4
    assert front.accepted(1) == [0]


def test_frontier_step_prunes_dominated_states(kern):
    # The first two tasks build (0, 3), (1, 2) (the second fits nowhere).
    # The third (c=1, rho=2) makes rejects (0,5), (1,4) and accepts
    # (1,3), (2,2); (1,4) is dominated by (1,3).
    front = kern.frontier_sweep([1.0, 5.0, 1.0], [1.0, 2.0, 2.0], 4.0, 10)
    assert list(front.workloads) == [0.0, 1.0, 2.0]
    assert list(front.penalties) == [5.0, 3.0, 2.0]
    kept, size = front.steps[2]
    # Reject of state 0, accepts of states 0 and 1.
    assert [int(k) for k in kept] == [0, 2, 3] and size == 2
    assert [front.accepted(i) for i in range(3)] == [[], [2], [2, 0]]
    assert (front.states, front.peak) == (1 + 2 + 2 + 4, 3)


def test_frontier_step_capacity_tolerance_on_accept_branch(kern):
    cap = 1.0
    # The first task builds (0, 10), (d, 0).  Accepting a capacity-sized
    # task fits from workload 0 (exactly on the capacity) but, for
    # d = 3 * RTOL, not from d: the step examines 3 candidates.
    outside = kern.frontier_sweep(
        [3 * CAPACITY_RTOL * cap, cap], [10.0, 0.25], cap, 10
    )
    assert outside.states == 1 + 2 + 3
    assert list(outside.penalties) == [10.25, 0.25]
    # Half an RTOL above the capacity is inside the shared tolerance.
    inside = kern.frontier_sweep(
        [0.5 * CAPACITY_RTOL * cap, cap], [10.0, 0.25], cap, 10
    )
    assert inside.states == 1 + 2 + 4
    assert list(inside.penalties) == [10.25, 0.25, 0.0]
    assert inside.accepted(2) == [1, 0]


def test_frontier_sweep_stops_past_its_limit(kern):
    # Three tasks grow the frontier 1 -> 2 -> 4 -> 8 states; a limit of
    # 3 stops the sweep after the second task (4 > 3).
    front = kern.frontier_sweep([1.0, 2.0, 4.0], [1.0, 2.0, 4.0], 100.0, 3)
    assert len(front.steps) == 2 and len(front) == 4
    assert front.peak == 4 and front.states == 1 + 2 + 4


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


def test_get_kernel_reflects_use_kernel_nesting(kern):
    assert get_kernel() is kern
    with use_kernel("python"):
        assert get_kernel().name == "python"
    assert get_kernel() is kern


def test_kernel_names_always_lead_with_python():
    names = kernel_names()
    assert names[0] == "python"
    assert ("numpy" in names) == numpy_available()
