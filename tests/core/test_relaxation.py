"""Tests for the fractional relaxation and LP rounding."""

from itertools import accumulate
from random import Random

import pytest
from hypothesis import given, settings

from repro.core.rejection import (
    MultiprocRejectionProblem,
    RejectionProblem,
    exhaustive,
    fractional_lower_bound,
    fractional_relaxation,
    lp_rounding,
    pooled_lower_bound,
)
from repro.core.rejection.relaxation import _minimize_convex, relax_suffix
from repro.energy import ContinuousEnergyFunction
from repro.hetero.assign import HeteroRejectionProblem, hetero_pooled_lower_bound
from repro.hetero.platform import lp_hp_platform
from repro.multiproc.pooled import PooledEnergyFunction
from repro.power import PolynomialPowerModel, xscale_power_model
from repro.tasks import FrameTask, FrameTaskSet

from tests.conftest import rejection_problems


def simple_problem(tasks, s_max=1.0):
    model = PolynomialPowerModel(beta1=1.52, alpha=3.0, s_max=s_max)
    return RejectionProblem(
        tasks=tasks, energy_fn=ContinuousEnergyFunction(model, deadline=1.0)
    )


class TestLowerBound:
    @given(problem=rejection_problems(max_tasks=7))
    @settings(max_examples=50)
    def test_bounds_the_optimum(self, problem):
        assert fractional_lower_bound(problem) <= exhaustive(problem).cost + 1e-9

    def test_tight_when_relaxation_is_integral(self):
        # One task, enormous penalty: accept it; bound = energy = OPT.
        tasks = FrameTaskSet([FrameTask(name="a", cycles=0.5, penalty=100.0)])
        p = simple_problem(tasks)
        assert fractional_lower_bound(p) == pytest.approx(
            exhaustive(p).cost, rel=1e-6
        )

    def test_witness_structure(self):
        tasks = FrameTaskSet(
            [
                FrameTask(name="cheap", cycles=0.8, penalty=0.01),
                FrameTask(name="dear", cycles=0.8, penalty=10.0),
            ]
        )
        relaxed = fractional_relaxation(simple_problem(tasks))
        # Overload 1.6: the cheap-density task absorbs the rejection.
        assert 0 in relaxed.fully_rejected or relaxed.fractional_task == 0
        assert relaxed.accepted_workload <= 1.0 + 1e-9

    def test_nonconvex_energy_uses_convex_stand_in(self):
        from repro.energy import CriticalSpeedEnergyFunction
        from repro.power import DormantMode

        model = PolynomialPowerModel(beta0=0.1, beta1=1.52, alpha=3.0)
        g = CriticalSpeedEnergyFunction(
            model, deadline=1.0, dormant=DormantMode(e_sw=0.02)
        )
        tasks = FrameTaskSet(
            [
                FrameTask(name="a", cycles=0.3, penalty=0.2),
                FrameTask(name="b", cycles=0.5, penalty=0.4),
            ]
        )
        p = RejectionProblem(tasks=tasks, energy_fn=g)
        # Still a valid lower bound on the true (kinked) problem.
        assert fractional_lower_bound(p) <= exhaustive(p).cost + 1e-9


class TestLpRounding:
    @given(problem=rejection_problems(max_tasks=7))
    @settings(max_examples=40)
    def test_feasible_and_above_bound(self, problem):
        sol = lp_rounding(problem)
        assert problem.is_feasible(sol.accepted)
        assert sol.cost >= fractional_lower_bound(problem) - 1e-9

    @given(problem=rejection_problems(max_tasks=6))
    @settings(max_examples=30)
    def test_rounding_gap_bounded_by_one_task(self, problem):
        """Rounding loses at most the worst single task's contribution."""
        sol = lp_rounding(problem)
        bound = fractional_lower_bound(problem)
        worst_single = max(
            max(t.penalty for t in problem.tasks),
            problem.energy_fn.energy(
                min(
                    max(t.cycles for t in problem.tasks),
                    problem.energy_fn.max_workload,
                )
            ),
        )
        assert sol.cost <= bound + worst_single + 1e-6

    def test_integral_relaxation_rounds_to_itself(self):
        tasks = FrameTaskSet([FrameTask(name="a", cycles=0.5, penalty=100.0)])
        p = simple_problem(tasks)
        sol = lp_rounding(p)
        assert sol.accepted == {0}


# --------------------------------------------------------------------- #
# The λ search against one golden-section search on the primal          #
# --------------------------------------------------------------------- #


def _golden_reference(energy, cycles, penalties, cap, *, base=0.0):
    """``min g(w) + shed(w)`` over ``base ≤ w ≤ cap`` by one golden search.

    The shed cost of keeping ``w − base`` of the tasks' cycles is the
    fractional knapsack in density order; every breakpoint is checked
    too, since the minimum of the piecewise objective may sit on one.
    """
    order = sorted(range(len(cycles)), key=lambda i: penalties[i] / cycles[i])
    total = sum(cycles)

    def shed(w):
        gone, cost = total - (w - base), 0.0
        for i in order:
            take = min(cycles[i], max(gone, 0.0))
            cost += take * penalties[i] / cycles[i]
            gone -= take
        return cost

    hi = min(base + total, cap)
    objective = lambda w: energy(min(w, hi)) + shed(w)  # noqa: E731
    _, best = _minimize_convex(objective, base, hi)
    left = base + total
    for i in [None] + order:
        if i is not None:
            left -= cycles[i]
        if base <= left <= hi:
            best = min(best, objective(left))
    return best


def _family(seed, cap):
    rng = Random(f"golden-reference:{seed}")
    n = rng.randint(3, 16)
    load = rng.uniform(0.4, 2.0)
    cycles = [load * cap / n * rng.uniform(0.4, 1.6) for _ in range(n)]
    penalties = [c * rng.uniform(0.2, 5.0) for c in cycles]
    return FrameTaskSet(
        FrameTask(name=f"t{i}", cycles=c, penalty=p)
        for i, (c, p) in enumerate(zip(cycles, penalties))
    )


_CURVES = {
    "xscale": ContinuousEnergyFunction(xscale_power_model(), 1.0),
    "smin-floor": ContinuousEnergyFunction(
        PolynomialPowerModel(beta0=0.05, beta1=1.0, alpha=2.5, s_min=0.3),
        2.0,
        include_static_floor=True,
    ),
}


class TestAgainstGoldenReference:
    @pytest.mark.parametrize("curve", sorted(_CURVES))
    def test_fractional_bound(self, curve):
        g = _CURVES[curve]
        for seed in range(30):
            p = RejectionProblem(tasks=_family(seed, g.max_workload), energy_fn=g)
            expected = _golden_reference(
                g.energy, p.cycles, p.penalties, p.capacity
            )
            assert fractional_lower_bound(p) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_pooled_bound(self, m):
        per = _CURVES["smin-floor"]
        pool = PooledEnergyFunction(per, m)
        for seed in range(20):
            p = MultiprocRejectionProblem(
                tasks=_family(seed, pool.max_workload), energy_fn=per, m=m
            )
            expected = _golden_reference(
                pool.energy, p.cycles, p.penalties, pool.max_workload
            )
            assert pooled_lower_bound(p) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("lp,hp", [(1, 1), (2, 1), (1, 2)])
    def test_hetero_bound(self, lp, hp):
        platform = lp_hp_platform(lp, hp)
        pools = [
            PooledEnergyFunction(fn, t.count)
            for t, fn in zip(platform.core_types, platform.energy_functions())
        ]

        def split(w):  # the inf-convolution, by a golden search per call
            lo = max(0.0, w - pools[1].max_workload)
            hi = min(w, pools[0].max_workload)
            cost = lambda x: pools[0].energy(x) + pools[1].energy(  # noqa: E731
                min(w - x, pools[1].max_workload)
            )
            return min(_minimize_convex(cost, lo, hi)[1], cost(lo), cost(hi))

        cap = pools[0].max_workload + pools[1].max_workload
        for seed in range(6):
            p = HeteroRejectionProblem(tasks=_family(seed, cap), platform=platform)
            expected = _golden_reference(split, p.cycles, p.penalties, cap)
            assert hetero_pooled_lower_bound(p) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("curve", sorted(_CURVES))
    def test_branch_and_bound_node_bound(self, curve):
        g = _CURVES[curve]
        for seed in range(30):
            p = RejectionProblem(tasks=_family(seed, g.max_workload), energy_fn=g)
            order = sorted(range(p.n), key=lambda i: p.penalties[i] / p.cycles[i])
            cycles = [p.cycles[i] for i in order]
            penalties = [p.penalties[i] for i in order]
            start = seed % p.n
            base = 0.5 * p.capacity * (seed % 3) / 3
            value, _, _ = relax_suffix(
                g,
                [q / c for q, c in zip(penalties, cycles)],
                list(accumulate(cycles, initial=0.0)),
                list(accumulate(penalties, initial=0.0)),
                start,
                base,
                p.capacity,
            )
            expected = _golden_reference(
                g.energy, cycles[start:], penalties[start:], p.capacity, base=base
            )
            assert value == pytest.approx(expected, rel=1e-9)
