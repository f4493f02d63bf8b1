"""The invariant checkers accept good solutions and flag corrupted ones."""

import dataclasses

import numpy as np
import pytest

from repro.core.rejection import (
    CostBreakdown,
    RejectionProblem,
    RejectionSolution,
    exhaustive,
    fractional_lower_bound,
)
from repro.energy import ContinuousEnergyFunction
from repro.power import PolynomialPowerModel
from repro.tasks import FrameTask, FrameTaskSet
from repro.verify import (
    check_convexity_claim,
    check_fptas_bound,
    check_sandwich,
    check_solution,
)
from tests.core.test_scale_free import MODELS, SCALE, _pair


@pytest.fixture
def problem():
    fn = ContinuousEnergyFunction(
        PolynomialPowerModel(beta0=0.1, beta1=1.52, alpha=3.0, s_max=1.0),
        deadline=1.0,
    )
    tasks = FrameTaskSet(
        [
            FrameTask(name="a", cycles=0.5, penalty=0.4),
            FrameTask(name="b", cycles=0.6, penalty=0.1),
            FrameTask(name="c", cycles=0.3, penalty=0.9),
        ]
    )
    return RejectionProblem(tasks=tasks, energy_fn=fn)


def test_good_solution_is_clean(problem):
    assert check_solution(exhaustive(problem)) == []


def test_corrupted_energy_is_flagged(problem):
    sol = exhaustive(problem)
    bad = dataclasses.replace(
        sol,
        breakdown=CostBreakdown(
            energy=sol.energy + 0.5, penalty=sol.penalty
        ),
    )
    assert any(v.invariant == "cost" for v in check_solution(bad))


def test_infeasible_accepted_set_is_flagged(problem):
    # Construct an overloaded "solution" directly, bypassing the
    # validating problem.solution() constructor.
    accepted = frozenset(range(problem.n))
    bad = RejectionSolution(
        problem=problem,
        accepted=accepted,
        breakdown=CostBreakdown(energy=0.0, penalty=0.0),
        algorithm="handmade",
    )
    assert any(v.invariant == "feasibility" for v in check_solution(bad))


def test_out_of_range_index_is_flagged(problem):
    bad = RejectionSolution(
        problem=problem,
        accepted=frozenset([99]),
        breakdown=CostBreakdown(energy=0.0, penalty=0.0),
        algorithm="handmade",
    )
    assert any(v.invariant == "feasibility" for v in check_solution(bad))


def test_sandwich_flags_impossible_cost(problem):
    sol = exhaustive(problem)
    lower = fractional_lower_bound(problem)
    assert check_sandwich(problem, sol, lower=lower) == []
    # A "lower bound" above the optimum must be reported.
    assert check_sandwich(problem, sol, lower=sol.cost + 1.0)
    # An upper bound below the optimum must be reported.
    assert check_sandwich(problem, sol, lower=lower, upper=sol.cost - 1.0)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_checks_read_the_same_in_tiny_units(model):
    """Tolerances are relative: a bad cost in 1e-10 units is still bad."""
    base, scaled = _pair(3, MODELS[model])
    for instance in (base, scaled):
        sol = exhaustive(instance)
        cost = sol.cost
        assert check_solution(sol) == []
        assert check_sandwich(instance, sol, lower=0.5 * cost) == []
        assert check_sandwich(instance, sol, lower=3 * cost)
        assert check_sandwich(instance, sol, lower=0.0, upper=cost / 3)
        off = dataclasses.replace(
            sol,
            breakdown=CostBreakdown(
                energy=sol.energy * 1.001, penalty=sol.penalty
            ),
        )
        assert any(v.invariant == "cost" for v in check_solution(off))
        busted = check_fptas_bound(sol, opt=cost / 3, upper=cost / 2, eps=0.1)
        assert any(v.invariant == "fptas" for v in busted)
    assert exhaustive(scaled).cost / SCALE == pytest.approx(
        exhaustive(base).cost, rel=1e-9
    )


def test_fptas_bound_checker(problem):
    sol = exhaustive(problem)
    opt = sol.cost
    clean = check_fptas_bound(sol, opt=opt, upper=opt + 1.0, eps=0.1)
    assert clean == []
    busted = check_fptas_bound(sol, opt=opt - 1.0, upper=opt - 0.9, eps=0.01)
    assert any(v.invariant == "fptas" for v in busted)


def test_convexity_probe_accepts_truly_convex(problem):
    assert check_convexity_claim(problem.energy_fn) == []


def test_convexity_probe_skips_unbounded_functions():
    class Unbounded(ContinuousEnergyFunction):
        @property
        def max_workload(self):
            return float("inf")

    fn = Unbounded(
        PolynomialPowerModel(beta0=0.0, beta1=1.0, alpha=3.0, s_max=1.0),
        deadline=1.0,
    )
    assert check_convexity_claim(fn) == []


def test_convexity_probe_flags_a_planted_kink(problem):
    # A function with a mid-range discontinuous drop claiming convexity.
    class Jumpy(ContinuousEnergyFunction):
        @property
        def is_convex(self):
            return True

        def energy(self, workload):
            base = super().energy(workload)
            return base + (0.25 if workload < 0.5 * self.max_workload else 0.0)

    fn = Jumpy(
        PolynomialPowerModel(beta0=0.1, beta1=1.52, alpha=3.0, s_max=1.0),
        deadline=1.0,
    )
    violations = check_convexity_claim(fn, rng=np.random.default_rng(0))
    assert any(v.invariant in ("convexity", "monotone") for v in violations)
