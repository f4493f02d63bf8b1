"""Tests for multiprocessor rejection."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.core.rejection import (
    MultiprocRejectionProblem,
    exhaustive_multiproc,
    global_greedy_reject,
    ltf_reject,
    pooled_lower_bound,
    rand_reject,
)
from repro._validation import fits
from repro.energy import ContinuousEnergyFunction, CriticalSpeedEnergyFunction
from repro.multiproc.partition import Partition
from repro.power import DormantMode, PolynomialPowerModel, xscale_power_model
from repro.tasks import FrameTask, FrameTaskSet, frame_instance

from tests.conftest import band_penalties, capacity_band_cycles, frame_task_sets


def make_problem(tasks, m=2, s_max=1.0):
    model = PolynomialPowerModel(beta1=1.52, alpha=3.0, s_max=s_max)
    return MultiprocRejectionProblem(
        tasks=tasks,
        energy_fn=ContinuousEnergyFunction(model, deadline=1.0),
        m=m,
    )


HEURISTICS = [ltf_reject, global_greedy_reject, rand_reject]


class TestValidity:
    @given(
        tasks=frame_task_sets(max_tasks=7),
        m=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30)
    def test_heuristics_always_valid(self, tasks, m):
        problem = make_problem(tasks, m=m)
        for solver in HEURISTICS:
            sol = solver(problem)  # problem.solution() validates loads
            sol.partition.validate(problem.n)

    @given(
        tasks=frame_task_sets(min_tasks=1, max_tasks=5),
        m=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=25)
    def test_heuristics_never_beat_exhaustive(self, tasks, m):
        problem = make_problem(tasks, m=m)
        opt = exhaustive_multiproc(problem).cost
        for solver in HEURISTICS:
            assert solver(problem).cost >= opt - max(1e-9, 1e-9 * opt)

    @given(
        tasks=frame_task_sets(min_tasks=1, max_tasks=5),
        m=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=25)
    def test_pooled_bound_bounds_exhaustive(self, tasks, m):
        problem = make_problem(tasks, m=m)
        assert pooled_lower_bound(problem) <= exhaustive_multiproc(
            problem
        ).cost + 1e-9


class TestBehaviour:
    def test_m1_matches_uniprocessor_exhaustive(self):
        from repro.core.rejection import RejectionProblem, exhaustive

        rng = np.random.default_rng(4)
        tasks = frame_instance(rng, n_tasks=6, load=1.3)
        model = PolynomialPowerModel(beta1=1.52, alpha=3.0, s_max=1.0)
        g = ContinuousEnergyFunction(model, deadline=1.0)
        multi = MultiprocRejectionProblem(tasks=tasks, energy_fn=g, m=1)
        uni = RejectionProblem(tasks=tasks, energy_fn=g)
        assert exhaustive_multiproc(multi).cost == pytest.approx(
            exhaustive(uni).cost, rel=1e-9
        )

    def test_more_processors_never_increase_optimal_cost(self):
        rng = np.random.default_rng(5)
        tasks = frame_instance(rng, n_tasks=6, load=1.8)
        prev = None
        for m in (1, 2, 3):
            cost = exhaustive_multiproc(make_problem(tasks, m=m)).cost
            if prev is not None:
                assert cost <= prev + 1e-9
            prev = cost

    def test_ltf_improvement_pass_drops_unprofitable_tasks(self):
        tasks = FrameTaskSet(
            [
                FrameTask(name="good", cycles=0.5, penalty=100.0),
                FrameTask(name="junk", cycles=0.9, penalty=1e-6),
            ]
        )
        problem = make_problem(tasks, m=2)
        sol = ltf_reject(problem)
        assert 1 in sol.rejected
        assert 0 not in sol.rejected

    def test_oversized_tasks_rejected_not_crashing(self):
        tasks = FrameTaskSet(
            [
                FrameTask(name="huge", cycles=3.0, penalty=10.0),
                FrameTask(name="ok", cycles=0.4, penalty=1.0),
            ]
        )
        problem = make_problem(tasks, m=2)
        for solver in HEURISTICS:
            assert 0 in solver(problem).rejected

    def test_enumeration_guard(self):
        tasks = FrameTaskSet(
            FrameTask(name=f"t{i}", cycles=0.1, penalty=1.0) for i in range(20)
        )
        problem = make_problem(tasks, m=4)
        with pytest.raises(ValueError, match="enumeration guard"):
            exhaustive_multiproc(problem)

    def test_acceptance_ratio(self):
        tasks = FrameTaskSet(
            [
                FrameTask(name="a", cycles=0.5, penalty=10.0),
                FrameTask(name="b", cycles=3.0, penalty=0.1),
            ]
        )
        sol = ltf_reject(make_problem(tasks, m=2))
        assert sol.acceptance_ratio == pytest.approx(0.5)

    def test_rand_reject_reproducible(self):
        rng_tasks = np.random.default_rng(6)
        tasks = frame_instance(rng_tasks, n_tasks=8, load=2.5)
        problem = make_problem(tasks, m=2)
        a = rand_reject(problem, np.random.default_rng(1))
        b = rand_reject(problem, np.random.default_rng(1))
        assert a.partition == b.partition


def _product_choice(problem):
    """The per-leaf ``itertools.product`` enumeration, as a reference.

    Returns the first minimum choice tuple in product order (0 rejects,
    ``c`` places on processor ``c-1``).
    """
    sizes = [t.cycles for t in problem.tasks]
    g = problem.energy_fn
    best_cost, best = math.inf, None
    for choice in itertools.product(range(problem.m + 1), repeat=problem.n):
        loads = [0.0] * problem.m
        penalty = 0.0
        feasible = True
        for i, c in enumerate(choice):
            if c == 0:
                penalty += problem.tasks[i].penalty
            else:
                loads[c - 1] += sizes[i]
                if not fits(loads[c - 1], problem.capacity):
                    feasible = False
                    break
        if not feasible:
            continue
        cost = penalty + sum(g.energy(w) for w in loads)
        if cost < best_cost:
            best_cost, best = cost, choice
    return best


def _choice_of(solution):
    """The choice tuple a solution's partition encodes."""
    choice = [0] * solution.problem.n
    for c, bucket in enumerate(solution.partition.assignments):
        for i in bucket:
            choice[i] = c + 1
    return tuple(choice)


def _cost_of(problem, choice):
    """The validated cost of a choice tuple."""
    partition = Partition(
        assignments=tuple(
            tuple(i for i, c in enumerate(choice) if c == j + 1)
            for j in range(problem.m)
        ),
        unassigned=tuple(i for i, c in enumerate(choice) if c == 0),
    )
    return problem.solution(partition, algorithm="reference").cost


def _family(kind, rng, seed):
    """A seeded task set of one family (processor capacity 1.0)."""
    tasks = list(frame_instance(rng, n_tasks=int(rng.integers(3, 7)), load=1.8))
    if kind == "ties":  # duplicated tasks: many choices cost the same
        tasks = tasks[:3] * 2
    elif kind == "capacity_band":  # loads at and a hair above the capacity
        tasks = [
            FrameTask(name=f"b{i}", cycles=c, penalty=rho)
            for i, (c, rho) in enumerate(
                zip(capacity_band_cycles(rng, 1.0), band_penalties(seed))
            )
        ]
    elif kind == "all_reject":  # penalties far below any energy
        tasks = [
            FrameTask(name=t.name, cycles=t.cycles, penalty=1e-9 * t.penalty)
            for t in tasks
        ]
    return FrameTaskSet(
        FrameTask(name=f"t{i}", cycles=t.cycles, penalty=t.penalty)
        for i, t in enumerate(tasks)
    )


FAMILIES = ("random", "ties", "capacity_band", "all_reject")


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", FAMILIES)
@pytest.mark.parametrize("seed", range(6))
def test_depth_first_oracle_matches_the_product_enumeration(seed, kind, m):
    rng = np.random.default_rng([seed, FAMILIES.index(kind), m])
    tasks = _family(kind, rng, seed)
    model = PolynomialPowerModel(beta0=0.2, beta1=1.52, alpha=3.0, s_max=1.0)
    for g in (
        ContinuousEnergyFunction(model, deadline=1.0),
        CriticalSpeedEnergyFunction(
            model, 1.0, dormant=DormantMode(t_sw=0.2, e_sw=0.05)
        ),
    ):
        problem = MultiprocRejectionProblem(tasks=tasks, energy_fn=g, m=m)
        reference = _product_choice(problem)
        solution = exhaustive_multiproc(problem)
        assert _choice_of(solution) == reference
        assert solution.cost.hex() == _cost_of(problem, reference).hex()
        if kind == "all_reject":
            assert solution.rejected == frozenset(range(problem.n))
