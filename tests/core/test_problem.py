"""Tests for RejectionProblem / RejectionSolution value objects."""

import math
import pickle
from dataclasses import fields

import pytest

from repro.core.rejection import (
    MultiprocRejectionProblem,
    RejectionProblem,
    best_solution,
)
from repro.hetero.assign import HeteroRejectionProblem
from repro.hetero.platform import lp_hp_platform
from repro.energy import ContinuousEnergyFunction
from repro.power import PolynomialPowerModel, xscale_power_model
from repro.tasks import FrameTask, FrameTaskSet


@pytest.fixture
def problem():
    tasks = FrameTaskSet(
        [
            FrameTask(name="a", cycles=0.4, penalty=1.0),
            FrameTask(name="b", cycles=0.5, penalty=2.0),
            FrameTask(name="c", cycles=0.6, penalty=0.5),
        ]
    )
    g = ContinuousEnergyFunction(xscale_power_model(), deadline=1.0)
    return RejectionProblem(tasks=tasks, energy_fn=g)


class TestProblem:
    def test_capacity_and_overload(self, problem):
        assert problem.capacity == pytest.approx(1.0)
        assert problem.overload == pytest.approx(1.5)

    def test_workload(self, problem):
        assert problem.workload([0, 1]) == pytest.approx(0.9)
        assert problem.workload([]) == 0.0

    def test_feasibility(self, problem):
        assert problem.is_feasible([0, 1])
        assert not problem.is_feasible([0, 1, 2])

    def test_cost_splits_energy_and_penalty(self, problem):
        breakdown = problem.cost([0, 1])
        g = problem.energy_fn
        assert breakdown.energy == pytest.approx(g.energy(0.9))
        assert breakdown.penalty == pytest.approx(0.5)
        assert breakdown.total == pytest.approx(breakdown.energy + 0.5)

    def test_cost_of_infeasible_subset_raises(self, problem):
        with pytest.raises(ValueError):
            problem.cost([0, 1, 2])

    def test_cost_index_out_of_range(self, problem):
        with pytest.raises(IndexError):
            problem.cost([5])

    @pytest.mark.parametrize("bad", [[-1], [-1, 1], [3], [0, 3]])
    def test_every_evaluation_refuses_an_out_of_range_index(self, problem, bad):
        # A negative index must not alias the last task (nor count task 1
        # twice in [-1, 1]); all three entry points share one check.
        wrong = next(i for i in set(bad) if not 0 <= i < problem.n)
        message = f"task index {wrong} out of range"
        for evaluate in (problem.workload, problem.is_feasible, problem.cost):
            with pytest.raises(IndexError, match=message):
                evaluate(bad)

    def test_accept_all_none_when_infeasible(self, problem):
        assert problem.accept_all_cost() is None

    def test_reject_all_is_total_penalty(self, problem):
        assert problem.reject_all_cost().total == pytest.approx(3.5)

    def test_never_acceptable_tasks_flagged(self):
        tasks = FrameTaskSet(
            [
                FrameTask(name="huge", cycles=5.0, penalty=1.0),
                FrameTask(name="ok", cycles=0.5, penalty=1.0),
            ]
        )
        g = ContinuousEnergyFunction(xscale_power_model(), deadline=1.0)
        p = RejectionProblem(tasks=tasks, energy_fn=g)
        assert p.never_acceptable == {"huge"}

    def test_empty_task_set_rejected(self):
        g = ContinuousEnergyFunction(xscale_power_model(), deadline=1.0)
        with pytest.raises(ValueError):
            RejectionProblem(tasks=FrameTaskSet([]), energy_fn=g)


def _mixed_tasks():
    return FrameTaskSet(
        [
            FrameTask(name="a", cycles=0.4, penalty=1.0),
            FrameTask(name="huge", cycles=5.0, penalty=3.0),
            FrameTask(name="b", cycles=1, penalty=0),
            FrameTask(name="c", cycles=0.6, penalty=0.5),
        ]
    )


def _problems():
    g = ContinuousEnergyFunction(xscale_power_model(), deadline=1.0)
    tasks = _mixed_tasks()
    return {
        "uniprocessor": RejectionProblem(tasks=tasks, energy_fn=g),
        "identical": MultiprocRejectionProblem(tasks=tasks, energy_fn=g, m=2),
        "typed": HeteroRejectionProblem(tasks=tasks, platform=lp_hp_platform(1, 1)),
    }


class TestColumns:
    """The task columns fixed at construction, and what they must not touch."""

    @pytest.mark.parametrize("kind", sorted(_problems()))
    def test_columns_are_the_task_values(self, kind):
        problem = _problems()[kind]
        assert problem.cycles == tuple(t.cycles for t in problem.tasks)
        assert problem.penalties == tuple(t.penalty for t in problem.tasks)
        assert type(problem.cycles[2]) is int  # values are stored, not cast

    def test_acceptable_indices_are_those_that_fit(self):
        problem = _problems()["uniprocessor"]
        assert problem.acceptable == (0, 2, 3)

    def test_acceptable_and_never_acceptable_partition_the_tasks(self):
        problem = _problems()["uniprocessor"]
        never = {i for i, t in enumerate(problem.tasks) if t.name in problem.never_acceptable}
        assert never == {1}
        assert never.isdisjoint(problem.acceptable)
        assert never | set(problem.acceptable) == set(range(problem.n))

    @pytest.mark.parametrize("kind", sorted(_problems()))
    def test_equality_hash_repr_and_pickle_ignore_the_columns(self, kind):
        problem = _problems()[kind]
        given = {f.name: getattr(problem, f.name) for f in fields(problem) if f.init}
        twin = type(problem)(**given)
        assert problem == twin
        assert hash(problem) == hash(twin) == hash(tuple(given.values()))
        assert repr(problem) == "{}({})".format(
            type(problem).__name__,
            ", ".join(f"{name}={value!r}" for name, value in given.items()),
        )
        # Energy functions compare by identity, so a copy is checked field
        # by field: its tasks, and columns equal to the original's.
        copy = pickle.loads(pickle.dumps(problem))
        assert type(copy) is type(problem) and copy.tasks == problem.tasks
        assert copy.cycles == problem.cycles
        assert copy.penalties == problem.penalties


class TestSolution:
    def test_solution_properties(self, problem):
        sol = problem.solution([0, 2], algorithm="test")
        assert sol.accepted == {0, 2}
        assert sol.rejected == {1}
        assert sol.acceptance_ratio == pytest.approx(2 / 3)
        assert sol.workload == pytest.approx(1.0)
        assert [t.name for t in sol.accepted_tasks] == ["a", "c"]
        assert [t.name for t in sol.rejected_tasks] == ["b"]
        assert sol.cost == pytest.approx(sol.energy + sol.penalty)

    def test_solution_validates_feasibility(self, problem):
        with pytest.raises(ValueError):
            problem.solution([0, 1, 2], algorithm="broken")

    def test_speed_plan_carries_workload(self, problem):
        sol = problem.solution([0], algorithm="test")
        assert sol.speed_plan().total_cycles == pytest.approx(0.4)

    def test_meta_passthrough(self, problem):
        sol = problem.solution([0], algorithm="test", eps=0.5)
        assert sol.meta["eps"] == 0.5


class TestBestSolution:
    def test_picks_minimum(self, problem):
        a = problem.solution([0, 1], algorithm="a")
        b = problem.solution([], algorithm="b")
        assert best_solution(a, b).algorithm == (
            "a" if a.cost <= b.cost else "b"
        )

    def test_ignores_none(self, problem):
        a = problem.solution([0], algorithm="a")
        assert best_solution(None, a, None) is a

    def test_all_none_raises(self):
        with pytest.raises(ValueError):
            best_solution(None, None)
