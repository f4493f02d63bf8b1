"""Tests for the Pareto-frontier exact algorithm."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.rejection import (
    RejectionProblem,
    branch_and_bound,
    dp_cycles,
    exhaustive,
    pareto_exact,
    pareto_frontier,
)
from repro.core.rejection import pareto
from repro.kernels import kernel_names, use_kernel
from repro.obs import counters as obs_counters
from repro.energy import ContinuousEnergyFunction, CriticalSpeedEnergyFunction
from repro.power import DormantMode, PolynomialPowerModel, xscale_power_model
from repro.tasks import FrameTask, FrameTaskSet, frame_instance

from tests.conftest import integer_frame_task_sets, rejection_problems


class TestExactness:
    @given(problem=rejection_problems(max_tasks=7))
    @settings(max_examples=50)
    def test_matches_exhaustive(self, problem):
        assert pareto_exact(problem).cost == pytest.approx(
            exhaustive(problem).cost, rel=1e-9, abs=1e-12
        )

    @given(tasks=integer_frame_task_sets(max_tasks=7))
    @settings(max_examples=30)
    def test_matches_dp_on_integer_instances(self, tasks):
        model = PolynomialPowerModel(beta1=0.001, alpha=3.0, s_max=40.0)
        problem = RejectionProblem(
            tasks=tasks, energy_fn=ContinuousEnergyFunction(model, deadline=1.0)
        )
        assert pareto_exact(problem).cost == pytest.approx(
            dp_cycles(problem).cost, rel=1e-9, abs=1e-12
        )

    def test_exact_on_nonconvex_energy(self):
        """The headline advantage: exact where B&B's bound machinery
        needs the convex stand-in — cross-check against exhaustive."""
        model = PolynomialPowerModel(beta0=0.1, beta1=1.52, alpha=3.0)
        g = CriticalSpeedEnergyFunction(
            model, deadline=1.0, dormant=DormantMode(t_sw=0.05, e_sw=0.03)
        )
        assert not g.is_convex
        rng = np.random.default_rng(3)
        for _ in range(10):
            tasks = frame_instance(rng, n_tasks=9, load=1.1)
            problem = RejectionProblem(tasks=tasks, energy_fn=g)
            assert pareto_exact(problem).cost == pytest.approx(
                exhaustive(problem).cost, rel=1e-9
            )

    def test_agrees_with_branch_and_bound_beyond_exhaustive(self):
        rng = np.random.default_rng(4)
        tasks = frame_instance(rng, n_tasks=25, load=1.6)
        problem = RejectionProblem(
            tasks=tasks,
            energy_fn=ContinuousEnergyFunction(xscale_power_model(), 1.0),
        )
        assert pareto_exact(problem).cost == pytest.approx(
            branch_and_bound(problem).cost, rel=1e-6
        )


class TestMechanics:
    def test_frontier_size_reported(self):
        tasks = FrameTaskSet(
            [
                FrameTask(name="a", cycles=0.4, penalty=1.0),
                FrameTask(name="b", cycles=0.3, penalty=0.5),
            ]
        )
        problem = RejectionProblem(
            tasks=tasks,
            energy_fn=ContinuousEnergyFunction(xscale_power_model(), 1.0),
        )
        sol = pareto_exact(problem)
        assert sol.meta["frontier"] >= 1
        assert sol.algorithm == "pareto_exact"

    def test_scales_to_moderate_n(self):
        rng = np.random.default_rng(7)
        tasks = frame_instance(rng, n_tasks=50, load=1.4)
        problem = RejectionProblem(
            tasks=tasks,
            energy_fn=ContinuousEnergyFunction(xscale_power_model(), 1.0),
        )
        sol = pareto_exact(problem)  # must terminate quickly
        assert problem.is_feasible(sol.accepted)

    def test_oversized_tasks_never_accepted(self):
        tasks = FrameTaskSet(
            [
                FrameTask(name="huge", cycles=5.0, penalty=100.0),
                FrameTask(name="ok", cycles=0.5, penalty=1.0),
            ]
        )
        problem = RejectionProblem(
            tasks=tasks,
            energy_fn=ContinuousEnergyFunction(xscale_power_model(), 1.0),
        )
        assert 0 not in pareto_exact(problem).accepted


@pytest.mark.parametrize("kernel", kernel_names())
def test_frontier_guard_raises_past_the_peak_only(kernel, monkeypatch):
    # The guard trips exactly when some step's frontier exceeds it: at
    # the peak the solve finishes, one state below it it refuses, with
    # the fptas hint on pareto_exact only and no counters emitted.
    problem = RejectionProblem(
        tasks=frame_instance(np.random.default_rng(7), n_tasks=20, load=1.4),
        energy_fn=ContinuousEnergyFunction(xscale_power_model(), 1.0),
    )
    with use_kernel(kernel), obs_counters.counting() as registry:
        pareto_exact(problem)
        peak = registry.snapshot()["pareto_exact.peak_frontier"]
        monkeypatch.setattr(pareto, "MAX_FRONTIER", peak)
        pareto_exact(problem)
        monkeypatch.setattr(pareto, "MAX_FRONTIER", peak - 1)
        before = registry.snapshot()
        with pytest.raises(ValueError) as exact:
            pareto_exact(problem)
        with pytest.raises(ValueError) as curve:
            pareto_frontier(problem)
        assert registry.snapshot() == before
    assert str(exact.value) == (
        f"Pareto frontier exceeded {peak - 1} states; use fptas() for this instance"
    )
    assert str(curve.value) == f"Pareto frontier exceeded {peak - 1} states"
