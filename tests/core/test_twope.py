"""Tests for the two-PE (DVS + non-DVS) rejection extension."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.core.rejection import (
    TwoPeProblem,
    TwoPeTask,
    exhaustive_twope,
    greedy_twope,
    tasks_from_frame,
)
from repro._validation import fits
from repro.core.rejection.twope import DVS, PE, REJECT
from repro.energy import (
    ContinuousEnergyFunction,
    CriticalSpeedEnergyFunction,
    DiscreteEnergyFunction,
)
from repro.obs import counters as obs_counters
from repro.power import DormantMode, PolynomialPowerModel, SpeedLevels
from repro.tasks import FrameTask, FrameTaskSet

from tests.conftest import band_penalties, capacity_band_cycles


def energy_fn(s_max=1.0, deadline=1.0):
    model = PolynomialPowerModel(beta1=1.52, alpha=3.0, s_max=s_max)
    return ContinuousEnergyFunction(model, deadline=deadline)


def make_problem(entries, pe_power=0.3, workload_dependent=True):
    tasks = tuple(
        TwoPeTask(name=f"t{i}", cycles=c, pe_utilization=u, penalty=rho)
        for i, (c, u, rho) in enumerate(entries)
    )
    return TwoPeProblem(
        tasks=tasks,
        energy_fn=energy_fn(),
        pe_power=pe_power,
        workload_dependent=workload_dependent,
    )


@st.composite
def twope_problems(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    entries = [
        (
            draw(st.floats(min_value=0.05, max_value=0.8)),
            draw(st.floats(min_value=0.05, max_value=0.9)),
            draw(st.floats(min_value=0.0, max_value=2.0)),
        )
        for _ in range(n)
    ]
    pe_power = draw(st.sampled_from([0.05, 0.3, 1.0]))
    dependent = draw(st.booleans())
    return make_problem(entries, pe_power=pe_power, workload_dependent=dependent)


class TestCostModel:
    def test_placement_cost_components(self):
        p = make_problem([(0.4, 0.5, 1.0), (0.3, 0.4, 2.0)], pe_power=0.5)
        breakdown = p.cost_of([DVS, PE])
        g = p.energy_fn
        assert breakdown.energy == pytest.approx(
            g.energy(0.4) + 0.5 * 1.0 * 0.4
        )
        assert breakdown.penalty == 0.0

    def test_workload_independent_pe_charges_flat(self):
        p = make_problem(
            [(0.4, 0.5, 1.0), (0.3, 0.2, 2.0)],
            pe_power=0.5,
            workload_dependent=False,
        )
        both = p.cost_of([PE, PE]).energy
        one = p.cost_of([PE, REJECT]).energy
        assert both == pytest.approx(one)  # flat fee, not per-task
        none = p.cost_of([REJECT, REJECT]).energy
        assert none == 0.0

    def test_pe_capacity_enforced(self):
        p = make_problem([(0.4, 0.7, 1.0), (0.3, 0.7, 2.0)])
        with pytest.raises(ValueError, match="100%"):
            p.cost_of([PE, PE])

    def test_dvs_capacity_enforced(self):
        p = make_problem([(0.8, 0.2, 1.0), (0.8, 0.2, 2.0)])
        with pytest.raises(ValueError, match="exceeds"):
            p.cost_of([DVS, DVS])

    def test_invalid_code_rejected(self):
        p = make_problem([(0.4, 0.5, 1.0)])
        with pytest.raises(ValueError, match="placement code"):
            p.cost_of([7])


class TestAlgorithms:
    @given(problem=twope_problems())
    @settings(max_examples=40)
    def test_greedy_never_beats_exhaustive_and_is_valid(self, problem):
        opt = exhaustive_twope(problem)
        greedy = greedy_twope(problem)
        assert greedy.cost >= opt.cost - max(1e-9, 1e-9 * opt.cost)
        # Validity is enforced by cost_of inside _solution.
        assert set(greedy.on_dvs) | set(greedy.on_pe) | set(greedy.rejected) == set(
            range(problem.n)
        )

    def test_cheap_pe_attracts_pe_friendly_tasks(self):
        # Task 0: tiny PE utilisation, big DVS cycles -> belongs on PE.
        p = make_problem(
            [(0.8, 0.05, 5.0), (0.2, 0.9, 5.0)], pe_power=0.1
        )
        opt = exhaustive_twope(p)
        assert 0 in opt.on_pe

    def test_expensive_pe_falls_back_to_dvs(self):
        p = make_problem([(0.3, 0.5, 5.0)], pe_power=100.0)
        opt = exhaustive_twope(p)
        assert opt.on_dvs == (0,)

    def test_rejection_chosen_when_everything_is_costly(self):
        p = make_problem([(0.9, 0.95, 1e-6)], pe_power=100.0)
        opt = exhaustive_twope(p)
        assert opt.rejected == (0,)

    def test_oversized_pe_task_never_on_pe(self):
        p = make_problem([(0.3, 1.5, 5.0)])
        opt = exhaustive_twope(p)
        assert 0 not in opt.on_pe

    def test_enumeration_guard(self):
        entries = [(0.01, 0.01, 1.0)] * 15
        with pytest.raises(ValueError, match="enumeration guard"):
            exhaustive_twope(make_problem(entries))


class TestFrameBridge:
    def test_tasks_from_frame(self):
        frame = FrameTaskSet(
            [
                FrameTask(name="a", cycles=0.4, penalty=1.0),
                FrameTask(name="b", cycles=0.2, penalty=2.0),
            ]
        )
        tasks = tasks_from_frame(frame, [0.3, 0.6])
        assert tasks[0].pe_utilization == 0.3
        assert tasks[1].penalty == 2.0

    def test_length_mismatch(self):
        frame = FrameTaskSet([FrameTask(name="a", cycles=0.4, penalty=1.0)])
        with pytest.raises(ValueError, match="utilisations"):
            tasks_from_frame(frame, [0.1, 0.2])


def _product_twope(problem):
    """The per-leaf ``itertools.product`` enumeration, as a reference.

    Returns the first minimum placement in product order.
    """
    g = problem.energy_fn
    cap = problem.dvs_capacity
    best_cost, best = math.inf, None
    for placement in itertools.product((REJECT, DVS, PE), repeat=problem.n):
        dvs = pe = penalty = 0.0
        any_pe = False
        ok = True
        for task, where in zip(problem.tasks, placement):
            if where == DVS:
                dvs += task.cycles
                if not fits(dvs, cap):
                    ok = False
                    break
            elif where == PE:
                pe += task.pe_utilization
                any_pe = True
                if pe > 1.0 + 1e-12:
                    ok = False
                    break
            else:
                penalty += task.penalty
        if not ok:
            continue
        cost = g.energy(min(dvs, cap)) + problem.pe_energy(pe, any_pe) + penalty
        if cost < best_cost:
            best_cost, best = cost, placement
    return best


def _energy_fns():
    """Convex and non-convex DVS curves, all with capacity 1.0."""
    model = PolynomialPowerModel(beta0=0.2, beta1=1.52, alpha=3.0, s_max=1.0)
    return [
        energy_fn(),
        CriticalSpeedEnergyFunction(
            model, 1.0, dormant=DormantMode(t_sw=0.2, e_sw=0.05)
        ),
        DiscreteEnergyFunction(
            model, SpeedLevels([0.3, 0.6, 1.0]), 1.0, dormant=DormantMode()
        ),
    ]


def _family(kind, rng, seed):
    """(cycles, utilisation, penalty) entries of one seeded family."""
    n = int(rng.integers(3, 8))
    entries = [
        (
            float(rng.uniform(0.05, 0.6)),
            float(rng.uniform(0.05, 0.9)),
            float(rng.uniform(0.0, 2.0)),
        )
        for _ in range(n)
    ]
    if kind == "ties":  # duplicated tasks: many placements cost the same
        entries = entries[:3] * 2
    elif kind == "capacity_band":  # DVS loads at and a hair above s_max * D = 1
        # PE-infeasible tasks: DVS or reject, one band pair worth keeping.
        entries = [
            (c, 1.5, rho)
            for c, rho in zip(capacity_band_cycles(rng, 1.0), band_penalties(seed))
        ]
    elif kind == "pe_edge":  # PE utilisation of exactly 1 + 1e-12, or 1 ulp over
        # DVS fits one task, so no task is rejected iff tasks 0 and 1
        # share the PE: they must at the edge and must not above it.
        edge = math.nextafter(1.0 + 1e-12, 2.0) if seed % 2 else 1.0 + 1e-12
        rest = edge - 0.5
        assert 0.5 + rest == edge
        entries = [(0.9, 0.5, 5.0), (0.9, rest, 5.0), (0.9, 0.6, 5.0)]
    elif kind == "all_reject":  # penalties far below any energy
        entries = [(c, u, 1e-9 * rho) for c, u, rho in entries]
    return entries


FAMILIES = ("random", "ties", "capacity_band", "pe_edge", "all_reject")


class TestDepthFirstOracle:
    @pytest.mark.parametrize("dependent", [True, False])
    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_product_enumeration_bit_for_bit(
        self, seed, kind, dependent
    ):
        rng = np.random.default_rng([seed, FAMILIES.index(kind)])
        entries = _family(kind, rng, seed)
        pe_power = 50.0 if kind == "all_reject" else float(rng.uniform(0.05, 1.0))
        tasks = tuple(
            TwoPeTask(name=f"t{i}", cycles=c, pe_utilization=u, penalty=rho)
            for i, (c, u, rho) in enumerate(entries)
        )
        for g in _energy_fns():
            problem = TwoPeProblem(
                tasks=tasks,
                energy_fn=g,
                pe_power=pe_power,
                workload_dependent=dependent,
            )
            reference = _product_twope(problem)
            with obs_counters.counting() as registry:
                solution = exhaustive_twope(problem)
            assert solution.placement == reference
            assert solution.cost.hex() == problem.cost_of(reference).total.hex()
            counts = registry.snapshot()
            assert counts["exhaustive_twope.placements"] == 3**problem.n
            assert counts["exhaustive_twope.energy_evals"] <= 2**problem.n
            if kind == "all_reject":
                assert solution.rejected == tuple(range(problem.n))

    def test_energy_evals_counts_the_distinct_dvs_loads(self):
        calls = []

        class Counted(ContinuousEnergyFunction):
            def _energy(self, workload):
                calls.append(workload)
                return super()._energy(workload)

        model = PolynomialPowerModel(beta1=1.52, alpha=3.0, s_max=1.0)
        # Every DVS subset fits (total 0.31 cycles) and has its own sum.
        entries = [(0.01, 0.1, 1.0), (0.02, 0.1, 1.0), (0.04, 0.1, 1.0),
                   (0.08, 0.1, 1.0), (0.16, 0.1, 1.0)]
        problem = TwoPeProblem(
            tasks=tuple(
                TwoPeTask(name=f"t{i}", cycles=c, pe_utilization=u, penalty=rho)
                for i, (c, u, rho) in enumerate(entries)
            ),
            energy_fn=Counted(model, deadline=1.0),
            pe_power=0.3,
        )
        with obs_counters.counting() as registry:
            exhaustive_twope(problem)
        assert registry.snapshot() == {
            "exhaustive_twope.calls": 1,
            "exhaustive_twope.placements": 243,
            "exhaustive_twope.energy_evals": 32,
        }
        # One g call per distinct load in the walk, plus one when
        # cost_of prices the returned placement.
        assert len(calls) == 32 + 1
        assert len(set(calls[:-1])) == 32
