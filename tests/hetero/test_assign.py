"""Typed assignment solvers: bounds, feasibility, determinism."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from repro._validation import fits
from repro.hetero.assign import (
    MAX_ENUM_ASSIGNMENTS,
    HeteroRejectionProblem,
    InfConvolution,
    exhaustive_hetero,
    hetero_pooled_lower_bound,
    typed_global_reject,
    typed_ltf_reject,
)
from repro.hetero.mk import MKSpec
from repro.hetero.platform import lp_hp_platform, parse_cores_spec
from repro.multiproc.partition import Partition
from repro.multiproc.pooled import PooledEnergyFunction
from repro.tasks import frame_instance
from repro.tasks.model import FrameTask, FrameTaskSet

from tests.conftest import (
    band_penalties,
    capacity_band_cycles,
    outcome_of,
    reference_outcome,
    reference_typed_pass,
)

TOL = 1e-9
SOLVERS = [typed_ltf_reject, typed_global_reject, exhaustive_hetero]


def small_problem(seed, *, lp=2, hp=1, n=5, load=1.2, mk=None):
    rng = np.random.default_rng(seed)
    platform = lp_hp_platform(lp, hp)
    total_cap = sum(
        cap * core_type.count
        for cap, core_type in zip(platform.capacities(), platform.core_types)
    )
    tasks = frame_instance(
        rng,
        n_tasks=n,
        load=load * total_cap,
        penalty_model="energy",
        penalty_scale=2.0,
    )
    return HeteroRejectionProblem(tasks=tasks, platform=platform, mk=mk)


@pytest.mark.parametrize("seed", range(10))
def test_bound_oracle_heuristic_ordering(seed):
    problem = small_problem(seed)
    bound = hetero_pooled_lower_bound(problem)
    opt = exhaustive_hetero(problem).cost
    assert bound <= opt + TOL
    assert opt <= typed_ltf_reject(problem).cost + TOL
    assert opt <= typed_global_reject(problem).cost + TOL


@pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.__name__)
@pytest.mark.parametrize("seed", range(5))
def test_solutions_respect_per_core_capacities(solver, seed):
    problem = small_problem(seed, load=1.8)
    solution = solver(problem)
    for load, cap in zip(solution.loads(), problem.core_caps):
        assert load <= cap * (1.0 + 1e-12)
    accepted = {
        i for bucket in solution.partition.assignments for i in bucket
    }
    assert accepted | set(solution.rejected) == set(range(problem.n))
    assert not accepted & set(solution.rejected)


@pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.__name__)
def test_oversized_task_never_lands_on_an_lp_core(solver):
    platform = lp_hp_platform(2, 1)
    tasks = FrameTaskSet(
        [
            FrameTask(name="big", cycles=0.75, penalty=5.0),
            FrameTask(name="s1", cycles=0.2, penalty=1.0),
            FrameTask(name="s2", cycles=0.2, penalty=1.0),
        ]
    )
    problem = HeteroRejectionProblem(tasks=tasks, platform=platform)
    solution = solver(problem)
    lp_cores = [
        c for c, t in enumerate(problem.core_types)
        if problem.platform.core_types[t].name == "lp"
    ]
    for c in lp_cores:
        assert 0 not in solution.partition.assignments[c]


@pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.__name__)
def test_all_reject_when_nothing_fits(solver):
    platform = lp_hp_platform(1, 1)
    tasks = FrameTaskSet(
        [FrameTask(name=f"t{i}", cycles=3.0, penalty=1.0) for i in range(3)]
    )
    problem = HeteroRejectionProblem(tasks=tasks, platform=platform)
    solution = solver(problem)
    assert solution.rejected == frozenset(range(3))
    assert solution.breakdown.penalty == pytest.approx(3.0)


@pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.__name__)
def test_solvers_are_deterministic(solver):
    a = solver(small_problem(17))
    b = solver(small_problem(17))
    assert a.partition.assignments == b.partition.assignments
    assert a.partition.unassigned == b.partition.unassigned
    assert a.cost == b.cost


def test_exhaustive_refuses_oversized_enumerations():
    problem = small_problem(0, lp=8, hp=8, n=6)
    assert (problem.m + 1) ** problem.n > MAX_ENUM_ASSIGNMENTS
    with pytest.raises(ValueError, match="enumeration guard"):
        exhaustive_hetero(problem)


def test_mk_spec_rides_along_without_constraining_offline(seed=3):
    spec = MKSpec(m=2, k=4)
    with_mk = small_problem(seed, mk=spec)
    without = small_problem(seed)
    solution = typed_ltf_reject(with_mk)
    assert solution.problem.mk == spec
    # The offline solvers ignore the spec entirely.
    assert solution.cost == typed_ltf_reject(without).cost


def test_split_pool_is_a_pointwise_min_over_splits():
    platform = lp_hp_platform(2, 2)
    lp_fn, hp_fn = platform.energy_functions()
    pool_a = PooledEnergyFunction(lp_fn, 2)
    pool_b = PooledEnergyFunction(hp_fn, 2)
    combined = InfConvolution(pool_a, pool_b)
    assert combined.max_workload == pytest.approx(
        pool_a.max_workload + pool_b.max_workload
    )
    for frac in (0.1, 0.4, 0.7, 0.95):
        workload = frac * combined.max_workload
        best = combined.energy(workload)
        lo = max(0.0, workload - pool_b.max_workload)
        hi = min(workload, pool_a.max_workload)
        for t in range(11):
            x = lo + (hi - lo) * t / 10.0
            candidate = pool_a.energy(x) + pool_b.energy(workload - x)
            assert best <= candidate + 1e-9


def test_flattened_view_matches_the_platform():
    problem = small_problem(1, lp=3, hp=2)
    assert problem.m == 5
    assert problem.core_types == (0, 0, 0, 1, 1)
    assert problem.core_caps == (0.5, 0.5, 0.5, 1.0, 1.0)
    assert problem.fits(0, 0.5) and not problem.fits(0, 0.6)
    assert problem.fits(4, 1.0) and not problem.fits(4, 1.1)


def _product_choice(problem):
    """The per-leaf ``itertools.product`` enumeration, as a reference.

    Returns the first minimum choice tuple in product order (0 rejects,
    ``c`` places on flattened core ``c-1``).
    """
    sizes = [t.cycles for t in problem.tasks]
    fns, caps = problem.core_energy_fns, problem.core_caps
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
                if not fits(loads[c - 1], caps[c - 1]):
                    feasible = False
                    break
        if not feasible:
            continue
        cost = penalty + sum(fn.energy(w) for fn, w in zip(fns, loads))
        if cost < best_cost:
            best_cost, best = cost, choice
    return best


def _partition_of(problem, choice):
    return Partition(
        assignments=tuple(
            tuple(i for i, c in enumerate(choice) if c == j + 1)
            for j in range(problem.m)
        ),
        unassigned=tuple(i for i, c in enumerate(choice) if c == 0),
    )


def _family(kind, seed):
    """A seeded (task set, platform) pair of one family."""
    tasks = list(small_problem(seed, n=int(4 + seed % 3), load=1.3).tasks)
    platform = lp_hp_platform(2, 1)
    rng = np.random.default_rng(seed)
    if kind == "ties":  # duplicated tasks: many choices cost the same
        tasks = tasks[:3] * 2
    elif kind == "capacity_band":  # loads at and a hair above one core's cap
        # A single LP (cap 0.5) or HP (cap 1.0) core, so a band pair must
        # share it to be accepted.
        platform = lp_hp_platform(1, 0) if seed % 2 else lp_hp_platform(0, 1)
        (cap,) = HeteroRejectionProblem(tasks=tasks, platform=platform).core_caps
        tasks = [
            FrameTask(name=f"b{i}", cycles=c, penalty=rho)
            for i, (c, rho) in enumerate(
                zip(capacity_band_cycles(rng, cap), band_penalties(seed))
            )
        ]
    elif kind == "hp_first":  # the dearer type's g is priced first
        platform = parse_cores_spec("hp:1,lp:2")
    elif kind == "one_type":  # identical cores: one curve, one capacity
        platform = parse_cores_spec("hp:2" if seed % 2 else "lp:3")
    elif kind == "all_reject":  # penalties far below any energy
        tasks = [
            FrameTask(name=t.name, cycles=t.cycles, penalty=1e-9 * t.penalty)
            for t in tasks
        ]
    tasks = FrameTaskSet(
        FrameTask(name=f"t{i}", cycles=t.cycles, penalty=t.penalty)
        for i, t in enumerate(tasks)
    )
    return tasks, platform


FAMILIES = ("random", "ties", "capacity_band", "hp_first", "all_reject")


@pytest.mark.parametrize("kind", FAMILIES)
@pytest.mark.parametrize("seed", range(6))
def test_depth_first_oracle_matches_the_product_enumeration(seed, kind):
    tasks, platform = _family(kind, seed)
    problem = HeteroRejectionProblem(tasks=tasks, platform=platform)
    reference = _product_choice(problem)
    solution = exhaustive_hetero(problem)
    assert solution.partition == _partition_of(problem, reference)
    expected = problem.solution(
        _partition_of(problem, reference), algorithm="reference"
    ).cost
    assert solution.cost.hex() == expected.hex()
    if kind == "all_reject":
        assert solution.rejected == frozenset(range(problem.n))


#: Core specs of the wider random twins, two of them one-type.
WIDE_SPECS = ("lp:2,hp:1", "hp:1,lp:2", "lp:1,hp:1", "lp:3", "hp:2")


def _diff_problems():
    """The differential families, each with a wider random twin (n 8-24)."""
    kinds = ("random", "one_type", "capacity_band", "all_reject")
    for seed in range(6):
        for k, kind in enumerate(kinds):
            tasks, platform = _family(kind, seed)
            yield HeteroRejectionProblem(tasks=tasks, platform=platform)
            rng = np.random.default_rng([seed, k, 7])
            platform = parse_cores_spec(WIDE_SPECS[int(rng.integers(5))])
            total_cap = sum(
                cap * core_type.count
                for cap, core_type in zip(platform.capacities(), platform.core_types)
            )
            wide = frame_instance(
                rng,
                n_tasks=int(rng.integers(8, 25)),
                load=float(rng.uniform(0.8, 2.2)) * total_cap,
                penalty_model="energy",
                penalty_scale=2.0,
            )
            yield HeteroRejectionProblem(tasks=wide, platform=platform)


def _min_marginal_seed(problem):
    """``typed_ltf_reject``'s seed: LTF order, min-marginal feasible core."""
    sizes = [t.cycles for t in problem.tasks]
    fns, caps = problem.core_energy_fns, problem.core_caps
    buckets = [[] for _ in range(problem.m)]
    loads = [0.0] * problem.m
    rejected = []
    for i in sorted(range(problem.n), key=lambda i: sizes[i], reverse=True):
        best_core, best_marginal = None, math.inf
        for c in range(problem.m):
            if not fits(loads[c] + sizes[i], caps[c]):
                continue
            marginal = fns[c].energy(loads[c] + sizes[i]) - fns[c].energy(loads[c])
            if marginal < best_marginal - 1e-15:
                best_core, best_marginal = c, marginal
        if best_core is None:
            rejected.append(i)
        else:
            buckets[best_core].append(i)
            loads[best_core] += sizes[i]
    return buckets, rejected


def test_typed_ltf_reject_matches_the_frozen_typed_pass():
    for problem in _diff_problems():
        buckets, rejected = _min_marginal_seed(problem)
        fns = problem.core_energy_fns
        reference_typed_pass(problem.tasks, fns, problem.core_caps, buckets, rejected)
        assert outcome_of(typed_ltf_reject(problem)) == reference_outcome(
            problem.tasks, fns, buckets, rejected
        )


def test_typed_global_reject_outcomes_are_pinned():
    # sha256 of every family instance's (partition, cost.hex()); the
    # pooled routing runs no improvement pass, so its outputs are the referee.
    digest = hashlib.sha256()
    for problem in _diff_problems():
        digest.update(repr(outcome_of(typed_global_reject(problem))).encode())
    assert digest.hexdigest() == (
        "2333a6bc4f158b4f4140b9a335f421ab908bc3c7452b6455f2823341e41a11d2"
    )


@pytest.mark.parametrize("lp", [1, 2])
def test_solution_refuses_a_partition_with_the_wrong_core_count(lp):
    problem = small_problem(0, lp=lp, hp=0, n=3)
    buckets = tuple((i,) for i in range(lp + 1))
    rest = tuple(range(lp + 1, 3))
    with pytest.raises(ValueError, match="cores"):
        problem.solution(
            Partition(assignments=buckets, unassigned=rest), algorithm="x"
        )


def test_typed_ltf_reject_g_calls_are_pinned(monkeypatch):
    # The shared pass keeps each core's g(W_c) current, so a re-admit
    # move prices one g per candidate core, not two.
    problem = small_problem(4, n=10, load=1.6)
    fns = problem.core_energy_fns
    calls = []
    energy = type(fns[0]).energy

    def counting(self, workload):
        calls.append(workload)
        return energy(self, workload)

    monkeypatch.setattr(type(fns[0]), "energy", counting)
    typed_ltf_reject(problem)
    assert len(calls) == 43
