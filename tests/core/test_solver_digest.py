"""A byte-level pin on what the solvers return over seeded families.

Every single-processor solver and ``ltf_reject`` solves a fixed family of
instances, and every partitioned solver (identical and typed cores) a
second one; each test hashes the solutions' exact cost bits and their
:func:`repro.io.solution_to_dict` dumps, on every available kernel.  A
change that moves any accepted set, assignment, cost, speed plan or meta
entry by one ulp changes a digest.  Speed work on the solvers, the problem
objects and ``g`` must keep it byte-identical; a deliberate change of
answers re-pins it and says why.
"""

from __future__ import annotations

import hashlib
import json
from random import Random

import pytest

from repro.core.rejection import (
    MultiprocRejectionProblem,
    RejectionProblem,
    accept_all_repair,
    branch_and_bound,
    dp_cycles,
    dp_penalty,
    exhaustive,
    exhaustive_multiproc,
    fptas,
    global_greedy_reject,
    greedy_density,
    greedy_marginal,
    lp_rounding,
    ltf_reject,
    pareto_exact,
    rand_reject,
    reject_random,
)
from repro.energy import ContinuousEnergyFunction, CriticalSpeedEnergyFunction
from repro.hetero.assign import (
    HeteroRejectionProblem,
    exhaustive_hetero,
    typed_global_reject,
    typed_ltf_reject,
)
from repro.hetero.platform import parse_cores_spec
from repro.io import solution_to_dict
from repro.kernels import kernel_names, use_kernel
from repro.power import PolynomialPowerModel, xscale_power_model
from repro.tasks import FrameTask, FrameTaskSet

#: sha256 over the family's solutions, taken before the task columns and
#: the flat ``energy_many`` loops existed.
DIGEST = "4bfa95bcd5d7a8e8ecf20fea665dc670fb40856787f007e3e28acb4ec21eee05"

#: sha256 over the partitioned family's solutions, taken after identical
#: and typed cores came to share one improvement pass.
PARTITIONED_DIGEST = "139d1b54094dac6500993e236b3c96ff776a04fd3c69110b2a31ba3e35a371cd"

#: Penalty grid of the family (``dp_penalty``'s quantum).
_QUANTUM = 0.05

_SOLVERS = (
    (exhaustive, {}),
    (branch_and_bound, {}),
    (pareto_exact, {}),
    (fptas, {"eps": 0.1}),
    (dp_penalty, {"quantum": _QUANTUM}),
    (greedy_marginal, {}),
    (greedy_density, {}),
    (lp_rounding, {}),
    (accept_all_repair, {}),
    (reject_random, {}),
)


def _energy_fns():
    """The flat loop's branches: no floor, floor with ``s_min``, leakage."""
    return (
        ContinuousEnergyFunction(xscale_power_model(), 1.0),
        ContinuousEnergyFunction(
            PolynomialPowerModel(beta0=0.05, beta1=1.0, alpha=2.5, s_min=0.3),
            2.0,
            include_static_floor=True,
        ),
        CriticalSpeedEnergyFunction(
            PolynomialPowerModel(beta0=0.2, beta1=1.52, alpha=3.0), 1.5
        ),
    )


def _tasks(rng: Random, n: int, capacity: float, load: float) -> FrameTaskSet:
    mean = load * capacity / n
    return FrameTaskSet(
        FrameTask(
            name=f"t{i}",
            cycles=mean * rng.uniform(0.4, 1.6),
            penalty=_QUANTUM * round(rng.uniform(0.2, 3.0) / _QUANTUM),
        )
        for i in range(n)
    )


def _solutions():
    rng = Random("solver-digest")
    for fn in _energy_fns():
        for n in (5, 9, 12):
            for load in (0.7, 1.4):
                problem = RejectionProblem(
                    tasks=_tasks(rng, n, fn.max_workload, load), energy_fn=fn
                )
                for solver, kwargs in _SOLVERS:
                    yield solver(problem, **kwargs)
                yield dp_cycles(
                    problem, quantum=problem.capacity / 64, round_cycles=True
                )
        for m in (2, 3):
            tasks = _tasks(rng, 14, m * fn.max_workload, 1.3)
            yield ltf_reject(MultiprocRejectionProblem(tasks=tasks, energy_fn=fn, m=m))


def _grid_tasks(
    rng: Random, n: int, capacity: float, load: float, penalty_step: float
) -> FrameTaskSet:
    """Cycles and penalties on coarse grids, so move prices tie.

    Equal tasks on equally loaded cores make the improvement pass pick
    between equal moves, which pins its tie-breaks as well.
    """
    step = 2 * load * capacity / (5 * n)
    return FrameTaskSet(
        FrameTask(
            name=f"t{i}",
            cycles=step * rng.randint(1, 4),
            penalty=penalty_step * rng.randint(1, round(2 / penalty_step)),
        )
        for i in range(n)
    )


def _partitioned_solutions():
    """Every partitioned solver; exact-solver sizes, so all seven run."""
    rng = Random("partitioned-digest")
    for penalty_step in (0.25, 0.5):
        for fn in _energy_fns():
            for m, n in ((2, 7), (3, 6)):
                for load in (0.8, 1.4):
                    tasks = _grid_tasks(
                        rng, n, m * fn.max_workload, load, penalty_step
                    )
                    problem = MultiprocRejectionProblem(tasks=tasks, energy_fn=fn, m=m)
                    yield ltf_reject(problem)
                    yield rand_reject(problem)
                    yield global_greedy_reject(problem)
                    yield exhaustive_multiproc(problem)
        for spec in ("lp:2,hp:1", "lp:1,hp:2", "lp:3"):
            platform = parse_cores_spec(spec)
            room = sum(
                cap * t.count
                for cap, t in zip(platform.capacities(), platform.core_types)
            )
            for load in (0.8, 1.4):
                tasks = _grid_tasks(rng, 6, room, load, penalty_step)
                problem = HeteroRejectionProblem(tasks=tasks, platform=platform)
                yield typed_ltf_reject(problem)
                yield typed_global_reject(problem)
                yield exhaustive_hetero(problem)


def _digest(solutions) -> str:
    h = hashlib.sha256()
    for solution in solutions:
        h.update(solution.cost.hex().encode())
        h.update(json.dumps(solution_to_dict(solution), sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("kernel", kernel_names())
def test_solutions_are_byte_identical(kernel):
    with use_kernel(kernel):
        assert _digest(_solutions()) == DIGEST


@pytest.mark.parametrize("kernel", kernel_names())
def test_partitioned_solutions_are_byte_identical(kernel):
    with use_kernel(kernel):
        assert _digest(_partitioned_solutions()) == PARTITIONED_DIGEST
