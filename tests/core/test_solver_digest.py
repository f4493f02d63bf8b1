"""A byte-level pin on what the solvers return over a seeded family.

Every single-processor solver and ``ltf_reject`` solves a fixed family of
instances; the test hashes each solution's exact cost bits and its
:func:`repro.io.solution_to_dict` dump, on every available kernel.  A
change that moves any accepted set, cost, speed plan or meta entry by
one ulp changes the digest.  Speed work on the solvers, the problem
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
    fptas,
    greedy_density,
    greedy_marginal,
    lp_rounding,
    ltf_reject,
    pareto_exact,
    reject_random,
)
from repro.energy import ContinuousEnergyFunction, CriticalSpeedEnergyFunction
from repro.io import solution_to_dict
from repro.kernels import kernel_names, use_kernel
from repro.power import PolynomialPowerModel, xscale_power_model
from repro.tasks import FrameTask, FrameTaskSet

#: sha256 over the family's solutions, taken before the task columns and
#: the flat ``energy_many`` loops existed.
DIGEST = "4bfa95bcd5d7a8e8ecf20fea665dc670fb40856787f007e3e28acb4ec21eee05"

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


def _digest() -> str:
    h = hashlib.sha256()
    for solution in _solutions():
        h.update(solution.cost.hex().encode())
        h.update(json.dumps(solution_to_dict(solution), sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("kernel", kernel_names())
def test_solutions_are_byte_identical(kernel):
    with use_kernel(kernel):
        assert _digest() == DIGEST
