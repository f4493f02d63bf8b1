"""Seeded inputs for the offline workloads.

Every input is drawn from :class:`random.Random` keyed on the
``--seed`` argument, so one seed always yields the same instances and
experiment order.  The served workloads take their request bodies from
the program's own load generator instead (see :mod:`served`).
"""

from __future__ import annotations

from random import Random

from repro.core.rejection import MultiprocRejectionProblem, RejectionProblem
from repro.energy import ContinuousEnergyFunction
from repro.power import xscale_power_model
from repro.tasks.model import FrameTask, FrameTaskSet

#: Penalties are whole multiples of this quantum so ``dp_penalty``
#: applies without rounding (the same grid ``repro bench`` uses).
PENALTY_QUANTUM = 1e-3

#: DP table width: ``dp_cycles`` quantises the capacity onto this many
#: grid units, so its cost grows with n, not with the cycle magnitudes.
DP_WIDTH = 2_000

#: Offline solve mix: (solver, n_min, n_max, processors).  Sizes put
#: each solve in the 1-20 ms band on one core, and the mix covers every
#: kernel op family: DP rows, Pareto frontiers, density sweeps,
#: branch-and-bound bounds and the partitioned multiprocessor path.
SOLVE_MIX = (
    ("greedy_density", 200, 1000, 1),
    ("greedy_marginal", 20, 120, 1),
    ("dp_cycles", 20, 200, 1),
    ("dp_penalty", 10, 50, 1),
    ("fptas", 10, 80, 1),
    ("pareto_exact", 10, 60, 1),
    ("branch_and_bound", 8, 14, 1),
    ("ltf_reject", 20, 200, 4),
)


def energy_fn() -> ContinuousEnergyFunction:
    """The XScale continuous-speed energy curve (deadline 1 s)."""
    return ContinuousEnergyFunction(xscale_power_model(), deadline=1.0)


def make_problem(rng: Random, n: int, processors: int, load: float, fn):
    """A REJECT-MIN instance: *n* tasks at *load* x the platform capacity.

    Penalties sit near each task's marginal energy at full load, so
    instances mix forced rejections with rejections that merely save
    energy.
    """
    capacity = fn.max_workload * processors
    mean_cycles = load * capacity / n
    tasks = []
    for i in range(n):
        cycles = mean_cycles * rng.uniform(0.4, 1.6)
        penalty = (
            round(4.6 * cycles * rng.uniform(0.3, 2.2) / PENALTY_QUANTUM)
            * PENALTY_QUANTUM
        )
        tasks.append(FrameTask(name=f"t{i}", cycles=cycles, penalty=penalty))
    task_set = FrameTaskSet(tasks)
    if processors == 1:
        return RejectionProblem(tasks=task_set, energy_fn=fn)
    return MultiprocRejectionProblem(tasks=task_set, energy_fn=fn, m=processors)


def solver_kwargs(algorithm: str, problem) -> dict:
    """Keyword arguments the offline mix passes to *algorithm*."""
    if algorithm == "dp_cycles":
        return {"quantum": problem.capacity / DP_WIDTH, "round_cycles": True}
    if algorithm == "dp_penalty":
        return {"quantum": PENALTY_QUANTUM}
    if algorithm == "fptas":
        return {"eps": 0.1}
    return {}


def _shapes(count: int, rng: Random) -> list[tuple[str, int, int, float]]:
    """*count* ``(solver, n, processors, load)`` shapes in a seeded order.

    Each solver of :data:`SOLVE_MIX` gets an equal share, with sizes
    spread evenly over its range and loads evenly over 0.8-1.6x
    capacity (paired at random), so every seed offers the same amount
    of work and the seed only changes task values, pairings and order.
    """
    per_solver = -(-count // len(SOLVE_MIX))
    steps = max(per_solver - 1, 1)
    shapes = []
    for algorithm, n_min, n_max, processors in SOLVE_MIX:
        loads = [0.8 + 0.8 * k / steps for k in range(per_solver)]
        rng.shuffle(loads)
        for k, load in enumerate(loads):
            n = n_min + (k * (n_max - n_min)) // steps
            shapes.append((algorithm, n, processors, load))
    rng.shuffle(shapes)
    return shapes[:count]


def solve_ops(seed: int, count: int) -> list[tuple[str, object, dict]]:
    """*count* offline solves ``(algorithm, problem, kwargs)``."""
    rng = Random(f"perfbench:solve:{seed}")
    fn = energy_fn()
    ops = []
    for algorithm, n, processors, load in _shapes(count, rng):
        problem = make_problem(rng, n, processors, load, fn)
        ops.append((algorithm, problem, solver_kwargs(algorithm, problem)))
    return ops


def experiment_order(seed: int, names: list[str], count: int) -> list[str]:
    """*count* experiment runs: every experiment once per round, each
    round in a seeded order."""
    rng = Random(f"perfbench:runner:{seed}")
    runs: list[str] = []
    while len(runs) < count:
        batch = sorted(names)
        rng.shuffle(batch)
        runs.extend(batch)
    return runs[:count]
