"""Fig R2 — average normalized cost vs system load η = Σc/(s_max·D).

Fixed task count, load swept through the feasibility knee: below η = 1
rejection is optional (purely economic), above it rejection is mandatory.

Expected shape: the heuristic/optimal gap peaks around η ≈ 1 (the subset
choice is most constrained and most consequential there) and shrinks in
deep overload, where most tasks must go and all sensible policies
converge; accept_all degrades most visibly past the knee.
"""

from __future__ import annotations

from repro.analysis import ExperimentTable, summarize
from repro.core.rejection import exhaustive
from repro.experiments.common import (
    HEURISTICS,
    heuristic_ratios,
    standard_instance,
    trial_rng,
)
from repro.runner import map_sweep, trial_seeds


def _trial(seed_tuple, params):
    """One instance at a load point: heuristic ratios to the optimum."""
    rng = trial_rng(seed_tuple)
    problem = standard_instance(
        rng, n_tasks=params["n_tasks"], load=params["load"]
    )
    opt = exhaustive(problem)
    return heuristic_ratios(problem, opt.cost, seed_tuple)


def run(
    *,
    trials: int = 40,
    seed: int = 20070417,
    n_tasks: int = 12,
    loads: tuple[float, ...] = (0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0),
    quick: bool = False,
    jobs: int = 1,
) -> ExperimentTable:
    """Execute the sweep and return the result table."""
    if quick:
        trials, n_tasks, loads = 6, 8, (0.6, 1.0, 2.0)
    table = ExperimentTable(
        name="fig_r2",
        title=f"Average cost / optimal vs load (n={n_tasks})",
        columns=["load", *HEURISTICS.keys()],
        notes=[
            f"trials={trials} seed={seed}",
            "expected: heuristic gap peaks near load~1, shrinks in deep "
            "overload",
        ],
    )
    points = [
        (
            trial_seeds(seed + int(load * 100), trials),
            {"n_tasks": n_tasks, "load": load},
            f"fig_r2[load={load}]",
        )
        for load in loads
    ]
    for load, fragments in zip(loads, map_sweep(_trial, points, jobs=jobs)):
        table.add_row(
            load,
            *(
                summarize([f[name] for f in fragments]).mean
                for name in HEURISTICS
            ),
        )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
