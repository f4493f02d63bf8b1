"""Fig R1 — average normalized cost vs number of tasks.

For each task-set size ``n``, random instances (mixed loads around the
overload knee) are solved by every heuristic and by exhaustive search;
the table reports the mean ``cost / cost(optimal)`` per algorithm.

Expected shape (DESIGN.md §3): FPTAS ≈ 1.0 throughout; greedy_marginal ≤
greedy_density ≤ accept_all; random clearly worst; ratios drift up mildly
with n as the subset space grows.
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
    """One instance at a size: every heuristic's ratio to the optimum."""
    rng = trial_rng(seed_tuple)
    load = rng.uniform(0.8, 2.0)
    problem = standard_instance(rng, n_tasks=params["n"], load=load)
    opt = exhaustive(problem)
    return heuristic_ratios(problem, opt.cost, seed_tuple)


def run(
    *,
    trials: int = 40,
    seed: int = 20070416,
    sizes: tuple[int, ...] = (4, 6, 8, 10, 12, 14, 16),
    quick: bool = False,
    jobs: int = 1,
) -> ExperimentTable:
    """Execute the sweep and return the result table."""
    if quick:
        trials, sizes = 6, (4, 6, 8)
    table = ExperimentTable(
        name="fig_r1",
        title="Average cost / optimal vs number of tasks (uniprocessor, "
        "XScale, mixed load 0.8-2.0)",
        columns=["n", *HEURISTICS.keys()],
        notes=[
            f"trials={trials} seed={seed}",
            "expected: fptas~1.0; marginal <= density <= accept_all; "
            "random worst",
        ],
    )
    points = [
        (trial_seeds(seed + n, trials), {"n": n}, f"fig_r1[n={n}]")
        for n in sizes
    ]
    for n, fragments in zip(sizes, map_sweep(_trial, points, jobs=jobs)):
        table.add_row(
            n,
            *(
                summarize([f[name] for f in fragments]).mean
                for name in HEURISTICS
            ),
        )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
