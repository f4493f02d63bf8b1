"""Fig R4 — acceptance ratio and energy share of the cost vs load.

Tracks *what the optimal policy does* rather than how heuristics compare:
the fraction of tasks accepted and the fraction of total cost paid as
energy (vs penalties), for the exhaustive optimum and for
greedy_marginal.

Expected shape: acceptance decays monotonically with load once past the
knee; the energy share of the cost rises while acceptance is cheap, then
falls in deep overload as penalties dominate; greedy_marginal tracks the
optimal curves closely.
"""

from __future__ import annotations

from repro.analysis import ExperimentTable, summarize
from repro.core.rejection import exhaustive, greedy_marginal
from repro.experiments.common import standard_instance, trial_rng
from repro.runner import map_sweep, trial_seeds


def _trial(seed_tuple, params):
    """One instance: acceptance and energy-share for optimum and greedy."""
    rng = trial_rng(seed_tuple)
    problem = standard_instance(
        rng, n_tasks=params["n_tasks"], load=params["load"]
    )
    opt = exhaustive(problem)
    gm = greedy_marginal(problem)
    return {
        "oa": opt.acceptance_ratio,
        "ga": gm.acceptance_ratio,
        "oe": opt.energy / opt.cost if opt.cost > 0 else 1.0,
        "ge": gm.energy / gm.cost if gm.cost > 0 else 1.0,
    }


def run(
    *,
    trials: int = 40,
    seed: int = 20070419,
    n_tasks: int = 12,
    loads: tuple[float, ...] = (0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0),
    quick: bool = False,
    jobs: int = 1,
) -> ExperimentTable:
    """Execute the sweep and return the result table."""
    if quick:
        trials, n_tasks, loads = 6, 8, (0.6, 1.2, 2.5)
    table = ExperimentTable(
        name="fig_r4",
        title=f"Optimal-policy behaviour vs load (n={n_tasks})",
        columns=[
            "load",
            "opt_acceptance",
            "opt_energy_share",
            "gm_acceptance",
            "gm_energy_share",
        ],
        notes=[
            f"trials={trials} seed={seed}",
            "expected: acceptance decays with load; greedy_marginal tracks "
            "the optimum",
        ],
    )
    points = [
        (
            trial_seeds(seed + int(load * 100), trials),
            {"n_tasks": n_tasks, "load": load},
            f"fig_r4[load={load}]",
        )
        for load in loads
    ]
    for load, fragments in zip(loads, map_sweep(_trial, points, jobs=jobs)):
        table.add_row(
            load,
            summarize([f["oa"] for f in fragments]).mean,
            summarize([f["oe"] for f in fragments]).mean,
            summarize([f["ga"] for f in fragments]).mean,
            summarize([f["ge"] for f in fragments]).mean,
        )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
