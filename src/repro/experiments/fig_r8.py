"""Fig R8 (ablation) — what should the greedy rejection order be?

The greedy family's single design choice is the order in which tasks are
considered for rejection.  Candidates:

* ``rho/c``   — penalty density (the algorithm's choice);
* ``rho``     — cheapest absolute penalty first;
* ``-c``      — largest task first (pure workload shedding);
* ``marginal``— the adaptive marginal-delta order (greedy_marginal).

All share the same improvement rule and feasibility repair; costs are
normalized to the exhaustive optimum.

Expected shape: ``rho/c`` and ``marginal`` dominate; ``rho`` over-rejects
big-penalty-small-task instances; ``-c`` ignores penalties entirely and
pays for it whenever penalties are heterogeneous.
"""

from __future__ import annotations

from repro.analysis import ExperimentTable, normalized_ratio, summarize
from repro.core.rejection import exhaustive, greedy_marginal, greedy_ordered
from repro.experiments.common import standard_instance, trial_rng
from repro.runner import map_sweep, trial_seeds

ORDERINGS = {
    "rho/c": lambda t: t.penalty_density,
    "rho": lambda t: t.penalty,
    "-c": lambda t: -t.cycles,
}


def _trial(seed_tuple, params):
    """One instance: every ordering's ratio to the optimum."""
    rng = trial_rng(seed_tuple)
    problem = standard_instance(
        rng,
        n_tasks=params["n_tasks"],
        load=params["load"],
        penalty_model=params["penalty_model"],
    )
    opt = exhaustive(problem)
    fragment = {
        name: normalized_ratio(
            greedy_ordered(problem, key, name=f"greedy[{name}]").cost, opt.cost
        )
        for name, key in ORDERINGS.items()
    }
    fragment["marginal"] = normalized_ratio(
        greedy_marginal(problem).cost, opt.cost
    )
    return fragment


def run(
    *,
    trials: int = 50,
    seed: int = 20070423,
    n_tasks: int = 12,
    loads: tuple[float, ...] = (0.8, 1.2, 1.8),
    penalty_models: tuple[str, ...] = ("energy", "inverse", "proportional"),
    quick: bool = False,
    jobs: int = 1,
) -> ExperimentTable:
    """Execute the ablation and return the result table."""
    if quick:
        trials, n_tasks, loads, penalty_models = 6, 8, (1.2,), ("energy", "inverse")
    table = ExperimentTable(
        name="fig_r8",
        title=f"Greedy ordering ablation, cost / optimal (n={n_tasks})",
        columns=["penalty_model", "load", *ORDERINGS.keys(), "marginal"],
        notes=[
            f"trials={trials} seed={seed}",
            "expected: rho/c and marginal dominate rho-only and c-only",
        ],
    )
    cells = [(model, load) for model in penalty_models for load in loads]
    points = [
        (
            trial_seeds(seed + int(load * 100), trials),
            {"n_tasks": n_tasks, "load": load, "penalty_model": model},
            f"fig_r8[{model},load={load}]",
        )
        for model, load in cells
    ]
    for (model, load), fragments in zip(
        cells, map_sweep(_trial, points, jobs=jobs)
    ):
        table.add_row(
            model,
            load,
            *(
                summarize([f[name] for f in fragments]).mean
                for name in ORDERINGS
            ),
            summarize([f["marginal"] for f in fragments]).mean,
        )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
