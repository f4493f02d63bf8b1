"""Fig R3 — average normalized cost vs penalty scale.

The penalty scale multiplies every rejection penalty relative to the
energy scale.  Tiny penalties make rejection nearly free (the optimum
rejects aggressively); huge penalties force near-full acceptance.

Expected shape: at large scales all algorithms converge to accept-all
behaviour and ratios approach 1; at small-to-middling scales the
energy-blind baselines (accept_all, random) pay the most, and the
density/marginal greedy gap to optimal is widest where the two cost terms
are balanced (scale ≈ 1).
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
    """One instance at a penalty scale: heuristic ratios to the optimum."""
    rng = trial_rng(seed_tuple)
    problem = standard_instance(
        rng,
        n_tasks=params["n_tasks"],
        load=params["load"],
        penalty_scale=params["scale"],
    )
    opt = exhaustive(problem)
    return heuristic_ratios(problem, opt.cost, seed_tuple)


def run(
    *,
    trials: int = 40,
    seed: int = 20070418,
    n_tasks: int = 12,
    load: float = 1.5,
    scales: tuple[float, ...] = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0),
    quick: bool = False,
    jobs: int = 1,
) -> ExperimentTable:
    """Execute the sweep and return the result table."""
    if quick:
        trials, n_tasks, scales = 6, 8, (0.25, 1.0, 4.0)
    table = ExperimentTable(
        name="fig_r3",
        title=f"Average cost / optimal vs penalty scale (n={n_tasks}, "
        f"load={load})",
        columns=["penalty_scale", *HEURISTICS.keys()],
        notes=[
            f"trials={trials} seed={seed}",
            "expected: ratios -> 1 at large scales; energy-blind baselines "
            "worst at small scales",
        ],
    )
    points = [
        (
            trial_seeds(seed + int(scale * 1000), trials),
            {"n_tasks": n_tasks, "load": load, "scale": scale},
            f"fig_r3[scale={scale}]",
        )
        for scale in scales
    ]
    for scale, fragments in zip(scales, map_sweep(_trial, points, jobs=jobs)):
        table.add_row(
            scale,
            *(
                summarize([f[name] for f in fragments]).mean
                for name in HEURISTICS
            ),
        )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
