"""Fig R7 — multiprocessor rejection, normalized to the pooled lower bound.

Mirrors the companion text's multiprocessor methodology (its Figures 4-5
plot LTF vs RAND against exhaustive optima / relaxed bounds over the
tasks-per-core ratio).  Here: M identical XScale cores, per-core speed
cap 1, task count swept as a multiple of M, system load fixed in the
overload regime so rejection is mandatory; algorithms LTF-R, RAND-R and
global-greedy are normalized to the Jensen-pooled fractional lower bound
("relaxed relative ratio").

Expected shape: LTF-R and global-greedy sit well below RAND-R at every
point and approach the bound as tasks/core grows (finer-grained load is
easier to balance — same trend as the companion's Fig 4(b)).
"""

from __future__ import annotations

import math

from repro.analysis import ExperimentTable, normalized_ratio, summarize
from repro.core.rejection import (
    MultiprocRejectionProblem,
    global_greedy_reject,
    ltf_reject,
    pooled_lower_bound,
    rand_reject,
)
from repro.experiments.common import derived_rng, trial_rng, xscale_energy
from repro.runner import map_sweep, trial_seeds
from repro.tasks import frame_instance


def _trial(seed_tuple, params):
    """One multiprocessor instance: each policy's ratio to the bound."""
    rng = trial_rng(seed_tuple)
    tasks = frame_instance(
        rng,
        n_tasks=params["n"],
        load=params["load_per_core"] * params["m"],
        penalty_model="energy",
        penalty_scale=2.0,
    )
    problem = MultiprocRejectionProblem(
        tasks=tasks, energy_fn=xscale_energy(), m=params["m"]
    )
    bound = pooled_lower_bound(problem)
    return {
        "ltf": normalized_ratio(ltf_reject(problem).cost, bound),
        "gg": normalized_ratio(global_greedy_reject(problem).cost, bound),
        "rand": normalized_ratio(
            rand_reject(problem, derived_rng(seed_tuple, "rand_reject")).cost,
            bound,
        ),
    }


def run(
    *,
    trials: int = 30,
    seed: int = 20070422,
    processors: tuple[int, ...] = (2, 4, 8),
    tasks_per_core: tuple[float, ...] = (1.5, 2.0, 3.0, 4.0),
    load_per_core: float = 1.4,
    quick: bool = False,
    jobs: int = 1,
) -> ExperimentTable:
    """Execute the sweep and return the result table."""
    if quick:
        trials, processors, tasks_per_core = 5, (2,), (1.5, 3.0)
    table = ExperimentTable(
        name="fig_r7",
        title="Multiprocessor relaxed cost ratios vs tasks/core "
        f"(load/core={load_per_core})",
        columns=["m", "tasks_per_core", "ltf_reject", "global_greedy", "rand_reject"],
        notes=[
            f"trials={trials} seed={seed}",
            "normalized to the pooled fractional lower bound",
            "expected: ltf/global-greedy beat rand on average, decisively "
            "at high tasks/core; ratios shrink as tasks/core grows",
        ],
    )
    cells = [(m, ratio) for m in processors for ratio in tasks_per_core]
    points = [
        (
            trial_seeds(seed + 97 * m + int(ratio * 10), trials),
            {
                "m": m,
                "n": max(m, math.floor(ratio * m)),
                "load_per_core": load_per_core,
            },
            f"fig_r7[m={m},tpc={ratio}]",
        )
        for m, ratio in cells
    ]
    for (m, ratio), fragments in zip(cells, map_sweep(_trial, points, jobs=jobs)):
        table.add_row(
            m,
            ratio,
            summarize([f["ltf"] for f in fragments]).mean,
            summarize([f["gg"] for f in fragments]).mean,
            summarize([f["rand"] for f in fragments]).mean,
        )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
