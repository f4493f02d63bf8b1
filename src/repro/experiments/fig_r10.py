"""Fig R10 (extension) — rejection on a DVS + non-DVS two-PE system.

Extends the companion text's heterogeneous experiments (its Figures 7-8:
an ideal DVS PE plus a workload-dependent FPGA, proportional vs inverse
``ui`` models) with the rejection option: each task goes to the DVS
processor, to the PE, or is dropped.  greedy_twope is normalized to the
3ⁿ exhaustive optimum for both PE-utilisation models and a sweep of PE
power.

Expected shape: the greedy stays within a few percent of optimal; the
*inverse* model (big DVS tasks are cheap on the PE) benefits most from
the PE, so its costs fall faster with decreasing PE power; under an
expensive PE the problem degenerates to pure DVS-vs-reject and both
models converge.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import ExperimentTable, normalized_ratio, summarize
from repro.core.rejection import (
    TwoPeProblem,
    exhaustive_twope,
    greedy_twope,
    tasks_from_frame,
)
from repro.experiments.common import standard_instance, trial_rng
from repro.runner import map_sweep, trial_seeds


def _pe_utilizations(rng, tasks, model: str) -> list[float]:
    """Per-task PE utilisation under the proportional / inverse models."""
    cycles = np.array([t.cycles for t in tasks])
    mean = float(cycles.mean())
    jitter = rng.uniform(0.8, 1.2, size=len(cycles))
    if model == "proportional":
        base = cycles / mean
    elif model == "inverse":
        base = mean / cycles
    else:
        raise ValueError(f"unknown PE model {model!r}")
    return list(0.25 * base * jitter)


def _trial(seed_tuple, params):
    """One two-PE instance: greedy ratio, optimal cost, PE usage."""
    rng = trial_rng(seed_tuple)
    base = standard_instance(
        rng, n_tasks=params["n_tasks"], load=params["load"]
    )
    problem = TwoPeProblem(
        tasks=tasks_from_frame(
            base.tasks, _pe_utilizations(rng, base.tasks, params["pe_model"])
        ),
        energy_fn=base.energy_fn,
        pe_power=params["pe_power"],
    )
    opt = exhaustive_twope(problem)
    greedy = greedy_twope(problem)
    return {
        "ratio": normalized_ratio(greedy.cost, opt.cost),
        "opt_cost": opt.cost,
        "on_pe": len(opt.on_pe) / problem.n,
    }


def run(
    *,
    trials: int = 30,
    seed: int = 20070428,
    n_tasks: int = 9,
    load: float = 1.4,
    pe_powers: tuple[float, ...] = (0.1, 0.3, 0.6, 1.2),
    quick: bool = False,
    jobs: int = 1,
) -> ExperimentTable:
    """Execute the sweep and return the result table."""
    if quick:
        trials, n_tasks, pe_powers = 6, 7, (0.1, 0.6)
    table = ExperimentTable(
        name="fig_r10",
        title=f"Two-PE rejection: greedy / optimal and optimal cost "
        f"(n={n_tasks}, load={load})",
        columns=[
            "pe_model",
            "pe_power",
            "greedy_ratio",
            "opt_cost",
            "opt_on_pe",
        ],
        notes=[
            f"trials={trials} seed={seed}",
            "expected: greedy within a few % of optimal; PE usage falls "
            "as pe_power grows; inverse model uses the PE more",
        ],
    )
    cells = [
        (pe_model, pe_power)
        for pe_model in ("proportional", "inverse")
        for pe_power in pe_powers
    ]
    points = [
        (
            trial_seeds(seed + int(pe_power * 100), trials),
            {
                "n_tasks": n_tasks,
                "load": load,
                "pe_model": pe_model,
                "pe_power": pe_power,
            },
            f"fig_r10[{pe_model},pe={pe_power}]",
        )
        for pe_model, pe_power in cells
    ]
    for (pe_model, pe_power), fragments in zip(
        cells, map_sweep(_trial, points, jobs=jobs)
    ):
        table.add_row(
            pe_model,
            pe_power,
            summarize([f["ratio"] for f in fragments]).mean,
            summarize([f["opt_cost"] for f in fragments]).mean,
            summarize([f["on_pe"] for f in fragments]).mean,
        )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
