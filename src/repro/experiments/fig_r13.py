"""Fig R13 (extension) — heterogeneous power coefficients: aware vs blind.

Tasks draw per-task power coefficients ``ρi`` from a spread around 1
(``ρi ∈ [1/spread, spread]``, log-uniform).  Two policies choose the
accepted set:

* **aware** — pareto_exact on the exact reduction (effective cycles
  ``ci·ρi^{1/α}``), i.e. the true optimum;
* **blind** — pareto_exact on a homogenised instance that pretends every
  task has the mean coefficient, with its decision then *charged* under
  the true heterogeneous energy.

Both normalized to the aware optimum; acceptance ratios reported.

Expected shape: identical at spread 1 (no heterogeneity); the blind
ratio grows with the spread — it keeps power-hungry tasks whose true
marginal energy exceeds their penalty (mirrors the motivation for LEET
over LTF in the companion text).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import ExperimentTable, normalized_ratio, summarize
from repro.core.rejection import (
    HeterogeneousTask,
    heterogeneous_energy,
    heterogeneous_problem,
    pareto_exact,
)
from repro.experiments.common import trial_rng
from repro.runner import map_sweep, trial_seeds

ALPHA = 3.0

#: Frame deadline shared by every heterogeneous trial.
DEADLINE = 1.0


def _instance(rng, *, n_tasks: int, spread: float) -> list[HeterogeneousTask]:
    log_spread = np.log(spread) if spread > 1.0 else 0.0
    coeffs = np.exp(rng.uniform(-log_spread, log_spread, n_tasks))
    cycles = rng.uniform(0.1, 0.5, n_tasks)
    # Penalties on the energy scale of a mid-utilisation frame.
    penalties = cycles * rng.uniform(0.5, 2.0, n_tasks)
    return [
        HeterogeneousTask(
            name=f"t{i}",
            cycles=float(c),
            power_coeff=float(k),
            penalty=float(p),
        )
        for i, (c, k, p) in enumerate(zip(cycles, coeffs, penalties))
    ]


def _trial(seed_tuple, params):
    """One heterogeneous instance: blind-policy ratio and acceptance."""
    rng = trial_rng(seed_tuple)
    tasks = _instance(
        rng, n_tasks=params["n_tasks"], spread=params["spread"]
    )

    aware_problem = heterogeneous_problem(tasks, deadline=DEADLINE)
    aware = pareto_exact(aware_problem)

    mean_coeff = float(np.mean([t.power_coeff for t in tasks]))
    homogenised = [
        HeterogeneousTask(
            name=t.name,
            cycles=t.cycles,
            power_coeff=mean_coeff,
            penalty=t.penalty,
        )
        for t in tasks
    ]
    blind_pick = pareto_exact(
        heterogeneous_problem(homogenised, deadline=DEADLINE)
    )
    blind_cost = heterogeneous_energy(
        tasks, sorted(blind_pick.accepted), deadline=DEADLINE
    ) + sum(
        t.penalty
        for i, t in enumerate(tasks)
        if i not in blind_pick.accepted
    )
    return {
        "blind": normalized_ratio(blind_cost, aware.cost),
        "acceptance": aware.acceptance_ratio,
    }


def run(
    *,
    trials: int = 40,
    seed: int = 20070432,
    n_tasks: int = 12,
    spreads: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0),
    quick: bool = False,
    jobs: int = 1,
) -> ExperimentTable:
    """Execute the sweep and return the result table."""
    if quick:
        trials, n_tasks, spreads = 6, 8, (1.0, 4.0)
    table = ExperimentTable(
        name="fig_r13",
        title=f"Heterogeneous power: aware vs blind cost / optimal "
        f"(n={n_tasks})",
        columns=["spread", "aware", "blind", "aware_acceptance"],
        notes=[
            f"trials={trials} seed={seed}",
            "expected: equal at spread 1; blind ratio grows with spread",
        ],
    )
    points = [
        (
            trial_seeds(seed + int(spread * 10), trials),
            {"n_tasks": n_tasks, "spread": spread},
            f"fig_r13[spread={spread}]",
        )
        for spread in spreads
    ]
    for spread, fragments in zip(spreads, map_sweep(_trial, points, jobs=jobs)):
        table.add_row(
            spread,
            # aware IS the optimum by construction
            summarize([1.0 for _ in fragments]).mean,
            summarize([f["blind"] for f in fragments]).mean,
            summarize([f["acceptance"] for f in fragments]).mean,
        )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
