"""Fig R6 — leakage-aware vs leakage-blind rejection vs static power β0.

Processor: dormant-enable with ``P(s) = β0 + 1.52·s³`` and zero-overhead
sleep; β0 is swept.  The sweep sits deliberately in the light-load regime
(load 0.6, penalties priced near the critical-speed marginal): above the
critical speed both models share marginal energies (the leakage term is a
constant offset there), so leakage-blindness only bites when the accepted
workload can fall below ``s*·D``.  Two policies pick the accepted subset:

* *aware*: greedy_marginal on the true leakage-aware energy function
  (critical-speed clamped);
* *blind*: greedy_marginal on a β0 = 0 continuous model — it believes
  slowing down is always free — with its chosen subset then *charged*
  under the true function.

Both are normalized to the true-model exhaustive optimum.

Expected shape: at β0 = 0 the two coincide; as β0 grows the blind policy
over-accepts (it underestimates the energy of carrying workload) and its
ratio drifts above the aware policy's, which stays near 1.
"""

from __future__ import annotations

from repro.analysis import ExperimentTable, normalized_ratio, summarize
from repro.core.rejection import RejectionProblem, exhaustive, greedy_marginal
from repro.energy import ContinuousEnergyFunction, CriticalSpeedEnergyFunction
from repro.power import PolynomialPowerModel
from repro.experiments.common import DEADLINE, standard_instance, trial_rng
from repro.runner import map_sweep, trial_seeds


def _trial(seed_tuple, params):
    """One instance: aware and blind policy ratios to the true optimum."""
    rng = trial_rng(seed_tuple)
    true_model = PolynomialPowerModel(
        beta0=params["beta0"], beta1=1.52, alpha=3.0
    )
    blind_model = PolynomialPowerModel(beta0=0.0, beta1=1.52, alpha=3.0)
    true_g = CriticalSpeedEnergyFunction(true_model, DEADLINE)
    problem = standard_instance(
        rng,
        n_tasks=params["n_tasks"],
        load=params["load"],
        penalty_scale=params["penalty_scale"],
        energy_fn=true_g,
    )
    opt = exhaustive(problem)
    aware = greedy_marginal(problem)
    blind_problem = RejectionProblem(
        tasks=problem.tasks,
        energy_fn=ContinuousEnergyFunction(blind_model, DEADLINE),
    )
    blind_pick = greedy_marginal(blind_problem)
    blind_cost = problem.cost(blind_pick.accepted).total
    return {
        "aware": normalized_ratio(aware.cost, opt.cost),
        "blind": normalized_ratio(blind_cost, opt.cost),
    }


def run(
    *,
    trials: int = 40,
    seed: int = 20070421,
    n_tasks: int = 12,
    load: float = 0.6,
    penalty_scale: float = 1.0,
    beta0_values: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.35, 0.5),
    quick: bool = False,
    jobs: int = 1,
) -> ExperimentTable:
    """Execute the sweep and return the result table."""
    if quick:
        trials, n_tasks, beta0_values = 6, 8, (0.0, 0.2, 0.5)
    table = ExperimentTable(
        name="fig_r6",
        title=f"Leakage-aware vs leakage-blind cost / optimal (n={n_tasks}, "
        f"load={load})",
        columns=["beta0", "aware", "blind"],
        notes=[
            f"trials={trials} seed={seed}",
            "expected: aware ~1 throughout; blind drifts up with beta0",
        ],
    )
    points = [
        (
            trial_seeds(seed + int(beta0 * 1000), trials),
            {
                "n_tasks": n_tasks,
                "load": load,
                "penalty_scale": penalty_scale,
                "beta0": beta0,
            },
            f"fig_r6[beta0={beta0}]",
        )
        for beta0 in beta0_values
    ]
    sweep = map_sweep(_trial, points, jobs=jobs)
    for beta0, fragments in zip(beta0_values, sweep):
        table.add_row(
            beta0,
            summarize([f["aware"] for f in fragments]).mean,
            summarize([f["blind"] for f in fragments]).mean,
        )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
