"""Tab R2 — analytic energy vs EDF simulation for periodic task sets.

End-to-end validation of the periodic reduction: for each target
utilisation, a random periodic instance is solved with greedy_marginal,
the accepted set is run through the event-driven EDF simulator over the
full hyper-period, and the table compares the analytic ``g(U·L)`` energy
with the simulator's measured dynamic energy, alongside the deadline-miss
count (which must be zero for every accepted set).

Expected shape: relative error ~0 in every row (the analytic model is a
theorem, not an approximation, for constant-speed EDF); zero misses.
"""

from __future__ import annotations

from repro.analysis import ExperimentTable, summarize
from repro.core.rejection import (
    accepted_periodic_tasks,
    continuous_energy,
    greedy_marginal,
    periodic_problem,
)
from repro.experiments.common import trial_rng
from repro.power import xscale_power_model
from repro.runner import map_sweep, trial_seeds
from repro.sched import simulate_edf
from repro.tasks import periodic_instance


def _trial(seed_tuple, params):
    """One periodic instance: analytic vs simulated energy."""
    rng = trial_rng(seed_tuple)
    model = xscale_power_model()
    tasks = periodic_instance(
        rng,
        n_tasks=params["n_tasks"],
        total_utilization=params["u"],
        penalty_scale=5.0,
    )
    problem = periodic_problem(tasks, continuous_energy(model))
    sol = greedy_marginal(problem)
    accepted = accepted_periodic_tasks(sol, tasks)
    fragment = {
        "acc_u": accepted.total_utilization if len(accepted) else 0.0,
        "analytic": sol.energy,
        "simulated": 0.0,
        "err": 0.0,
        "misses": 0,
    }
    if len(accepted) == 0:
        return fragment
    horizon = float(tasks.hyper_period)
    # The analytic (leakage-blind continuous) model runs exactly at
    # the accepted utilisation; edf_speed would clamp to the
    # critical speed, which belongs to the leakage-aware model.
    result = simulate_edf(
        accepted,
        model,
        speed=accepted.total_utilization,
        horizon=horizon,
    )
    dynamic = result.energy_active - model.static_power * result.busy_time
    scale = max(sol.energy, 1e-12)
    fragment["simulated"] = dynamic
    fragment["err"] = abs(dynamic - sol.energy) / scale
    fragment["misses"] = len(result.misses)
    return fragment


def run(
    *,
    trials: int = 15,
    seed: int = 20070425,
    n_tasks: int = 8,
    utilizations: tuple[float, ...] = (0.4, 0.7, 1.0, 1.3, 1.6),
    quick: bool = False,
    jobs: int = 1,
) -> ExperimentTable:
    """Execute the validation sweep and return the result table."""
    if quick:
        trials, n_tasks, utilizations = 4, 6, (0.7, 1.3)
    table = ExperimentTable(
        name="tab_r2",
        title=f"EDF simulation vs analytic energy (n={n_tasks} periodic)",
        columns=[
            "target_U",
            "accepted_U",
            "analytic_E",
            "simulated_E",
            "rel_err",
            "misses",
        ],
        notes=[
            f"trials={trials} seed={seed}",
            "expected: rel_err ~ 0, misses = 0 in every row",
        ],
    )
    points = [
        (
            trial_seeds(seed + int(u * 100), trials),
            {"n_tasks": n_tasks, "u": u},
            f"tab_r2[U={u}]",
        )
        for u in utilizations
    ]
    for u, fragments in zip(utilizations, map_sweep(_trial, points, jobs=jobs)):
        table.add_row(
            u,
            summarize([f["acc_u"] for f in fragments]).mean,
            summarize([f["analytic"] for f in fragments]).mean,
            summarize([f["simulated"] for f in fragments]).mean,
            summarize([f["err"] for f in fragments]).maximum,
            sum(f["misses"] for f in fragments),
        )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
