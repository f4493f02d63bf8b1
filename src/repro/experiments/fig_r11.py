"""Fig R11 (extension) — slack reclamation under rejection.

After the rejection algorithm fixes the accepted set, jobs usually finish
under their WCEC.  This sweep varies the mean actual/WCEC fraction and
compares, over one hyper-period of EDF simulation:

* **static** — constant WCEC-feasible speed (the analytic model);
* **cc-edf** — cycle-conserving reclamation (Pillai & Shin): the speed
  follows the live utilisation budget, slowing whenever a job completes
  early.

Both runs must be miss-free (reclamation may never endanger deadlines).

Expected shape: savings ≈ 0 at fraction 1.0 and grow monotonically as
jobs finish earlier; with cubic power the energy falls roughly with the
square of the realised utilisation, so savings approach ~60% at mean
fraction 0.4.
"""

from __future__ import annotations

import numpy as np

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
    """One periodic instance: static vs reclaimed energy over a hyper-period.

    Returns ``None`` when the rejection step accepts nothing (the trial
    contributes no sample, matching the serial harness's ``continue``).
    """
    rng = trial_rng(seed_tuple)
    seed, fraction = params["seed"], params["fraction"]
    model = xscale_power_model()
    tasks = periodic_instance(
        rng,
        n_tasks=params["n_tasks"],
        total_utilization=params["total_utilization"],
        penalty_scale=5.0,
    )
    problem = periodic_problem(tasks, continuous_energy(model))
    accepted = accepted_periodic_tasks(greedy_marginal(problem), tasks)
    if len(accepted) == 0:
        return None
    horizon = float(tasks.hyper_period)
    speed = accepted.total_utilization

    actual_rng = np.random.default_rng([seed, int(fraction * 100)])
    drawn: dict[int, float] = {}

    def actuals(task, seq, _rng=actual_rng, _drawn=drawn, _f=fraction):
        if seq not in _drawn:
            jitter = float(_rng.uniform(0.75, 1.25))
            _drawn[seq] = min(_f * jitter, 1.0) * task.wcec
        return _drawn[seq]

    static = simulate_edf(
        accepted, model, speed=speed, horizon=horizon,
        actual_cycles=actuals,
    )
    reclaimed = simulate_edf(
        accepted, model, speed=speed, horizon=horizon,
        actual_cycles=actuals, reclaim=True,
    )
    return {
        "static": static.total_energy,
        "cc": reclaimed.total_energy,
        "saving": 1.0 - reclaimed.total_energy / static.total_energy,
        "misses": len(static.misses) + len(reclaimed.misses),
    }


def run(
    *,
    trials: int = 12,
    seed: int = 20070429,
    n_tasks: int = 8,
    total_utilization: float = 1.2,
    fractions: tuple[float, ...] = (1.0, 0.8, 0.6, 0.4),
    quick: bool = False,
    jobs: int = 1,
) -> ExperimentTable:
    """Execute the sweep and return the result table."""
    if quick:
        trials, n_tasks, fractions = 4, 6, (1.0, 0.5)
    table = ExperimentTable(
        name="fig_r11",
        title="Slack reclamation after rejection: CC-EDF vs static speed "
        f"(n={n_tasks}, U={total_utilization})",
        columns=["mean_fraction", "static_E", "ccedf_E", "saving", "misses"],
        notes=[
            f"trials={trials} seed={seed}",
            "expected: saving ~0 at fraction 1.0, grows as jobs finish "
            "earlier; zero misses always",
        ],
    )
    points = [
        (
            trial_seeds(seed + int(fraction * 100), trials),
            {
                "n_tasks": n_tasks,
                "total_utilization": total_utilization,
                "fraction": fraction,
                "seed": seed,
            },
            f"fig_r11[f={fraction}]",
        )
        for fraction in fractions
    ]
    for fraction, outcomes in zip(fractions, map_sweep(_trial, points, jobs=jobs)):
        fragments = [f for f in outcomes if f is not None]
        table.add_row(
            fraction,
            summarize([f["static"] for f in fragments]).mean,
            summarize([f["cc"] for f in fragments]).mean,
            summarize([f["saving"] for f in fragments]).mean,
            sum(f["misses"] for f in fragments),
        )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
