"""Fig H2 — online (m,k)-firm skip rejection vs window tightness.

Baskaran & Thambidurai's weakly-hard contract as admission control: a
job may be skipped (rejected) only when the previous ``k-1`` decisions
leave ``m`` accepts in every window.  Sweeping ``m`` at fixed ``k``
tightens the contract from "skip freely" (m=1: the plain threshold rule)
to "never skip" (m=k: online accept-all), with the marginal-energy
threshold rule expressing preference whenever a skip is allowed.

Each point drives a fresh :class:`MKFirmSkipPolicy` over a shuffled
overloaded arrival stream via :func:`run_online` and normalizes the
online cost to the offline optimum (empirical competitive ratio, the
Fig R9 methodology).  Expected shape: acceptance ratio climbs
monotonically with ``m``; cost is near the plain threshold rule at small
``m`` and degrades toward accept-all as forced accepts crowd out the
energy-aware preference.
"""

from __future__ import annotations

from repro.analysis import ExperimentTable, normalized_ratio, summarize
from repro.core.rejection import (
    MKFirmSkipPolicy,
    RejectionProblem,
    branch_and_bound,
    run_online,
)
from repro.experiments.common import derived_rng, trial_rng, xscale_energy
from repro.runner import map_sweep, trial_seeds
from repro.tasks import frame_instance


def _trial(seed_tuple, params):
    """One shuffled stream through a fresh (m,k) policy, scored offline."""
    rng = trial_rng(seed_tuple)
    tasks = frame_instance(
        rng,
        n_tasks=params["n"],
        load=params["load"],
        penalty_model="energy",
        penalty_scale=2.0,
    )
    problem = RejectionProblem(tasks=tasks, energy_fn=xscale_energy())
    opt = branch_and_bound(problem).cost
    # The policy is stateful: every trial gets a fresh window.
    policy = MKFirmSkipPolicy(params["m"], params["k"], theta=1.0)
    online = run_online(
        problem, policy, rng=derived_rng(seed_tuple, "arrival-order")
    )
    return {
        "ratio": normalized_ratio(online.cost, opt),
        "accepted": online.acceptance_ratio,
        "skips": policy.decisions.count(False),
    }


def run(
    *,
    trials: int = 40,
    seed: int = 20070424,
    k: int = 6,
    n_tasks: int = 12,
    load: float = 2.0,
    quick: bool = False,
    jobs: int = 1,
) -> ExperimentTable:
    """Execute the sweep and return the result table."""
    if quick:
        trials, k, n_tasks = 6, 3, 8
    table = ExperimentTable(
        name="fig_h2",
        title=f"(m,{k})-firm skip admission vs window tightness "
        f"(load={load})",
        columns=["m", "k", "acceptance_ratio", "skips", "cost_ratio"],
        notes=[
            f"trials={trials} seed={seed} n={n_tasks}",
            "cost_ratio = online cost / offline optimum "
            "(branch_and_bound), shuffled arrival order",
            "expected: acceptance ratio rises and skips fall "
            "monotonically with m; m=k forbids skipping entirely",
        ],
    )
    m_values = range(1, k + 1)
    points = [
        (
            trial_seeds(seed + 7 * m, trials),
            {"m": m, "k": k, "n": n_tasks, "load": load},
            f"fig_h2[m={m}]",
        )
        for m in m_values
    ]
    for m, fragments in zip(m_values, map_sweep(_trial, points, jobs=jobs)):
        table.add_row(
            m,
            k,
            summarize([f["accepted"] for f in fragments]).mean,
            summarize([f["skips"] for f in fragments]).mean,
            summarize([f["ratio"] for f in fragments]).mean,
        )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
