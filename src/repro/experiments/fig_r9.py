"""Fig R9 (extension) — online admission control: empirical competitiveness.

Tasks arrive in random order and are accepted/rejected irrevocably by
the marginal-energy threshold policy; costs are normalized to the
*offline* exhaustive optimum (which sees the whole set in advance).  The
θ sweep exposes the admission trade-off; first-fit (accept-if-feasible)
and reject-all anchor the extremes.

Expected shape: the ratio over θ is U-shaped — small θ under-admits
(pays penalties it could have avoided), large θ over-admits early
arrivals and runs out of capacity/energy headroom; the pessimistic
"reserve"-priced θ = 1 variant beats the plain myopic θ = 1 under
overload; first-fit is the worst admission policy when penalties are
cheap.
"""

from __future__ import annotations

from repro.analysis import ExperimentTable, normalized_ratio, summarize
from repro.core.rejection import (
    AcceptIfFeasible,
    RejectAll,
    ThresholdPolicy,
    exhaustive,
    run_online,
)
from repro.experiments.common import standard_instance, trial_rng
from repro.runner import map_sweep, trial_seeds

THETAS = (0.25, 0.5, 1.0, 2.0, 4.0)


def _policies():
    """The fixed admission-policy roster (rebuilt per trial: stateless)."""
    return [
        *(ThresholdPolicy(theta) for theta in THETAS),
        ThresholdPolicy(1.0, reserve=True),
        AcceptIfFeasible(),
        RejectAll(),
    ]


def _trial(seed_tuple, params):
    """One shuffled arrival order: each policy's ratio to offline opt."""
    rng = trial_rng(seed_tuple)
    problem = standard_instance(
        rng, n_tasks=params["n_tasks"], load=params["load"]
    )
    opt = exhaustive(problem).cost
    arrival = list(rng.permutation(problem.n))
    return {
        policy.name: normalized_ratio(
            run_online(problem, policy, order=arrival).cost, opt
        )
        for policy in _policies()
    }


def run(
    *,
    trials: int = 40,
    seed: int = 20070427,
    n_tasks: int = 12,
    loads: tuple[float, ...] = (0.8, 1.5, 2.5),
    quick: bool = False,
    jobs: int = 1,
) -> ExperimentTable:
    """Execute the sweep and return the result table."""
    if quick:
        trials, n_tasks, loads = 6, 8, (1.5,)
    policies = _policies()
    table = ExperimentTable(
        name="fig_r9",
        title=f"Online admission: cost / offline optimal (n={n_tasks}, "
        "shuffled arrivals)",
        columns=["load", *(p.name for p in policies)],
        notes=[
            f"trials={trials} seed={seed}",
            "expected: U-shape over theta with the minimum near theta=1; "
            "reserve pricing is strictly more conservative (beats the "
            "over-admitting thresholds, not the myopic theta=1); "
            "first-fit matches theta->inf",
        ],
    )
    points = [
        (
            trial_seeds(seed + int(load * 100), trials),
            {"n_tasks": n_tasks, "load": load},
            f"fig_r9[load={load}]",
        )
        for load in loads
    ]
    for load, fragments in zip(loads, map_sweep(_trial, points, jobs=jobs)):
        table.add_row(
            load,
            *(
                summarize([f[p.name] for f in fragments]).mean
                for p in policies
            ),
        )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
