"""Fig R12 (extension) — aperiodic jobs with individual windows.

Random job sets with controllable *window overlap*: at overlap 0 the
windows barely intersect (each job is almost its own frame) and the
problem factorises; at high overlap all jobs compete for the same
interval and the speed cap forces rejection.  greedy_aperiodic (exact
YDS marginals) is normalized to the 2ⁿ YDS-exhaustive optimum; the table
also reports the optimal acceptance ratio and the mean YDS peak speed.

Expected shape: the greedy stays within a few % of optimal across the
sweep; acceptance falls as the overlap concentrates contention — the
optimum sheds enough load to keep the YDS peak under ``s_max``.
"""

from __future__ import annotations

from repro.analysis import ExperimentTable, normalized_ratio, summarize
from repro.core.rejection import (
    AperiodicJob,
    AperiodicProblem,
    exhaustive_aperiodic,
    greedy_aperiodic,
)
from repro.experiments.common import trial_rng
from repro.power import xscale_power_model
from repro.runner import map_sweep, trial_seeds


def _instance(rng, *, n_jobs: int, overlap: float, load: float) -> AperiodicProblem:
    """Jobs on a timeline whose windows overlap by the given degree.

    ``overlap`` in [0, 1]: 0 spreads arrivals over a long horizon, 1
    releases everything at t = 0 over one shared window.
    """
    horizon = 10.0 * (1.0 - overlap) + 1e-6
    jobs = []
    total_cycles = load * 1.0 * 10.0  # s_max * nominal horizon
    weights = rng.uniform(1.0, 3.0, n_jobs)
    weights = weights / weights.sum()
    for i in range(n_jobs):
        arrival = float(rng.uniform(0.0, horizon))
        length = float(rng.uniform(2.0, 6.0))
        cycles = float(weights[i] * total_cycles)
        penalty = float(cycles * rng.uniform(0.5, 1.5))
        jobs.append(
            AperiodicJob(
                name=f"j{i}",
                arrival=arrival,
                deadline=arrival + length,
                cycles=cycles,
                penalty=penalty,
            )
        )
    return AperiodicProblem(jobs=tuple(jobs), power_model=xscale_power_model())


def _trial(seed_tuple, params):
    """One aperiodic instance: greedy ratio, acceptance, YDS peak."""
    rng = trial_rng(seed_tuple)
    problem = _instance(
        rng,
        n_jobs=params["n_jobs"],
        overlap=params["overlap"],
        load=params["load"],
    )
    opt = exhaustive_aperiodic(problem)
    greedy = greedy_aperiodic(problem)
    return {
        "ratio": normalized_ratio(greedy.cost, opt.cost),
        "acceptance": len(opt.accepted) / problem.n,
        "peak": opt.schedule().max_speed,
    }


def run(
    *,
    trials: int = 25,
    seed: int = 20070430,
    n_jobs: int = 9,
    load: float = 1.2,
    overlaps: tuple[float, ...] = (0.0, 0.33, 0.67, 1.0),
    quick: bool = False,
    jobs: int = 1,
) -> ExperimentTable:
    """Execute the sweep and return the result table."""
    if quick:
        trials, n_jobs, overlaps = 5, 6, (0.0, 1.0)
    table = ExperimentTable(
        name="fig_r12",
        title=f"Aperiodic rejection vs window overlap (n={n_jobs}, "
        f"load={load})",
        columns=["overlap", "greedy_ratio", "opt_acceptance", "opt_peak_speed"],
        notes=[
            f"trials={trials} seed={seed}",
            "expected: greedy within a few % of optimal; acceptance falls "
            "as overlap concentrates contention (the optimum sheds load, "
            "keeping the peak under s_max)",
        ],
    )
    points = [
        (
            trial_seeds(seed + int(overlap * 100), trials),
            {"n_jobs": n_jobs, "overlap": overlap, "load": load},
            f"fig_r12[ov={overlap}]",
        )
        for overlap in overlaps
    ]
    for overlap, fragments in zip(overlaps, map_sweep(_trial, points, jobs=jobs)):
        table.add_row(
            overlap,
            summarize([f["ratio"] for f in fragments]).mean,
            summarize([f["acceptance"] for f in fragments]).mean,
            summarize([f["peak"] for f in fragments]).mean,
        )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
