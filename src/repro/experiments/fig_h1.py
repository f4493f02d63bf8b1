"""Fig H1 — heterogeneous typed assignment: energy cost vs the LP/HP mix.

Thammawichai & Kerrigan's two-type setting on the paper's rejection
objective: four cores whose composition sweeps from all-LP (cheap, half
throughput) to all-HP (full speed, ~4x energy per cycle).  Each mix
solves the same overloaded task stream with the typed partitioned
heuristic (``typed_ltf_reject``), the typed global router
(``typed_global_reject``) and the exhaustive typed oracle, all
normalized to the inf-convolution pooled lower bound.

Expected shape: the all-LP platform pays in penalties (capacity starves,
rejection is forced), the all-HP one in energy; the mixed platforms sit
lowest because cheap cycles absorb the base load while HP cores catch
the overflow — and the heuristics track the oracle within a few percent
throughout.
"""

from __future__ import annotations

from repro.analysis import ExperimentTable, normalized_ratio, summarize
from repro.experiments.common import trial_rng
from repro.hetero.assign import (
    HeteroRejectionProblem,
    exhaustive_hetero,
    hetero_pooled_lower_bound,
    typed_global_reject,
    typed_ltf_reject,
)
from repro.hetero.platform import lp_hp_platform
from repro.runner import map_sweep, trial_seeds
from repro.tasks import frame_instance


def _trial(seed_tuple, params):
    """One instance on one LP/HP mix: each solver's ratio to the bound.

    The workload is scaled to the *mix-independent* reference capacity
    (``cores`` x the mean per-core throughput), so the same trial seed
    produces the identical task set at every mix and the ``opt_cost``
    column compares platforms on the same work.
    """
    rng = trial_rng(seed_tuple)
    platform = lp_hp_platform(params["lp"], params["hp"])
    cores = params["lp"] + params["hp"]
    reference_cap = cores * 0.75  # mean of the LP (0.5) and HP (1.0) caps
    tasks = frame_instance(
        rng,
        n_tasks=params["n"],
        load=params["load"] * reference_cap,
        penalty_model="energy",
        penalty_scale=2.0,
    )
    problem = HeteroRejectionProblem(tasks=tasks, platform=platform)
    bound = hetero_pooled_lower_bound(problem)
    opt = exhaustive_hetero(problem).cost
    return {
        "ltf": normalized_ratio(typed_ltf_reject(problem).cost, bound),
        "global": normalized_ratio(typed_global_reject(problem).cost, bound),
        "opt": normalized_ratio(opt, bound),
        "opt_cost": opt,
    }


def run(
    *,
    trials: int = 25,
    seed: int = 20070423,
    cores: int = 4,
    n_tasks: int = 6,
    load: float = 1.3,
    quick: bool = False,
    jobs: int = 1,
) -> ExperimentTable:
    """Execute the sweep and return the result table."""
    if quick:
        trials, cores, n_tasks = 4, 3, 4
    table = ExperimentTable(
        name="fig_h1",
        title=f"Typed-assignment cost vs LP/HP mix ({cores} cores, "
        f"load={load})",
        columns=[
            "lp",
            "hp",
            "typed_ltf",
            "typed_global",
            "exhaustive",
            "opt_cost",
        ],
        notes=[
            f"trials={trials} seed={seed} n={n_tasks}",
            "ratio columns normalized to the inf-convolution pooled "
            "lower bound; opt_cost is the oracle's absolute cost",
            "expected: opt_cost dips at mixed platforms (LP absorbs base "
            "load, HP catches overflow); heuristics track the oracle "
            "closely at every mix",
        ],
    )
    mixes = [(cores - hp, hp) for hp in range(cores + 1)]
    # Same seeds at every mix: each row re-solves the identical
    # instance stream on a different platform.
    points = [
        (
            trial_seeds(seed, trials),
            {"lp": lp, "hp": hp, "n": n_tasks, "load": load},
            f"fig_h1[lp={lp},hp={hp}]",
        )
        for lp, hp in mixes
    ]
    for (lp, hp), fragments in zip(mixes, map_sweep(_trial, points, jobs=jobs)):
        table.add_row(
            lp,
            hp,
            summarize([f["ltf"] for f in fragments]).mean,
            summarize([f["global"] for f in fragments]).mean,
            summarize([f["opt"] for f in fragments]).mean,
            summarize([f["opt_cost"] for f in fragments]).mean,
        )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
