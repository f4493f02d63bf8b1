"""Tab R4 (engineering) — algorithm runtime scaling.

Not a paper figure: the table an adopter reads to pick an algorithm.
Mean wall-clock runtime (ms) per instance over the task-count sweep, and
the exact/heuristic cost agreement where an exact reference is feasible.

Expected shape: greedy/LP-rounding effectively flat (sub-millisecond);
FPTAS grows ~n²; pareto_exact grows with the (instance-dependent)
frontier and stays practical to n ≈ 100; branch-and-bound is
exponential-tailed and only run to n = 20.
"""

from __future__ import annotations

import time

from repro.analysis import ExperimentTable, summarize
from repro.core.rejection import (
    branch_and_bound,
    fptas,
    greedy_marginal,
    lp_rounding,
    pareto_exact,
)
from repro.experiments.common import standard_instance, trial_rng
from repro.runner import map_sweep, trial_seeds

#: Beyond this, branch-and-bound is skipped (exponential tail).
BB_LIMIT = 20

#: name -> solver, in presentation order (module-level for picklability).
SOLVERS = [
    ("greedy_marginal", greedy_marginal),
    ("lp_rounding", lp_rounding),
    ("fptas(0.1)", lambda p: fptas(p, eps=0.1)),
    ("pareto_exact", pareto_exact),
    ("branch_and_bound", branch_and_bound),
]


def _trial(seed_tuple, params):
    """One instance: per-solver runtime (ms), with the exactness check."""
    rng = trial_rng(seed_tuple)
    n = params["n"]
    problem = standard_instance(rng, n_tasks=n, load=params["load"])
    fragment = {}
    reference = None
    for name, solver in SOLVERS:
        if name == "branch_and_bound" and n > BB_LIMIT:
            continue
        start = time.perf_counter()
        sol = solver(problem)
        fragment[name] = (time.perf_counter() - start) * 1e3
        if name == "pareto_exact":
            reference = sol.cost
        elif name == "branch_and_bound" and reference is not None:
            # Exactness cross-check rides along for free.
            if abs(sol.cost - reference) > 1e-6 * max(reference, 1.0):
                raise AssertionError(
                    f"exact solvers disagree at n={n}: "
                    f"{sol.cost} vs {reference}"
                )
    return fragment


def run(
    *,
    trials: int = 10,
    seed: int = 20070431,
    sizes: tuple[int, ...] = (10, 20, 40, 80, 160),
    load: float = 1.5,
    quick: bool = False,
    jobs: int = 1,
) -> ExperimentTable:
    """Execute the sweep and return the result table."""
    if quick:
        trials, sizes = 3, (10, 40)
    table = ExperimentTable(
        name="tab_r4",
        title=f"Algorithm runtime scaling, ms/instance (load={load})",
        columns=[
            "n",
            "greedy_marginal",
            "lp_rounding",
            "fptas(0.1)",
            "pareto_exact",
            "branch_and_bound",
        ],
        notes=[
            f"trials={trials} seed={seed}",
            f"branch_and_bound only run to n={BB_LIMIT}",
            "expected: greedy/LP flat; fptas ~n^2; pareto practical to "
            "n~100 (frontier-dependent); b&b exponential-tailed",
        ],
    )
    points = [
        (trial_seeds(seed + n, trials), {"n": n, "load": load}, f"tab_r4[n={n}]")
        for n in sizes
    ]
    for n, fragments in zip(sizes, map_sweep(_trial, points, jobs=jobs)):
        runtimes = {
            name: [f[name] for f in fragments if name in f]
            for name, _ in SOLVERS
        }
        table.add_row(
            n,
            *(
                summarize(runtimes[name]).mean if runtimes[name] else "-"
                for name, _ in SOLVERS
            ),
        )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
