"""The DP and Pareto work counters keep their values and meaning.

Perfbench's per-layer ``dp_cells`` and ``frontier_states`` sum these
counters, so the solvers must emit the same numbers however the kernel
runs its sweeps.  The values below were recorded with the per-task op
loop the sweeps replaced (the same on both kernels), on seeded
``repro bench`` instances; each case also pins the solution's cost.
"""

from __future__ import annotations

import pytest

from repro.core.rejection import (
    dp_cycles,
    dp_penalty,
    fptas,
    greedy_density,
    pareto_exact,
)
from repro.kernels import kernel_names, use_kernel
from repro.kernels.bench import _PENALTY_QUANTUM, _instance
from repro.obs import counters as obs_counters

SOLVERS = {
    "dp_cycles": lambda p: dp_cycles(
        p, quantum=p.capacity / 500, round_cycles=True
    ),
    "dp_penalty": lambda p: dp_penalty(p, quantum=_PENALTY_QUANTUM),
    "fptas": lambda p: fptas(p, eps=0.1, seed_solution=greedy_density(p)),
    "pareto_exact": pareto_exact,
}

#: (solver, n, rep) -> ({counter: value}, cost hex), bench seed 7.
PINNED = {
    ("dp_cycles", 12, 0): ({"cells": 6012, "width": 501}, "0x1.81978b0adaa28p+0"),
    ("dp_cycles", 40, 1): ({"cells": 20040, "width": 501}, "0x1.012aa475ddd08p+1"),
    ("dp_penalty", 12, 0): ({"cells": 78012}, "0x1.6deb5d24874a4p+0"),
    ("dp_penalty", 30, 1): ({"cells": 181860}, "0x1.806e03d92eeb3p+0"),
    ("fptas", 12, 0): ({"states": 362, "cells": 4344}, "0x1.355b16725b1dcp+1"),
    ("fptas", 40, 1): ({"states": 1625, "cells": 65000}, "0x1.cca2906c62846p+0"),
    ("pareto_exact", 12, 0): (
        {"states": 513, "peak_frontier": 63, "final_frontier": 63},
        "0x1.62203d377fe02p+0",
    ),
    ("pareto_exact", 60, 1): (
        {"states": 54649, "peak_frontier": 1270, "final_frontier": 1270},
        "0x1.e4f7cef49b7a5p+0",
    ),
}


@pytest.mark.parametrize("kernel", kernel_names())
@pytest.mark.parametrize("case", sorted(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_counters_match_the_per_task_loop(case, kernel):
    solver, n, rep = case
    want, cost = PINNED[case]
    problem = _instance(solver, n, 7, rep)
    with use_kernel(kernel), obs_counters.counting() as registry:
        solution = SOLVERS[solver](problem)
    snapshot = registry.snapshot()
    assert {key: snapshot[f"{solver}.{key}"] for key in want} == want
    assert solution.cost.hex() == cost
