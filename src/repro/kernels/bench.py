"""``repro bench`` — kernel throughput benchmark (python vs numpy).

Runs a seeded stream of random REJECT-MIN instances through each
rejection solver on every available array kernel and writes the
throughput table as ``BENCH_kernels.json``:

* one **cell** per (solver, n, kernel): instances solved, total wall
  seconds, instances/second, the aggregated :mod:`repro.obs` solver
  counters, and a cost checksum (the summed solution costs — bit-equal
  across kernels, so two cells of the same (solver, n) cross-check the
  differential contract on real timing runs);
* solver/size combinations that would be superquadratic are recorded as
  explicit ``skipped`` cells with the reason — never silently dropped;
* the header pins the schema version, seed, code fingerprint, and the
  kernels available in the environment.

Instance generation uses only the stdlib ``random`` module, so the
benchmark (like the solvers) runs in NumPy-free environments; there it
simply produces python-kernel cells only.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from random import Random

from repro._store import atomic_write_json
from repro.core.rejection import (
    RejectionProblem,
    branch_and_bound,
    dp_cycles,
    dp_penalty,
    exhaustive,
    fptas,
    greedy_density,
    greedy_marginal,
    pareto_exact,
)
from repro.energy import ContinuousEnergyFunction
from repro.kernels import kernel_names, use_kernel
from repro.obs import counters as obs_counters
from repro.power import xscale_power_model
from repro.runner.cache import code_fingerprint
from repro.tasks.model import FrameTask, FrameTaskSet

__all__ = ["BENCH_SOLVERS", "SCHEMA_VERSION", "run_bench"]

#: Bump on any change to the BENCH_kernels.json layout.
SCHEMA_VERSION = 1

#: Instance sizes of the full run: the served request band (loadgen
#: bodies carry 6-12 tasks) and the paper-scale trajectory.
SIZES = (12, 100, 1_000, 10_000)

#: Instance sizes of ``--smoke`` (CI: seconds, not minutes).
SMOKE_SIZES = (20, 50)

#: Instances per cell, by size band (fixed counts keep runs with the
#: same seed byte-comparable; a time-budgeted loop would not be).
def _repeats(n: int, smoke: bool) -> int:
    if smoke:
        return 2
    if n <= 100:
        return 10
    if n <= 1_000:
        return 3
    return 1

#: DP table width target: dp_cycles quantises the capacity onto this
#: many grid units, and the fptas eps is scaled to hold roughly this
#: scaled-table width, so the n-trajectory measures row *throughput*
#: (cells/second), not an exploding table.
_DP_WIDTH = 2_000


def _fptas_eps(n: int) -> float:
    """Accuracy parameter per size: holds the scaled table width near
    :data:`_DP_WIDTH` (the bench measures kernel throughput, not
    approximation quality — at n=10^4 this eps is deliberately coarse).
    """
    return max(0.05, n / _DP_WIDTH)


#: The benchmarked solvers: name -> (runner, size cap, cap reason).
#: Caps mark solver/size combinations whose *algorithmic* cost (not the
#: kernel's) is superquadratic; they become explicit skipped cells.
BENCH_SOLVERS: dict = {
    "greedy_density": (
        lambda p, n: greedy_density(p),
        None,
        "",
    ),
    "greedy_marginal": (
        lambda p, n: greedy_marginal(p),
        1_000,
        "O(n^2) marginal evaluations",
    ),
    "dp_cycles": (
        lambda p, n: dp_cycles(
            p, quantum=p.capacity / _DP_WIDTH, round_cycles=True
        ),
        None,
        "",
    ),
    "dp_penalty": (
        lambda p, n: dp_penalty(p, quantum=_PENALTY_QUANTUM),
        1_000,
        "table width grows as sum(penalties)/quantum ~ n, cells ~ n^2",
    ),
    "fptas": (
        # Seed pinned to the linear-time heuristic: the default seed runs
        # greedy_marginal, whose O(n^2) scalar energy evaluations would
        # dominate the cell and hide the scaled DP the kernel accelerates.
        lambda p, n: fptas(
            p, eps=_fptas_eps(n), seed_solution=greedy_density(p)
        ),
        None,
        "",
    ),
    "pareto_exact": (
        lambda p, n: pareto_exact(p),
        300,
        "frontier size is instance-exponential in the worst case",
    ),
    "branch_and_bound": (
        lambda p, n: branch_and_bound(p),
        20,
        "search tree is exponential beyond exhaustive range",
    ),
    "exhaustive": (
        lambda p, n: exhaustive(p),
        16,
        "2^n subset enumeration",
    ),
}

#: Penalties are generated as integer multiples of this quantum so the
#: penalty-indexed DP applies without rounding; the total penalty mass
#: is ~7, so the dp_penalty table is ~7000 levels wide at every n.
_PENALTY_QUANTUM = 1e-3


def _instance(solver: str, n: int, seed: int, rep: int) -> RejectionProblem:
    """One deterministic random instance (stdlib RNG only).

    The stream is keyed on (seed, solver, n, rep) so cells never share
    instances and the same CLI seed reproduces the same file modulo
    timings.
    """
    rng = Random(f"{seed}:{solver}:{n}:{rep}")
    energy_fn = ContinuousEnergyFunction(xscale_power_model(), deadline=1.0)
    capacity = energy_fn.max_workload
    load = 1.2  # mild overload: forced rejections + improving rejections
    mean_cycles = load * capacity / n
    tasks = []
    for i in range(n):
        cycles = mean_cycles * rng.uniform(0.4, 1.6)
        # Penalty near the task's marginal energy at full load (~4.6 W/u
        # for the XScale model), in integer quanta: cheap enough that
        # rejection is often worth it, dear enough that it often is not.
        marginal = 4.6 * cycles
        penalty = (
            round(marginal * rng.uniform(0.3, 2.2) / _PENALTY_QUANTUM)
            * _PENALTY_QUANTUM
        )
        tasks.append(FrameTask(name=f"t{i}", cycles=cycles, penalty=penalty))
    return RejectionProblem(tasks=FrameTaskSet(tasks), energy_fn=energy_fn)


def _bench_cell(solver: str, n: int, seed: int, smoke: bool) -> dict:
    """Time one (solver, n) cell on the *active* kernel."""
    runner, _, _ = BENCH_SOLVERS[solver]
    reps = _repeats(n, smoke)
    problems = [_instance(solver, n, seed, rep) for rep in range(reps)]
    cost_total = 0.0
    with obs_counters.counting() as registry:
        t0 = time.perf_counter()
        for problem in problems:
            cost_total += runner(problem, n).cost
        wall = time.perf_counter() - t0
    return {
        "instances": reps,
        "wall_seconds": wall,
        "instances_per_sec": reps / wall if wall > 0 else float("inf"),
        "cost_total": f"{cost_total:.17g}",  # bit-exact cross-kernel check
        "counters": registry.snapshot(),
    }


def run_bench(
    *,
    seed: int = 0,
    out: Path | str = "BENCH_kernels.json",
    smoke: bool = False,
    solvers: list[str] | None = None,
    log=lambda line: None,
) -> tuple[Path, list[dict]]:
    """Run the full benchmark matrix and atomically write *out*.

    Returns ``(path, results)`` where *results* is the list of cell
    dicts (including skipped cells).
    """
    sizes = SMOKE_SIZES if smoke else SIZES
    names = list(solvers) if solvers else list(BENCH_SOLVERS)
    kernels = kernel_names()
    results: list[dict] = []
    for solver in names:
        _, cap, reason = BENCH_SOLVERS[solver]
        for kernel in kernels:
            measured: set[int] = set()
            for n in sizes:
                bench_n = min(n, cap) if cap is not None else n
                if bench_n != n:
                    # Explicit, not silent: the requested size is
                    # recorded as skipped and the cell re-pointed at the
                    # solver's cap (measured once per kernel).
                    results.append(
                        {
                            "solver": solver,
                            "n": n,
                            "kernel": kernel,
                            "skipped": True,
                            "capped_to": bench_n,
                            "reason": reason,
                        }
                    )
                if bench_n in measured:
                    continue
                measured.add(bench_n)
                log(f"bench: {solver} n={bench_n} kernel={kernel} ...")
                cell = {"solver": solver, "n": bench_n, "kernel": kernel}
                with use_kernel(kernel):
                    cell.update(_bench_cell(solver, bench_n, seed, smoke))
                if solver == "fptas":
                    cell["eps"] = _fptas_eps(bench_n)
                results.append(cell)
    payload = {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "smoke": smoke,
        "kernels": list(kernels),
        "sizes": list(sizes),
        "solvers": names,
        "python": sys.version.split()[0],
        "code": code_fingerprint(),
        "created": time.time(),
        "results": results,
    }
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(path, payload, indent=2)
    return path, results
