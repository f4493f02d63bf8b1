"""The offline path: solver calls in-process, and experiment runs
through the parallel runner.

``solve`` is one caller solving REJECT-MIN instances back to back on
the default array kernel: ``solver -> kernel op``.  ``runner`` is
``repro run <experiment> --quick --jobs 2 --no-cache``, one experiment
at a time: ``runner -> process pool -> trials -> solver -> kernel op``.
Experiments keep their built-in seeds, as ``repro run`` does by default,
so ``--seed`` only orders them: some other seeds make experiments fail
(``repro run fig_r12 --quick --seed 902043140`` trips a YDS window
assertion), and a workload must not fail.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from repro.core import rejection
from repro.io import instance_to_dict
from repro.experiments import ALL_EXPERIMENTS
from repro.kernels import get_kernel, use_kernel
from repro.obs import counters as obs_counters
from repro.runner import run_experiment, shutdown_pools
from repro.runner.pool import get_executor
from repro.verify.invariants import check_solution

import inputs
import layers
from common import Outcome

#: Distinct instances per run; a run cycles through them, so the second
#: and later passes double as a determinism check.
SOLVE_OPS = 400

#: Solves re-run on the pure-python kernel after the timed loop: the
#: kernels promise bit-identical costs.
KERNEL_CROSSCHECKS = 16

#: Worker processes of the runner's pool (``repro run --jobs``).
RUNNER_JOBS = 2

#: Experiment runs prepared per run; more than any run completes.
RUNNER_OPS = 2_000

#: Runs re-executed serially after the timed loop: a table must not
#: depend on ``--jobs``.
RUNNER_CROSSCHECKS = 3

#: Tables whose runtime columns legitimately differ between runs.
_TIMED_TABLES = frozenset({"tab_r1", "tab_r3", "tab_r4"})


#: A cold start of the offline path in a fresh interpreter: import the
#: solver stack, resolve the kernel, load one instance per solver from
#: JSON on stdin and solve it (what ``repro solve`` does per call).
_COLD_START = """
import json, sys
from repro.core import rejection
from repro.io import instance_from_dict
from repro.kernels import get_kernel
get_kernel()
for op in json.load(sys.stdin):
    getattr(rejection, op["algorithm"])(
        instance_from_dict(op["instance"]), **op["kwargs"]
    )
"""


class SolveWorkload:
    """Back-to-back in-process solves over a fixed seeded instance set."""

    #: Solves run in this process (and set-up in one fresh one).
    every_cpu = False

    def __init__(self, seed: int, src: Path) -> None:
        self.src = src
        self.ops = inputs.solve_ops(seed, SOLVE_OPS)
        self.costs: dict[int, float] = {}
        self.solutions: dict[int, object] = {}
        first = {}
        for algorithm, problem, kwargs in self.ops:
            first.setdefault(algorithm, (problem, kwargs))
        for algorithm, (problem, kwargs) in first.items():
            getattr(rejection, algorithm)(problem, **kwargs)  # warm in-process
        self.cold_ops = json.dumps(
            [
                {
                    "algorithm": algorithm,
                    "instance": instance_to_dict(problem),
                    "kwargs": kwargs,
                }
                for algorithm, (problem, kwargs) in first.items()
            ]
        )

    def setup(self) -> None:
        """One cold start of the solver stack in a fresh interpreter."""
        subprocess.run(
            [sys.executable, "-c", _COLD_START],
            input=self.cold_ops,
            text=True,
            check=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(self.src)},
        )

    def close(self) -> None:
        """Nothing to release: the solves hold no resources."""

    shutdown = close

    def measure(self, seconds: float, trace: bool) -> Outcome:
        solvers = {name: getattr(rejection, name) for name, *_ in inputs.SOLVE_MIX}
        timer = layers.KernelTimer(get_kernel()) if trace else None
        registry = obs_counters.Counters() if trace else None
        outcome = Outcome(every_cpu=self.every_cpu)
        deadline = outcome.start + seconds
        index = 0
        with (timer if trace else nullcontext()), (
            obs_counters.counting(registry) if trace else nullcontext()
        ):
            while True:
                if outcome.probe_due():
                    outcome.sample_speed()
                slot = index % len(self.ops)
                algorithm, problem, kwargs = self.ops[slot]
                t0 = time.perf_counter()
                solution = solvers[algorithm](problem, **kwargs)
                t1 = time.perf_counter()
                outcome.record(t0, t1, slot)
                if slot in self.costs:
                    if solution.cost != self.costs[slot]:
                        outcome.problems.append(f"op {slot}: cost changed on re-solve")
                else:
                    self.costs[slot] = solution.cost
                    self.solutions[slot] = solution
                index += 1
                if t1 >= deadline:
                    break
        outcome.finish()
        if trace:
            ops = len(outcome.latencies)
            metrics = {}
            metrics["solve_ms"] = 1e3 * sum(outcome.latencies) / ops
            metrics["kernel_ms"] = 1e3 * timer.seconds / ops
            metrics["kernel_calls"] = timer.calls / ops
            metrics.update(layers.counter_metrics(registry.snapshot(), ops))
            outcome.layers = metrics
        return outcome

    def check(self) -> list[str]:
        """Invariants on every distinct solution, plus a kernel cross-check."""
        problems = []
        for slot, solution in self.solutions.items():
            if isinstance(solution, rejection.RejectionSolution):
                problems.extend(
                    f"op {slot}: {v.invariant}: {v.message}"
                    for v in check_solution(solution)
                )
        solved = sorted(self.solutions)
        step = max(len(solved) // KERNEL_CROSSCHECKS, 1)
        with use_kernel("python"):
            for slot in solved[::step]:
                algorithm, problem, kwargs = self.ops[slot]
                cost = getattr(rejection, algorithm)(problem, **kwargs).cost
                if cost != self.costs[slot]:
                    problems.append(
                        f"op {slot} ({algorithm}): python kernel cost {cost!r} "
                        f"!= {self.costs[slot]!r}"
                    )
        return problems


class RunnerWorkload:
    """Quick-scale experiment runs through the runner and its pool."""

    #: Trials run in the pool's worker processes.
    every_cpu = True

    def __init__(self, seed: int) -> None:
        self.runs = inputs.experiment_order(seed, list(ALL_EXPERIMENTS), RUNNER_OPS)
        self.tables: list[tuple[str, object]] = []

    def setup(self) -> None:
        """Start the pool and run one fixed experiment through it."""
        get_executor(RUNNER_JOBS)
        run_experiment("fig_r1", quick=True, jobs=RUNNER_JOBS, use_cache=False)

    def close(self) -> None:
        shutdown_pools()

    shutdown = close

    def measure(self, seconds: float, trace: bool) -> Outcome:
        trials = 0
        trial_seconds = 0.0
        counters: dict[str, float] = {}
        outcome = Outcome(every_cpu=self.every_cpu)
        deadline = outcome.start + seconds
        order = sorted(ALL_EXPERIMENTS)
        for name in self.runs:
            if outcome.probe_due():
                outcome.sample_speed()
            t0 = time.perf_counter()
            table, metrics = run_experiment(
                name, quick=True, jobs=RUNNER_JOBS, use_cache=False
            )
            t1 = time.perf_counter()
            outcome.record(t0, t1, order.index(name))
            self.tables.append((name, table))
            trials += metrics.trials
            trial_seconds += metrics.trial_total_seconds
            for key, value in metrics.counters.items():
                counters[key] = counters.get(key, 0) + value
            if t1 >= deadline:
                break
        outcome.finish()
        if trace:
            runs = len(outcome.latencies)
            metrics = {}
            metrics["trial_ms"] = 1e3 * trial_seconds / max(trials, 1)
            metrics["pool_efficiency"] = trial_seconds / (
                sum(outcome.latencies) * RUNNER_JOBS
            )
            metrics.update(layers.counter_metrics(counters, runs))
            outcome.layers = metrics
        return outcome

    def check(self) -> list[str]:
        """Every table has rows; sampled tables equal a serial re-run."""
        problems = [f"{name}: empty table" for name, table in self.tables if not table.rows]
        untimed = [item for item in self.tables if item[0] not in _TIMED_TABLES]
        for name, table in untimed[:RUNNER_CROSSCHECKS]:
            serial, _ = run_experiment(name, quick=True, jobs=1, use_cache=False)
            if serial.rows != table.rows:
                problems.append(f"{name}: --jobs 2 table != --jobs 1")
        return problems

