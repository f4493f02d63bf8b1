"""Task rejection on homogeneous partitioned multiprocessors.

The companion text places the rejection paper precisely here: with a
finite ``s_max``, even *deciding feasibility* of a frame task set on ``M``
processors is NP-complete, so overloaded systems must reject.  The
reconstruction's multiprocessor problem:

    choose accepted A and a partition of A over M identical processors
    with per-processor workload ≤ cap, minimising
    Σj g(Wj) + Σ_{i∉A} ρi.

Algorithms:

* :func:`ltf_reject`     — LTF partition with capacity (overflow tasks
  rejected), then a marginal-improvement pass that rejects any accepted
  task whose penalty is below the energy its processor saves.
* :func:`rand_reject`    — unsorted least-loaded first-fit (the RAND
  baseline), no improvement pass.
* :func:`global_greedy_reject` — LTF seed plus a *global* improvement
  loop picking the single best rejection anywhere in the system.
* :func:`exhaustive_multiproc` — optimal over all ``(M+1)^n``
  assignments (tiny instances; the oracle for Fig R7's normalisation at
  small n and for the property tests).  :func:`exhaustive_assignment`
  walks them depth-first, pruning a subtree at its first overloaded
  processor and evaluating ``g`` once per distinct load; the guard
  still counts the raw ``(M+1)^n``.
* :func:`pooled_lower_bound` — Jensen-pooled fractional relaxation, the
  scalable normaliser.

Identical processors are the one-curve case of a typed platform
(:mod:`repro.hetero.assign`): both problem classes expose per-core
``core_energy_fns`` / ``core_caps``, and both share this module's
improvement pass, enumeration walk and guard, and
:func:`partition_cost` (the one validator and pricer of a partition).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

try:  # NumPy is optional: it only appears in rng type annotations here.
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None  # annotations are strings (PEP 563); never evaluated

from repro._validation import capacity_limit, fits
from repro.core.rejection.problem import CostBreakdown
from repro.core.rejection.relaxation import fractional_lower_bound
from repro.energy.base import EnergyFunction
from repro.multiproc.partition import (
    Partition,
    greedy_partition,
    ltf_partition,
)
from repro.multiproc.pooled import PooledEnergyFunction
from repro.core.rejection.problem import RejectionProblem
from repro.tasks.model import FrameTaskSet

#: Enumeration guard for the exhaustive oracles, on the raw ``(C+1)^n``.
MAX_ENUM_ASSIGNMENTS = 3_000_000


def check_enumeration(cores: int, n: int) -> None:
    """Refuse an exhaustive walk over more than the guard's assignments."""
    count = (cores + 1) ** n
    if count > MAX_ENUM_ASSIGNMENTS:
        raise ValueError(
            f"{count} assignments exceed the enumeration guard "
            f"({MAX_ENUM_ASSIGNMENTS}); use the heuristics or shrink n"
        )


def partition_cost(problem, partition: Partition) -> CostBreakdown:
    """Validate *partition* on *problem*'s cores and price it.

    Valid means a disjoint cover of the task indices with one bucket per
    core, and every core's load within its capacity (the shared
    tolerance); anything else raises ``ValueError``.  The energy is
    ``Σ_c g_c(W_c)`` summed left to right in core order, and the
    penalty that of the unassigned (rejected) tasks.  *problem* is a
    :class:`MultiprocRejectionProblem` or a typed
    :class:`~repro.hetero.assign.HeteroRejectionProblem`.
    """
    partition.validate(problem.n)
    fns, caps = problem.core_energy_fns, problem.core_caps
    if partition.m != len(fns):
        raise ValueError(
            f"partition has {partition.m} cores, the problem has {len(fns)}"
        )
    loads = partition.loads([t.cycles for t in problem.tasks])
    for c, (load, cap) in enumerate(zip(loads, caps)):
        if not fits(load, cap):
            raise ValueError(f"core {c} overloaded: {load} > {cap}")
    energy = sum(fn.energy(load) for fn, load in zip(fns, loads))
    penalty = sum(problem.tasks[i].penalty for i in partition.unassigned)
    return CostBreakdown(energy=energy, penalty=penalty)


@dataclass(frozen=True)
class MultiprocRejectionProblem:
    """An M-processor rejection instance (identical processors).

    Attributes
    ----------
    tasks:
        Frame task set (cycles + penalties).
    energy_fn:
        Per-processor workload→energy function; its ``max_workload`` is
        the per-processor capacity.
    m:
        Number of processors.
    """

    tasks: FrameTaskSet
    energy_fn: EnergyFunction
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"need at least one processor, got m={self.m!r}")
        if len(self.tasks) == 0:
            raise ValueError("a rejection problem needs at least one task")

    @property
    def n(self) -> int:
        """Number of tasks."""
        return len(self.tasks)

    @property
    def capacity(self) -> float:
        """Per-processor capacity ``s_max · D``."""
        return self.energy_fn.max_workload

    @property
    def core_energy_fns(self) -> tuple[EnergyFunction, ...]:
        """Per-processor energy functions: ``energy_fn`` on every core."""
        return (self.energy_fn,) * self.m

    @property
    def core_caps(self) -> tuple[float, ...]:
        """Per-processor capacities: ``capacity`` on every core."""
        return (self.capacity,) * self.m

    def fits(self, load: float) -> bool:
        """True when *load* fits one processor (shared fp tolerance)."""
        return fits(load, self.capacity)

    def cost_of(self, partition: Partition) -> CostBreakdown:
        """Cost of a valid partition (see :func:`partition_cost`)."""
        return partition_cost(self, partition)

    def solution(
        self, partition: Partition, *, algorithm: str
    ) -> "MultiprocRejectionSolution":
        """Validate *partition* and wrap it with its cost."""
        return MultiprocRejectionSolution(
            problem=self,
            partition=partition,
            breakdown=self.cost_of(partition),
            algorithm=algorithm,
        )


@dataclass(frozen=True, eq=False)
class MultiprocRejectionSolution:
    """A validated partition + rejection decision with its cost."""

    problem: MultiprocRejectionProblem
    partition: Partition
    breakdown: CostBreakdown
    algorithm: str

    @property
    def cost(self) -> float:
        """Total cost ``energy + penalty``."""
        return self.breakdown.total

    @property
    def rejected(self) -> frozenset[int]:
        """Indices of rejected tasks."""
        return frozenset(self.partition.unassigned)

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of tasks accepted."""
        return 1.0 - len(self.partition.unassigned) / self.problem.n

    def loads(self) -> list[float]:
        """Per-core accepted workload (core order)."""
        return self.partition.loads([t.cycles for t in self.problem.tasks])


def _improvement_pass(
    tasks: FrameTaskSet,
    fns: Sequence[EnergyFunction],
    caps: Sequence[float],
    buckets: list[list[int]],
    rejected: list[int],
    *,
    single_best: bool,
) -> None:
    """Local search over reject / re-admit moves.

    Core ``j`` prices its moves on its own curve ``fns[j]`` with room
    ``caps[j]``; identical processors pass one curve and capacity per
    core.  A *reject* move drops an accepted task whose penalty is below
    the marginal energy its core saves; a *re-admit* move brings a
    rejected task back onto the least-marginal-cost core with room when
    its penalty exceeds the marginal energy there.  Re-admission
    matters: after heavy rejection the per-core loads (and hence marginal
    energies, convex in load) drop, and tasks rejected early can become
    profitable again — on a typed platform a task can also migrate HP→LP
    by being rejected in one sweep and re-admitted cheaper in the next.
    Every accepted move strictly decreases the total cost, so the loop
    terminates.

    ``single_best=True`` applies only the single best move per round (the
    global-greedy variant); otherwise every improving move in a sweep is
    taken.
    """
    sizes = [t.cycles for t in tasks]
    loads = [sum(sizes[i] for i in bucket) for bucket in buckets]
    # Strict-improvement local search terminates; the guard is belt and
    # braces against fp-jitter cycling.
    for _ in range(10 * len(tasks) + 10):
        # (delta, kind, processor, task); delta < 0 improves.
        best: tuple[float, str, int, int] | None = None
        improved_any = False
        # g_j(loads[j]) per core, kept current for the re-admit moves.
        bases: list[float] = []
        for j, bucket in enumerate(buckets):
            g = fns[j]
            base = g.energy(loads[j])
            for i in list(bucket):
                task = tasks[i]
                saving = base - g.energy(max(loads[j] - task.cycles, 0.0))
                delta = task.penalty - saving
                if delta < -1e-12:
                    if single_best:
                        if best is None or delta < best[0]:
                            best = (delta, "reject", j, i)
                    else:
                        bucket.remove(i)
                        rejected.append(i)
                        loads[j] = max(loads[j] - task.cycles, 0.0)
                        base = g.energy(loads[j])
                        improved_any = True
            bases.append(base)
        for i in list(rejected):
            task = tasks[i]
            target = None
            target_delta = 0.0
            for j, (g, cap) in enumerate(zip(fns, caps)):
                if not fits(loads[j] + task.cycles, cap):
                    continue
                marginal = g.energy(loads[j] + task.cycles) - bases[j]
                delta = marginal - task.penalty
                if delta < -1e-12 and (target is None or delta < target_delta):
                    target, target_delta = j, delta
            if target is None:
                continue
            if single_best:
                if best is None or target_delta < best[0]:
                    best = (target_delta, "admit", target, i)
            else:
                rejected.remove(i)
                buckets[target].append(i)
                loads[target] += task.cycles
                bases[target] = fns[target].energy(loads[target])
                improved_any = True
        if single_best:
            if best is None:
                break
            _, kind, j, i = best
            if kind == "reject":
                buckets[j].remove(i)
                rejected.append(i)
                loads[j] = max(loads[j] - sizes[i], 0.0)
            else:
                rejected.remove(i)
                buckets[j].append(i)
                loads[j] += sizes[i]
        elif not improved_any:
            break


def _finish(
    problem,
    buckets: list[list[int]],
    rejected: list[int],
    algorithm: str,
):
    """Validate and price (buckets, rejected) on either problem kind."""
    partition = Partition(
        assignments=tuple(tuple(b) for b in buckets),
        unassigned=tuple(sorted(rejected)),
    )
    return problem.solution(partition, algorithm=algorithm)


def ltf_reject(problem: MultiprocRejectionProblem) -> MultiprocRejectionSolution:
    """LTF with capacity, overflow rejected, per-processor improvement."""
    sizes = [t.cycles for t in problem.tasks]
    seed = ltf_partition(sizes, problem.m, capacity=problem.capacity)
    buckets = [list(b) for b in seed.assignments]
    rejected = list(seed.unassigned)
    _improvement_pass(
        problem.tasks,
        problem.core_energy_fns,
        problem.core_caps,
        buckets,
        rejected,
        single_best=False,
    )
    return _finish(problem, buckets, rejected, "ltf_reject")


def rand_reject(
    problem: MultiprocRejectionProblem,
    rng: np.random.Generator | None = None,
) -> MultiprocRejectionSolution:
    """Unsorted least-loaded admission (RAND), no energy awareness."""
    sizes = [t.cycles for t in problem.tasks]
    seed = greedy_partition(sizes, problem.m, capacity=problem.capacity, rng=rng)
    buckets = [list(b) for b in seed.assignments]
    rejected = list(seed.unassigned)
    return _finish(problem, buckets, rejected, "rand_reject")


def global_greedy_reject(
    problem: MultiprocRejectionProblem,
) -> MultiprocRejectionSolution:
    """LTF seed plus globally-best marginal rejection loop."""
    sizes = [t.cycles for t in problem.tasks]
    seed = ltf_partition(sizes, problem.m, capacity=problem.capacity)
    buckets = [list(b) for b in seed.assignments]
    rejected = list(seed.unassigned)
    _improvement_pass(
        problem.tasks,
        problem.core_energy_fns,
        problem.core_caps,
        buckets,
        rejected,
        single_best=True,
    )
    return _finish(problem, buckets, rejected, "global_greedy_reject")


def exhaustive_assignment(
    tasks: FrameTaskSet,
    fns: Sequence[EnergyFunction],
    caps: Sequence[float],
) -> tuple[list[list[int]], list[int]]:
    """The first optimum over all ``(C+1)^n`` choices, as (buckets, rejected).

    Choice 0 rejects a task and choice ``c`` puts it on core ``c-1``
    (curve ``fns[c-1]``, capacity ``caps[c-1]``); a choice costs
    ``penalty + sum(g_c(W_c))``.  A depth-first walk over tasks in index
    order, trying choices in code order, reaches the leaves in
    ``itertools.product`` order, so the strict ``<`` keeps the first
    minimum.  The running loads and penalty add the same floats in the
    same order as a per-leaf sum, a subtree is pruned at its first
    capacity violation, and each core's ``g`` is looked up in a memo
    per distinct (curve, load) when its load changes.  The guard
    (:func:`check_enumeration`) still counts the raw ``(C+1)^n``.
    """
    check_enumeration(len(fns), len(tasks))
    sizes = [t.cycles for t in tasks]
    penalties = [t.penalty for t in tasks]
    n, cores = len(sizes), range(len(fns))
    limits = [capacity_limit(cap) for cap in caps]
    by_fn: dict[EnergyFunction, dict[float, float]] = {fn: {} for fn in fns}
    memos = [by_fn[fn] for fn in fns]
    loads = [0.0] * len(fns)
    energies = [fn.energy(0.0) for fn in fns]
    choice = [0] * n
    best_cost = math.inf
    best: tuple[int, ...] | None = None

    def walk(i: int, penalty: float) -> None:
        nonlocal best_cost, best
        if i == n:
            cost = penalty + sum(energies)
            if cost < best_cost:
                best_cost, best = cost, tuple(choice)
            return
        choice[i] = 0
        walk(i + 1, penalty + penalties[i])
        for c in cores:
            before = loads[c]
            load = before + sizes[i]
            if load > limits[c]:
                continue
            energy = memos[c].get(load)
            if energy is None:
                energy = memos[c][load] = fns[c].energy(load)
            saved = energies[c]
            loads[c], energies[c] = load, energy
            choice[i] = c + 1
            walk(i + 1, penalty)
            loads[c], energies[c] = before, saved

    walk(0, 0.0)
    if best is None:  # pragma: no cover - all-reject always feasible
        raise AssertionError("no feasible assignment found")
    buckets: list[list[int]] = [[] for _ in fns]
    rejected: list[int] = []
    for i, c in enumerate(best):
        if c == 0:
            rejected.append(i)
        else:
            buckets[c - 1].append(i)
    return buckets, rejected


def exhaustive_multiproc(
    problem: MultiprocRejectionProblem,
) -> MultiprocRejectionSolution:
    """Optimal assignment over all ``(M+1)^n`` choices.

    Identical processors make most assignments symmetric, but the guard
    is on the raw count; use only for oracle-sized instances.  The walk
    is :func:`exhaustive_assignment`'s.
    """
    buckets, rejected = exhaustive_assignment(
        problem.tasks, problem.core_energy_fns, problem.core_caps
    )
    return _finish(problem, buckets, rejected, "exhaustive_multiproc")


def pooled_lower_bound(problem: MultiprocRejectionProblem) -> float:
    """Valid lower bound: fractional relaxation on the Jensen pool."""
    pooled = RejectionProblem(
        tasks=problem.tasks,
        energy_fn=PooledEnergyFunction(problem.energy_fn, problem.m),
    )
    return fractional_lower_bound(pooled)
