"""Typed task-to-core assignment with rejection on heterogeneous platforms.

The heterogeneous REJECT-MIN instance: choose accepted ``A`` and an
assignment of ``A`` to the platform's cores (each core ``c`` of type
``τ(c)`` with its own convex ``g_τ`` and capacity ``cap_τ``), minimising

    Σ_c g_{τ(c)}(W_c) + Σ_{i∉A} ρ_i.

Algorithms (mirroring the homogeneous roster in
:mod:`repro.core.rejection.multiproc`):

* :func:`typed_ltf_reject` — the *partitioned* heuristic: LTF order,
  each task to the feasible core with the smallest marginal energy,
  then the reject/re-admit improvement pass ``ltf_reject`` runs, fed
  each core's own curve and capacity.
* :func:`typed_global_reject` — the *global* heuristic: tasks are first
  routed to a core **type** by marginal pooled (fluid) energy — the
  decision a global scheduler would make — then realised as a
  partitioned LTF packing inside each type, with overflow rejected.
* :func:`exhaustive_hetero` — optimal over all ``(C+1)^n`` per-core
  assignments (oracle-sized instances only), walked depth-first with
  overloaded subtrees pruned and ``g`` evaluated once per distinct
  (type, load); the guard still counts the raw ``(C+1)^n``.
* :func:`hetero_pooled_lower_bound` — fractional relaxation over the
  inf-convolution of the per-type Jensen pools: a valid lower bound
  that also optimises the LP/HP workload split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from repro._validation import fits
from repro.core.rejection.multiproc import (
    MAX_ENUM_ASSIGNMENTS,
    MultiprocRejectionSolution,
    _finish,
    _improvement_pass,
    exhaustive_assignment,
    partition_cost,
)
from repro.core.rejection.problem import (
    CostBreakdown,
    RejectionProblem,
    task_columns,
)
from repro.core.rejection.relaxation import (
    closed_conjugate,
    dual_crossing,
    fractional_lower_bound,
)
from repro.energy.base import EnergyFunction, SpeedPlan
from repro.hetero.mk import MKSpec
from repro.hetero.platform import Platform
from repro.multiproc.partition import Partition, ltf_partition
from repro.multiproc.pooled import PooledEnergyFunction
from repro.tasks.model import FrameTaskSet

__all__ = [
    "MAX_ENUM_ASSIGNMENTS",
    "HeteroRejectionProblem",
    "HeteroRejectionSolution",
    "exhaustive_hetero",
    "hetero_pooled_lower_bound",
    "typed_global_reject",
    "typed_ltf_reject",
]


@dataclass(frozen=True)
class HeteroRejectionProblem:
    """A heterogeneous-platform rejection instance.

    Solutions reuse :class:`repro.multiproc.partition.Partition` over the
    platform's *flattened* core list (type order, then index within the
    type), so the homogeneous validation/shrinking machinery applies
    unchanged.

    Attributes
    ----------
    tasks:
        Frame task set (cycles + penalties).
    platform:
        The typed core set; per-type curves and the shared deadline.
    mk:
        Optional (m,k)-firm spec carried by the instance for the online
        layers (`repro sim` / `repro serve`); the offline assignment
        solvers do not constrain on it.
    cycles, penalties:
        The task columns the partitioned code path reads (see
        :class:`~repro.core.rejection.multiproc.MultiprocRejectionProblem`);
        they take no part in ``==``, ``hash`` or ``repr``.
    """

    tasks: FrameTaskSet
    platform: Platform
    mk: MKSpec | None = None
    cycles: tuple = field(init=False, repr=False, compare=False)
    penalties: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.tasks) == 0:
            raise ValueError("a rejection problem needs at least one task")
        cycles, penalties = task_columns(self.tasks)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "penalties", penalties)

    @property
    def n(self) -> int:
        """Number of tasks."""
        return len(self.tasks)

    @property
    def m(self) -> int:
        """Number of cores (flattened over types)."""
        return self.platform.total_cores

    @cached_property
    def _type_fns(self) -> tuple[EnergyFunction, ...]:
        return self.platform.energy_functions()

    @cached_property
    def core_types(self) -> tuple[int, ...]:
        """``core_types[c]`` = type index of flattened core ``c``."""
        return self.platform.core_type_indices()

    @cached_property
    def core_energy_fns(self) -> tuple[EnergyFunction, ...]:
        """Per-flattened-core energy functions."""
        return tuple(self._type_fns[t] for t in self.core_types)

    @cached_property
    def core_caps(self) -> tuple[float, ...]:
        """Per-flattened-core capacities ``s_max,τ · D``."""
        return tuple(fn.max_workload for fn in self.core_energy_fns)

    def fits(self, core: int, load: float) -> bool:
        """True when *load* fits flattened core *core*."""
        return fits(load, self.core_caps[core])

    def cost_of(self, partition: Partition) -> CostBreakdown:
        """Cost of a valid partition (see :func:`partition_cost`)."""
        return partition_cost(self, partition)

    def solution(
        self, partition: Partition, *, algorithm: str
    ) -> "HeteroRejectionSolution":
        """Validate *partition* against per-core capacities and wrap it."""
        return HeteroRejectionSolution(
            problem=self,
            partition=partition,
            breakdown=self.cost_of(partition),
            algorithm=algorithm,
        )


@dataclass(frozen=True, eq=False)
class HeteroRejectionSolution(MultiprocRejectionSolution):
    """A validated typed partition + rejection decision with its cost.

    ``cost``, ``rejected``, ``acceptance_ratio`` and ``loads()`` (in
    flattened core order) are the homogeneous solution's.
    """

    problem: HeteroRejectionProblem


def typed_ltf_reject(problem: HeteroRejectionProblem) -> HeteroRejectionSolution:
    """Partitioned heuristic: LTF to min-marginal feasible core + local search.

    Tasks in LTF order (cycles descending, index-stable) each go to the
    feasible core with the smallest marginal energy (ties: lowest core
    index, so the spec's type order breaks ties deterministically); tasks
    fitting nowhere are rejected.  The shared improvement pass of
    :func:`~repro.core.rejection.multiproc.ltf_reject`, fed each core's
    own curve and capacity, then prices every accept against its penalty.
    """
    sizes = problem.cycles
    fns = problem.core_energy_fns
    caps = problem.core_caps
    order = sorted(range(problem.n), key=lambda i: sizes[i], reverse=True)
    buckets: list[list[int]] = [[] for _ in range(problem.m)]
    loads = [0.0] * problem.m
    rejected: list[int] = []
    for i in order:
        best_core = None
        best_marginal = math.inf
        for c in range(problem.m):
            if not fits(loads[c] + sizes[i], caps[c]):
                continue
            marginal = fns[c].energy(loads[c] + sizes[i]) - fns[c].energy(loads[c])
            if marginal < best_marginal - 1e-15:
                best_core, best_marginal = c, marginal
        if best_core is None:
            rejected.append(i)
        else:
            buckets[best_core].append(i)
            loads[best_core] += sizes[i]
    _improvement_pass(
        sizes, problem.penalties, fns, caps, buckets, rejected, single_best=False
    )
    return _finish(problem, buckets, rejected, "typed_ltf")


def typed_global_reject(problem: HeteroRejectionProblem) -> HeteroRejectionSolution:
    """Global heuristic: pooled type routing, partitioned realisation.

    Stage 1 (*global* decision): tasks in LTF order are routed to a core
    **type** — or rejected — by marginal energy on that type's Jensen
    pool (``m_τ`` cores sharing load fluidly), the price a global
    scheduler that migrates jobs freely would see.  A task is rejected
    when its penalty is below the cheapest pooled marginal.

    Stage 2 (*partitioned* realisation): within each type the routed
    tasks are LTF-packed onto the type's real cores; tasks the fluid
    pool accepted but no integral core can host overflow to rejected.
    The reported cost is always the partitioned one, so the solution is
    a genuine upper bound; the gap to stage 1's fluid view is exactly
    the global-vs-partitioned price Nélis et al. study.
    """
    sizes = problem.cycles
    type_fns = problem.platform.energy_functions()
    pools: list[PooledEnergyFunction | None] = []
    for core_type, fn in zip(problem.platform.core_types, type_fns):
        pools.append(
            PooledEnergyFunction(fn, core_type.count) if core_type.count else None
        )
    per_core_caps = problem.platform.capacities()
    pool_loads = [0.0] * len(pools)
    routed: list[list[int]] = [[] for _ in pools]
    rejected: list[int] = []
    order = sorted(range(problem.n), key=lambda i: sizes[i], reverse=True)
    for i in order:
        best_type = None
        best_marginal = math.inf
        for t, pool in enumerate(pools):
            if pool is None:
                continue
            # A task longer than the type's per-core capacity can never be
            # realised there, however much fluid headroom the pool has.
            if not fits(sizes[i], per_core_caps[t]):
                continue
            if not fits(pool_loads[t] + sizes[i], pool.max_workload):
                continue
            marginal = pool.energy(pool_loads[t] + sizes[i]) - pool.energy(
                pool_loads[t]
            )
            if marginal < best_marginal - 1e-15:
                best_type, best_marginal = t, marginal
        if best_type is None or best_marginal >= problem.penalties[i]:
            rejected.append(i)
        else:
            routed[best_type].append(i)
            pool_loads[best_type] += sizes[i]
    # Partitioned realisation: LTF-pack each type's routed tasks.
    buckets: list[list[int]] = []
    for t, core_type in enumerate(problem.platform.core_types):
        if core_type.count == 0:
            continue
        local_sizes = [sizes[i] for i in routed[t]]
        packed = ltf_partition(
            local_sizes, core_type.count, capacity=per_core_caps[t]
        )
        for bucket in packed.assignments:
            buckets.append([routed[t][r] for r in bucket])
        rejected.extend(routed[t][r] for r in packed.unassigned)
    return _finish(problem, buckets, rejected, "typed_global")


def exhaustive_hetero(problem: HeteroRejectionProblem) -> HeteroRejectionSolution:
    """Optimal assignment over all ``(C+1)^n`` choices.

    ``C`` is the flattened core count; choice 0 rejects a task, choice
    ``c`` places it on core ``c-1``.  The depth-first walk of
    :func:`~repro.core.rejection.multiproc.exhaustive_assignment` keeps
    the first minimum in ``itertools.product`` order, making the oracle
    deterministic, and evaluates each type's ``g`` once per distinct
    load.  The guard still counts the raw ``(C+1)^n``.
    """
    buckets, rejected = exhaustive_assignment(
        problem.cycles, problem.penalties, problem.core_energy_fns, problem.core_caps
    )
    return _finish(problem, buckets, rejected, "exhaustive_hetero")


class InfConvolution(EnergyFunction):
    """Inf-convolution of two convex pools: the optimal fluid LP/HP split.

    ``g(W) = min_x  A(x) + B(W - x)`` over the feasible split — convex
    because the inf-convolution of convex functions is convex, and a
    pointwise lower bound on any typed partition of ``W`` total cycles
    (each pool is already a Jensen lower bound for its type).  Folding
    left-associatively extends it to any number of types.

    Its conjugate is ``A* + B*`` (both pools need a closed form), and
    ``g(W) = max_λ λW − A*(λ) − B*(λ)`` is one λ search.  This is a
    *bound*, not a schedule: :meth:`plan` is unsupported.
    """

    def __init__(self, pool_a: EnergyFunction, pool_b: EnergyFunction) -> None:
        if pool_a.deadline != pool_b.deadline:
            raise ValueError(
                f"pools disagree on the deadline: "
                f"{pool_a.deadline!r} vs {pool_b.deadline!r}"
            )
        if closed_conjugate(pool_a) is None or closed_conjugate(pool_b) is None:
            raise ValueError("both pools need a closed-form conjugate")
        super().__init__(pool_a.deadline)
        self._a = pool_a
        self._b = pool_b
        self._fix_limit()

    @property
    def max_workload(self) -> float:
        """Sum of the pooled capacities."""
        return self._a.max_workload + self._b.max_workload

    @property
    def is_convex(self) -> bool:
        """True: inf-convolution preserves convexity."""
        return True

    def conjugate(self, lam: float) -> tuple[float, float]:
        """``A*(λ) + B*(λ)``, at the sum of the pools' workloads."""
        star_a, w_a = self._a.conjugate(lam)
        star_b, w_b = self._b.conjugate(lam)
        return star_a + star_b, w_a + w_b

    def _energy(self, workload: float) -> float:
        """``max_λ λW − g*(λ)``, capped at the capacity."""
        workload = min(workload, self.max_workload)
        hi = 1.0
        while self.conjugate(hi)[1] < workload:
            hi *= 2.0
        return dual_crossing(self.conjugate, workload, 0.0, hi)

    def plan(self, workload: float) -> SpeedPlan:
        raise NotImplementedError(
            "InfConvolution is a lower bound, not a schedulable "
            "energy model; it has no speed plan"
        )


def hetero_pooled_lower_bound(problem: HeteroRejectionProblem) -> float:
    """Valid lower bound: fractional relaxation on the optimal fluid split.

    Per type, ``m_τ`` cores pool into ``m_τ · g_τ(W/m_τ)`` (Jensen);
    types combine by inf-convolution, so the relaxation also optimises
    how the fractional workload splits across LP and HP silicon.
    """
    type_fns = problem.platform.energy_functions()
    pools: list[EnergyFunction] = [
        PooledEnergyFunction(fn, core_type.count)
        for core_type, fn in zip(problem.platform.core_types, type_fns)
        if core_type.count
    ]
    if not pools:  # pragma: no cover - Platform guarantees >= 1 core
        raise ValueError("platform has no cores")
    combined = pools[0]
    for pool in pools[1:]:
        combined = InfConvolution(combined, pool)
    relaxed = RejectionProblem(tasks=problem.tasks, energy_fn=combined)
    return fractional_lower_bound(relaxed)
