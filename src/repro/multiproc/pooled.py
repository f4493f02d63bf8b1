"""Partition energy evaluation and the pooled convex lower bound.

For identical processors with workload→energy function ``g``, a partition
with per-processor workloads ``W1..WM`` costs ``Σ g(Wj)``.  By convexity
(Jensen), ``Σ g(Wj) ≥ M · g(W/M)`` where ``W = Σ Wj`` — i.e. perfectly
balancing the load is a lower bound on any partition.  Wrapping that
bound as an :class:`repro.energy.EnergyFunction`
(:class:`PooledEnergyFunction`) lets the *uniprocessor* fractional
relaxation double as a valid multiprocessor lower bound, which is how
Fig R7 normalises the heuristics.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.energy.base import EnergyFunction, SpeedPlan
from repro.kernels import get_kernel
from repro.multiproc.partition import Partition


def partition_energy(
    partition: Partition,
    sizes: Sequence[float],
    energy_fn: EnergyFunction,
) -> float:
    """Total energy of a partition: ``Σj g(Wj)``.

    Raises ValueError (from the energy function) when any processor's
    load is infeasible.  The per-load energies come from the active
    array kernel's table op and are summed strictly left to right, so
    the result is bit-identical across kernels.
    """
    table = get_kernel().energy_table(energy_fn, partition.loads(sizes))
    return sum(float(e) for e in table)


class PooledEnergyFunction(EnergyFunction):
    """``g_M(W) = M · g(W / M)`` with capacity ``M · cap``.

    The energy of ``M`` identical processors sharing a perfectly balanced
    (hence fractional) workload — a pointwise lower bound on every
    integral partition of the same total workload.
    """

    def __init__(self, per_processor: EnergyFunction, m: int) -> None:
        if m < 1:
            raise ValueError(f"need at least one processor, got m={m!r}")
        super().__init__(per_processor.deadline)
        self._inner = per_processor
        self._m = int(m)
        self._fix_limit()

    @property
    def m(self) -> int:
        """Number of pooled processors."""
        return self._m

    @property
    def per_processor(self) -> EnergyFunction:
        """The single-processor energy function."""
        return self._inner

    @property
    def max_workload(self) -> float:
        """``M`` times the single-processor capacity."""
        return self._m * self._inner.max_workload

    @property
    def is_convex(self) -> bool:
        """Convex iff the per-processor function is."""
        return getattr(self._inner, "is_convex", True)

    def convex_lower_bound(self) -> "PooledEnergyFunction":
        """Pool the per-processor convex lower bound."""
        if self.is_convex:
            return self
        return PooledEnergyFunction(self._inner.convex_lower_bound(), self._m)

    def _energy(self, workload: float) -> float:
        """``M · g(W / M)``."""
        return self._m * self._inner.energy(workload / self._m)

    def plan(self, workload: float) -> SpeedPlan:
        """The per-processor plan for the balanced share ``W / M``."""
        workload = self._check_workload(workload)
        return self._inner.plan(workload / self._m)
