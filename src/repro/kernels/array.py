"""NumPy array kernel: the reference kernel plus the overrides that pay.

NumPy's per-call overhead exceeds a short python loop, so
:class:`NumpyKernel` inherits :class:`~repro.kernels.pyref.PythonKernel`
and overrides only what the crossover sweep in ``docs/kernels.md``
("Where numpy pays") shows faster.  Sequence-returning ops are
vectorised at every size, so callers always get an ``ndarray``;
``marginal_best`` runs the inherited loop below :data:`VECTOR_MIN_LEN`
candidates.  Every override reproduces the
reference bit for bit (the contract in :mod:`repro.kernels.base`):

* reductions use ``np.add.accumulate`` / elementwise float64 ops, which
  round exactly like the reference's left-to-right loops;
* stable sorts (``np.lexsort`` / ``kind="stable"``) replicate the
  reference's tie-breaking;
* energy tables go through ``energy_fn.energy_many`` on ``.tolist()``
  floats, never ``np.float64`` (NumPy's elementwise ``**`` is not
  bit-equal to CPython's).

This module must only be imported via :func:`repro.kernels.get_kernel`,
which guards on NumPy availability.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro._validation import CAPACITY_RTOL
from repro.kernels.base import (
    IMPROVE_RTOL,
    FrontierStep,
    energy_many,
    staircase_applies,
)
from repro.kernels.pyref import PythonKernel

#: ``marginal_best`` runs the inherited reference loop on fewer
#: candidates than this: below it numpy's per-call overhead costs more
#: than the loop it replaces.  The op receives plain Python floats, so
#: both branches return the same bits.
VECTOR_MIN_LEN = 24


def _as_array(values: Sequence[float]) -> np.ndarray:
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return values
    return np.asarray(values, dtype=np.float64)


class NumpyKernel(PythonKernel):
    """The reference kernel with NumPy-vectorised ops where they pay."""

    name = "numpy"

    # ------------------------------------------------------------------ #
    # Scoring and sweeps                                                 #
    # ------------------------------------------------------------------ #

    def fits_mask(self, loads: Sequence[float], capacity: float) -> np.ndarray:
        return _as_array(loads) <= capacity * (1 + CAPACITY_RTOL)

    def cumsum(self, values: Sequence[float]) -> np.ndarray:
        return np.add.accumulate(_as_array(values))

    def energy_table(
        self, energy_fn, workloads: Sequence[float]
    ) -> np.ndarray:
        # Scalar CPython arithmetic on plain floats, on purpose: numpy's
        # ``**`` is not bit-equal to CPython's (see repro.kernels.base).
        return np.array(energy_many(energy_fn, _as_array(workloads).tolist()))

    # ------------------------------------------------------------------ #
    # Greedy family                                                      #
    # ------------------------------------------------------------------ #

    def marginal_best(
        self,
        workload: float,
        cycles: Sequence[float],
        penalties: Sequence[float],
        energy_fn,
    ) -> int:
        if len(cycles) < VECTOR_MIN_LEN:
            return super().marginal_best(workload, cycles, penalties, energy_fn)
        current = energy_fn.energy(workload)
        shrunk = np.maximum(workload - _as_array(cycles), 0.0)
        savings = current - self.energy_table(energy_fn, shrunk)
        pen = _as_array(penalties)
        deltas = pen - savings
        improving = (savings - pen) > IMPROVE_RTOL * np.maximum.reduce(
            [np.abs(savings), np.abs(pen), np.ones_like(pen)]
        )
        if not improving.any():
            return -1
        masked = np.where(improving, deltas, np.inf)
        return int(np.argmin(masked))

    # ------------------------------------------------------------------ #
    # Dynamic programs                                                   #
    # ------------------------------------------------------------------ #

    def dp_init(self, size: int, fill: float) -> np.ndarray:
        row = np.full(size, fill)
        row[0] = 0.0
        return row

    def dp_relax_min(
        self, row: Sequence[float], shift: int, addend: float
    ) -> tuple[np.ndarray, np.ndarray]:
        arr = _as_array(row)
        reject = arr + addend
        accept = np.full_like(arr, np.inf)
        if shift <= len(arr):
            accept[shift:] = arr[: len(arr) - shift]
        take = accept < reject
        return np.where(take, accept, reject), take

    def dp_relax_max(
        self, row: Sequence[float], shift: int, addend: float
    ) -> tuple[np.ndarray, np.ndarray]:
        arr = _as_array(row)
        reject = np.full_like(arr, -np.inf)
        if shift <= len(arr):
            reject[shift:] = arr[: len(arr) - shift] + addend
        take = reject > arr
        return np.where(take, reject, arr), take

    def best_workload_level(
        self, row: Sequence[float], quantum: float, capacity: float, energy_fn
    ) -> tuple[int, float]:
        arr = _as_array(row)
        finite = np.isfinite(arr)
        if not finite.any():
            return -1, np.inf
        levels = np.flatnonzero(finite)
        workloads = np.minimum(levels * quantum, capacity)
        costs = self.energy_table(energy_fn, workloads) + arr[levels]
        best = int(np.argmin(costs))
        return int(levels[best]), float(costs[best])

    def best_penalty_level(
        self,
        row: Sequence[float],
        total: float,
        capacity: float,
        energy_fn,
        price: float,
    ) -> tuple[int, float]:
        arr = _as_array(row)
        workloads = total - arr
        feasible = np.isfinite(arr) & (
            workloads <= capacity * (1 + CAPACITY_RTOL)
        )
        if not feasible.any():
            return -1, np.inf
        levels = np.flatnonzero(feasible)
        clamped = np.minimum(np.maximum(workloads[levels], 0.0), capacity)
        # Price the staircase (levels shedding more than every earlier
        # one); its first energy, g(W_max), decides the guard.
        shed = arr[levels]
        stair = np.empty(len(levels), dtype=bool)
        stair[0] = True
        np.greater(shed[1:], np.maximum.accumulate(shed[:-1]), out=stair[1:])
        energies = self.energy_table(energy_fn, clamped[stair])
        if staircase_applies(price, energies[0]):
            levels = levels[stair]
        else:
            energies = self.energy_table(energy_fn, clamped)
        costs = energies + levels * price
        best = int(np.argmin(costs))
        return int(levels[best]), float(costs[best])

    # ------------------------------------------------------------------ #
    # Pareto frontier                                                    #
    # ------------------------------------------------------------------ #

    def frontier_step(
        self,
        workloads: Sequence[float],
        penalties: Sequence[float],
        cycles: float,
        penalty: float,
        capacity: float,
    ) -> FrontierStep:
        w = _as_array(workloads)
        p = _as_array(penalties)
        grown = w + cycles
        ok = grown <= capacity * (1 + CAPACITY_RTOL)
        src_all = np.arange(len(w))
        # Reject candidates first, then the surviving accept candidates:
        # the stable lexsort keeps that order on full (w, p) ties, which
        # is exactly the reference merge's reject-branch preference.
        cand_w = np.concatenate([w, grown[ok]])
        cand_p = np.concatenate([p + penalty, p[ok]])
        cand_src = np.concatenate([src_all, src_all[ok]])
        cand_acc = np.concatenate(
            [np.zeros(len(w), dtype=bool), np.ones(int(ok.sum()), dtype=bool)]
        )
        order = np.lexsort((cand_p, cand_w))
        sp = cand_p[order]
        # A candidate survives iff its penalty is strictly below every
        # earlier survivor's; since survivors' penalties are strictly
        # decreasing, "every earlier survivor" == the running prefix min.
        keep = np.empty(len(sp), dtype=bool)
        if len(sp):
            keep[0] = True
            np.less(sp[1:], np.minimum.accumulate(sp)[:-1], out=keep[1:])
        kept = order[keep]
        return FrontierStep(
            workloads=cand_w[kept],
            penalties=cand_p[kept],
            sources=cand_src[kept],
            accepted=cand_acc[kept],
            candidates=len(cand_w),
        )

    def frontier_best(
        self,
        workloads: Sequence[float],
        penalties: Sequence[float],
        capacity: float,
        energy_fn,
    ) -> tuple[int, float]:
        w = np.minimum(_as_array(workloads), capacity)
        costs = self.energy_table(energy_fn, w) + _as_array(penalties)
        if len(costs) == 0:
            return -1, np.inf
        best = int(np.argmin(costs))
        return best, float(costs[best])

    # ------------------------------------------------------------------ #
    # Exhaustive enumeration                                             #
    # ------------------------------------------------------------------ #

    def subset_sums(self, values: Sequence[float]) -> np.ndarray:
        out = np.zeros(1 << len(values))
        for i, v in enumerate(values):
            bit = 1 << i
            out[bit : bit << 1] = out[:bit] + v
        return out

    def exhaustive_best(
        self,
        workloads: Sequence[float],
        accepted_penalties: Sequence[float],
        total_penalty: float,
        capacity: float,
        energy_fn,
    ) -> tuple[int, float]:
        w = _as_array(workloads)
        feasible = w <= capacity * (1 + CAPACITY_RTOL)
        if not feasible.any():
            return -1, np.inf
        masks = np.flatnonzero(feasible)
        clamped = np.minimum(w[masks], capacity)
        costs = self.energy_table(energy_fn, clamped) + (
            total_penalty - _as_array(accepted_penalties)[masks]
        )
        best = int(np.argmin(costs))
        return int(masks[best]), float(costs[best])


__all__ = ["NumpyKernel"]
