"""NumPy array kernel.

Vectorises the row/frontier/sweep primitives of the kernel interface
while reproducing the pure-python reference bit for bit (the contract in
:mod:`repro.kernels.base`):

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
    SHED_ATOL,
    FrontierStep,
    Kernel,
    energy_many,
    improves,
    suffix_shed_cost,
)


def _as_array(values: Sequence[float]) -> np.ndarray:
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return values
    return np.asarray(values, dtype=np.float64)


class NumpyKernel(Kernel):
    """NumPy-vectorised implementation of the kernel interface."""

    name = "numpy"

    # ------------------------------------------------------------------ #
    # Scoring and sweeps                                                 #
    # ------------------------------------------------------------------ #

    def fits_mask(self, loads: Sequence[float], capacity: float) -> np.ndarray:
        return _as_array(loads) <= capacity * (1 + CAPACITY_RTOL)

    def cumsum(self, values: Sequence[float]) -> np.ndarray:
        return np.add.accumulate(_as_array(values))

    def prefix_sums(self, values: Sequence[float]) -> np.ndarray:
        arr = _as_array(values)
        out = np.empty(len(arr) + 1)
        out[0] = 0.0
        np.add.accumulate(arr, out=out[1:])
        return out

    def density_order(
        self, cycles: Sequence[float], penalties: Sequence[float]
    ) -> list[int]:
        densities = _as_array(penalties) / _as_array(cycles)
        return [int(i) for i in np.argsort(densities, kind="stable")]

    def prefix_reject_count(
        self, cycles: Sequence[float], workload: float, capacity: float
    ) -> tuple[int, float]:
        bound = capacity * (1 + CAPACITY_RTOL)
        if workload <= bound:
            return 0, workload
        remaining = workload - self.cumsum(cycles)
        hits = np.flatnonzero(remaining <= bound)
        if len(hits) == 0:
            last = float(remaining[-1]) if len(remaining) else workload
            return len(cycles), last
        k = int(hits[0])
        return k + 1, float(remaining[k])

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
        if len(cycles) == 0:
            return -1
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
        costs = self.energy_table(energy_fn, clamped) + levels * price
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
    # Exhaustive enumeration and branch-and-bound                        #
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

    def bound_breakpoint_min(
        self,
        cum_c: Sequence[float],
        cum_p: Sequence[float],
        densities: Sequence[float],
        start: int,
        base_workload: float,
        base_penalty: float,
        w_hi: float,
        suffix_total: float,
        capacity: float,
        energy_fn,
    ) -> float:
        cc = _as_array(cum_c)
        cp = _as_array(cum_p)
        dens = _as_array(densities)
        n = len(dens)
        offset = cc[start]
        w = suffix_total - (cc[start:] - offset)
        ok = (w >= 0.0) & (w <= w_hi + 1e-12)
        if not ok.any():  # pragma: no cover - k = n always yields w = 0
            return np.inf
        wc = np.minimum(w[ok], w_hi)
        rejected = suffix_total - wc
        # Vectorised suffix_shed_cost (same arithmetic, elementwise).
        shed = np.zeros(len(rejected))
        positive = rejected > 0.0
        if positive.any():
            rej = rejected[positive]
            target = (rej - SHED_ATOL) + offset
            j = np.maximum(np.searchsorted(cc, target, side="left"), start + 1)
            full = j > n
            k = np.minimum(j, n) - 1
            partial = (cp[k] - cp[start]) + (rej - (cc[k] - offset)) * dens[k]
            shed[positive] = np.where(full, cp[n] - cp[start], partial)
        energies = self.energy_table(
            energy_fn, np.minimum(base_workload + wc, capacity)
        )
        return float(np.min(base_penalty + energies + shed))


# Re-exported for symmetry with the reference backend's helpers.
__all__ = ["NumpyKernel", "improves", "suffix_shed_cost"]
