"""NumPy array kernel: the reference kernel plus the overrides that pay.

NumPy's per-call overhead exceeds a short python loop, so
:class:`NumpyKernel` inherits :class:`~repro.kernels.pyref.PythonKernel`
and overrides only what the crossover sweep in ``docs/kernels.md``
("Where numpy pays") shows faster.  Sequence-returning ops return an
``ndarray``, except that ``frontier_sweep`` runs the inherited list
step (so keeps lists) while the frontier holds fewer than
:data:`FRONTIER_VECTOR_MIN_LEN` states; ``marginal_best`` runs the
inherited loop below :data:`VECTOR_MIN_LEN` candidates, and
``energy_table`` the flat loop below :data:`ENERGY_VECTOR_MIN_LEN`
workloads.  Every override reproduces the reference bit for bit (the
contract in :mod:`repro.kernels.base`):

* elementwise float64 ops and running ``np.minimum``/``np.maximum``
  accumulations round exactly like the reference's loops, and the DP
  sweeps' elementwise ``np.minimum``/``np.maximum`` never meet a -0.0
  or NaN, so they pick the reference's term;
* stable sorts (``kind="stable"``, and ``np.lexsort`` on tied keys)
  replicate the reference's tie-breaking;
* energy tables on the stock continuous curve are float64 array ops in
  its flat loop's order, except the pow, which is ``math.pow`` per
  element (``np.power`` is not bit-equal to CPython's ``**`` on every
  SIMD target); other curves go through ``energy_fn.energy_many`` on
  ``.tolist()`` floats, never ``np.float64``.

This module must only be imported via :func:`repro.kernels.get_kernel`,
which guards on NumPy availability.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import repeat

import numpy as np

from repro._validation import CAPACITY_RTOL
from repro.energy import ContinuousEnergyFunction
from repro.kernels.base import IMPROVE_RTOL, energy_many, staircase_applies
from repro.kernels.pyref import PythonKernel

#: ``marginal_best`` runs the inherited reference loop on fewer
#: candidates than this: below it numpy's per-call overhead costs more
#: than the loop it replaces.  The op receives plain Python floats, so
#: both branches return the same bits.
VECTOR_MIN_LEN = 24

#: ``energy_table`` prices a stock continuous curve with array ops from
#: this many workloads up; below it, the flat loop of
#: ``energy_many`` costs less than numpy's per-call overhead.
ENERGY_VECTOR_MIN_LEN = 64

#: ``frontier_sweep`` extends a frontier of fewer states than this with
#: the reference's list step; from the first frontier this long on, it
#: runs array steps (frontiers rarely shrink back).  Both steps return
#: the same bits.
FRONTIER_VECTOR_MIN_LEN = 32


def _as_array(values: Sequence[float]) -> np.ndarray:
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return values
    return np.asarray(values, dtype=np.float64)


def _flat_energies(
    w: np.ndarray,
    limit: float,
    deadline: float,
    s_min: float,
    s_max: float,
    beta1: float,
    alpha: float,
    floor: float,
) -> np.ndarray | None:
    """``ContinuousEnergyFunction.energy_many`` on the ``flat_terms``
    curve, as float64 array ops in its loop's order; None when an
    element is out of range or ``W/D`` or the pow overflows (the loop
    raises or clamps there, element by element).

    The pow is CPython's ``math.pow`` per element: like ``float **
    float`` it calls the C library's ``pow`` on finite positive
    operands, while ``np.power`` may take a SIMD path whose last ulp
    differs.
    """
    low, high = float(w.min()), float(w.max())  # a NaN fails both tests
    if not (low >= 0.0 and high <= limit) or high / deadline == math.inf:
        return None
    speed = w / deadline
    np.maximum(speed, s_min, out=speed)
    np.minimum(speed, s_max, out=speed)
    # Zero workloads and underflowed speeds cost the floor; a unit speed
    # there keeps the arithmetic below finite.
    idle = (w == 0.0) | (speed == 0.0)
    np.copyto(speed, 1.0, where=idle)
    try:
        power = np.fromiter(
            map(math.pow, speed.tolist(), repeat(alpha)), np.float64, len(w)
        )
    except OverflowError:  # the loop raises the refusal, naming the workload
        return None
    table = w / speed
    table *= power * beta1
    table += floor
    np.copyto(table, floor, where=idle)
    return table


class NumpyKernel(PythonKernel):
    """The reference kernel with NumPy-vectorised ops where they pay."""

    name = "numpy"

    # ------------------------------------------------------------------ #
    # Scoring and sweeps                                                 #
    # ------------------------------------------------------------------ #

    def energy_table(
        self, energy_fn, workloads: Sequence[float]
    ) -> np.ndarray:
        w = _as_array(workloads)
        if len(w) >= ENERGY_VECTOR_MIN_LEN and isinstance(
            energy_fn, ContinuousEnergyFunction
        ):
            terms = energy_fn.flat_terms()
            table = None if terms is None else _flat_energies(w, *terms)
            if table is not None:
                return table
        return np.array(energy_many(energy_fn, w.tolist()))

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

    def dp_sweep_min(
        self, shifts: Sequence[int], addends: Sequence[float], width: int
    ) -> tuple[np.ndarray, np.ndarray]:
        # Two ping-pong rows: each task reads one and writes the other.
        # ``np.minimum`` picks the reference's term: starting from
        # ``[0.0, inf, ...]`` with finite addends, no entry is ever -0.0
        # or NaN, so equal terms have equal bits.
        rows = np.full((2, width), np.inf)
        rows[0, 0] = 0.0
        take = np.zeros((len(shifts), width), dtype=bool)
        src, dst = rows
        reach = 0
        for i, (shift, addend) in enumerate(zip(shifts, addends)):
            reach = min(reach + shift, width - 1)
            end = reach + 1
            np.add(src[:end], addend, out=dst[:end])
            if shift < end:
                accept = src[: end - shift]
                out = dst[shift:end]
                np.less(accept, out, out=take[i, shift:end])
                np.minimum(out, accept, out=out)
            src, dst = dst, src
        return src, take

    def dp_sweep_max(
        self, shifts: Sequence[int], addends: Sequence[float], width: int
    ) -> tuple[np.ndarray, np.ndarray]:
        # One row relaxed in place: the shifted terms go to a scratch row
        # before any entry they were read from is overwritten.  As in
        # ``dp_sweep_min``, no entry is -0.0 or NaN, so ``np.maximum``
        # picks the reference's term.
        row = np.full(width, -np.inf)
        row[0] = 0.0
        scratch = np.empty(width)
        take = np.zeros((len(shifts), width), dtype=bool)
        reach = 0
        for i, (shift, addend) in enumerate(zip(shifts, addends)):
            reach = min(reach + shift, width - 1)
            end = reach + 1
            if shift < end:
                reject = scratch[: end - shift]
                np.add(row[: end - shift], addend, out=reject)
                keep = row[shift:end]
                np.greater(reject, keep, out=take[i, shift:end])
                np.maximum(keep, reject, out=keep)
        return row, take

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

    def _frontier_step(self, workloads, penalties, cycles, penalty, bound):
        if isinstance(workloads, list):
            if len(workloads) < FRONTIER_VECTOR_MIN_LEN:
                return super()._frontier_step(
                    workloads, penalties, cycles, penalty, bound
                )
            workloads, penalties = np.array(workloads), np.array(penalties)
        grown = workloads + cycles
        # Workloads ascend, so the accepts that fit are a prefix.
        fit = int(grown.searchsorted(bound, side="right"))
        cand_w = np.concatenate((workloads, grown[:fit]))
        cand_p = np.concatenate((penalties + penalty, penalties[:fit]))
        # A stable sort on the workloads alone orders the candidates as
        # the reference's (w, p) sort does unless two workloads tie; then
        # the lexsort breaks ties by penalty, and on full ties both keep
        # the reject candidate first.  Both halves arrive sorted, which
        # the stable sort's run merging exploits.
        order = cand_w.argsort(kind="stable")
        sw = cand_w.take(order)
        if (sw[1:] == sw[:-1]).any():
            order = np.lexsort((cand_p, cand_w))
            sw = cand_w.take(order)
        sp = cand_p.take(order)
        # A candidate survives iff its penalty is strictly below every
        # earlier survivor's; since survivors' penalties are strictly
        # decreasing, "every earlier survivor" == the running prefix min.
        keep = np.empty(len(sp), dtype=bool)
        keep[0] = True
        np.less(sp[1:], np.minimum.accumulate(sp)[:-1], out=keep[1:])
        alive = keep.nonzero()[0]
        return sw.take(alive), sp.take(alive), order.take(alive), len(sp)

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
