"""Pure-python reference kernel.

The dependency-free backend every environment gets: plain lists,
``bytearray`` decision rows, and explicit loops that spell out the
floating-point operation order the NumPy backend must reproduce
(:mod:`repro.kernels.base` documents the contract).  It is the semantic
ground truth the differential test wall measures
:class:`repro.kernels.array.NumpyKernel` against, and that kernel's base
class: it overrides only the ops where vectorising pays.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro._validation import capacity_limit
from repro.kernels.base import (
    Frontier,
    Kernel,
    energy_many,
    improves,
    staircase_applies,
)

_INF = math.inf


class PythonKernel(Kernel):
    """Reference implementation of the kernel interface (pure python)."""

    name = "python"

    # ------------------------------------------------------------------ #
    # Scoring and sweeps                                                 #
    # ------------------------------------------------------------------ #

    def density_order(
        self, cycles: Sequence[float], penalties: Sequence[float]
    ) -> list[int]:
        densities = [p / c for p, c in zip(penalties, cycles)]
        return sorted(range(len(densities)), key=densities.__getitem__)

    def prefix_reject_count(
        self, cycles: Sequence[float], workload: float, capacity: float
    ) -> tuple[int, float]:
        if self.fits(workload, capacity):
            return 0, workload
        acc = 0.0
        for k, c in enumerate(cycles, start=1):
            acc = acc + c
            remaining = workload - acc
            if self.fits(remaining, capacity):
                return k, remaining
        return len(cycles), workload - acc

    def energy_table(
        self, energy_fn, workloads: Sequence[float]
    ) -> list[float]:
        return energy_many(energy_fn, workloads)

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
        energy = energy_fn.energy
        current = energy(workload)
        best = -1
        best_delta = 0.0
        for k, (c, p) in enumerate(zip(cycles, penalties)):
            saving = current - energy(max(workload - c, 0.0))
            delta = p - saving
            if improves(saving, p) and (best < 0 or delta < best_delta):
                best, best_delta = k, delta
        return best

    # ------------------------------------------------------------------ #
    # Dynamic programs                                                   #
    # ------------------------------------------------------------------ #

    def dp_sweep_min(
        self, shifts: Sequence[int], addends: Sequence[float], width: int
    ) -> tuple[list[float], list[bytearray]]:
        row = [_INF] * width
        row[0] = 0.0
        decisions = []
        reach = 0
        for shift, addend in zip(shifts, addends):
            reach = min(reach + shift, width - 1)
            take = bytearray(width)
            # Descending, so row[j - shift] still holds the previous row.
            for j in range(reach, shift - 1, -1):
                reject = row[j] + addend
                accept = row[j - shift]
                if accept < reject:
                    row[j] = accept
                    take[j] = 1
                else:
                    row[j] = reject
            for j in range(min(shift, reach + 1)):
                row[j] = row[j] + addend
            decisions.append(take)
        return row, decisions

    def dp_sweep_max(
        self, shifts: Sequence[int], addends: Sequence[float], width: int
    ) -> tuple[list[float], list[bytearray]]:
        row = [-_INF] * width
        row[0] = 0.0
        decisions = []
        reach = 0
        for shift, addend in zip(shifts, addends):
            reach = min(reach + shift, width - 1)
            take = bytearray(width)
            for j in range(reach, shift - 1, -1):
                reject = row[j - shift] + addend
                if reject > row[j]:
                    row[j] = reject
                    take[j] = 1
            decisions.append(take)
        return row, decisions

    def best_workload_level(
        self, row: Sequence[float], quantum: float, capacity: float, energy_fn
    ) -> tuple[int, float]:
        energy = energy_fn.energy
        best = -1
        best_cost = _INF
        for w, value in enumerate(row):
            if not math.isfinite(value):
                continue
            cost = energy(min(w * quantum, capacity)) + value
            if cost < best_cost:
                best, best_cost = w, cost
        return best, best_cost

    def best_penalty_level(
        self,
        row: Sequence[float],
        total: float,
        capacity: float,
        energy_fn,
        price: float,
    ) -> tuple[int, float]:
        energy = energy_fn.energy
        best = -1
        best_cost = _INF
        # Staircase filter: decided at the first feasible level; while it
        # applies, ``ceiling`` is the most cycles any earlier level shed.
        staircase = None
        ceiling = -_INF
        for p, value in enumerate(row):
            if not math.isfinite(value) or value <= ceiling:
                continue
            workload = total - value
            if not self.fits(workload, capacity):
                continue
            level_energy = energy(min(max(workload, 0.0), capacity))
            if staircase is None:
                staircase = staircase_applies(price, level_energy)
            if staircase:
                ceiling = value
            cost = level_energy + p * price
            if cost < best_cost:
                best, best_cost = p, cost
        return best, best_cost

    # ------------------------------------------------------------------ #
    # Pareto frontier                                                    #
    # ------------------------------------------------------------------ #

    def frontier_sweep(
        self,
        cycles: Sequence[float],
        penalties: Sequence[float],
        capacity: float,
        limit: int,
    ) -> Frontier:
        bound = capacity_limit(capacity)
        workloads: Sequence[float] = [0.0]
        pens: Sequence[float] = [0.0]
        steps = []
        states = peak = 1
        for c, rho in zip(cycles, penalties):
            size = len(workloads)
            workloads, pens, kept, candidates = self._frontier_step(
                workloads, pens, c, rho, bound
            )
            steps.append((kept, size))
            states += candidates
            peak = max(peak, len(workloads))
            if len(workloads) > limit:
                break
        return Frontier(workloads, pens, steps, states, peak)

    def _frontier_step(self, workloads, penalties, cycles, penalty, bound):
        """One task's extend-and-prune step of :meth:`frontier_sweep`.

        Returns the new ``(workloads, penalties, kept, candidates)``;
        *bound* is the capacity's largest fitting load.
        """
        size = len(workloads)
        # (workload, penalty, candidate index): rejects, then the accepts
        # that fit.  Sorting the tuples orders full (w, p) ties by index,
        # which is the stable sort's reject-first order.
        candidates = [
            (w, p + penalty, i) for i, (w, p) in enumerate(zip(workloads, penalties))
        ]
        for i, (w, p) in enumerate(zip(workloads, penalties)):
            grown = w + cycles
            if not grown <= bound:
                break
            candidates.append((grown, p, size + i))
        candidates.sort()
        out_w: list[float] = []
        out_p: list[float] = []
        kept: list[int] = []
        for w, p, k in candidates:
            if out_p and p >= out_p[-1]:
                continue
            out_w.append(w)
            out_p.append(p)
            kept.append(k)
        return out_w, out_p, kept, len(candidates)

    def frontier_best(
        self,
        workloads: Sequence[float],
        penalties: Sequence[float],
        capacity: float,
        energy_fn,
    ) -> tuple[int, float]:
        energy = energy_fn.energy
        best = -1
        best_cost = _INF
        for i, (w, p) in enumerate(zip(workloads, penalties)):
            cost = energy(min(w, capacity)) + p
            if cost < best_cost:
                best, best_cost = i, cost
        return best, best_cost

    # ------------------------------------------------------------------ #
    # Exhaustive enumeration                                             #
    # ------------------------------------------------------------------ #

    def subset_sums(self, values: Sequence[float]) -> list[float]:
        out = [0.0] * (1 << len(values))
        for i, v in enumerate(values):
            bit = 1 << i
            for mask in range(bit, bit << 1):
                out[mask] = out[mask ^ bit] + v
        return out

    def exhaustive_best(
        self,
        workloads: Sequence[float],
        accepted_penalties: Sequence[float],
        total_penalty: float,
        capacity: float,
        energy_fn,
    ) -> tuple[int, float]:
        energy = energy_fn.energy
        best = -1
        best_cost = _INF
        for mask, w in enumerate(workloads):
            if not self.fits(w, capacity):
                continue
            cost = energy(min(w, capacity)) + (
                total_penalty - accepted_penalties[mask]
            )
            if cost < best_cost:
                best, best_cost = mask, cost
        return best, best_cost
