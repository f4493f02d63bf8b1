"""Pure-python reference kernel.

The dependency-free backend every environment gets: plain lists,
``bytearray`` decision rows, and explicit loops that spell out the
floating-point operation order the NumPy backend must reproduce
(:mod:`repro.kernels.base` documents the contract).  It is the semantic
ground truth the differential test wall measures
:class:`repro.kernels.array.NumpyKernel` against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.kernels.base import (
    FrontierStep,
    Kernel,
    energy_many,
    improves,
    suffix_shed_cost,
)

_INF = math.inf


class PythonKernel(Kernel):
    """Reference implementation of the kernel interface (pure python)."""

    name = "python"

    # ------------------------------------------------------------------ #
    # Scoring and sweeps                                                 #
    # ------------------------------------------------------------------ #

    def fits_mask(self, loads: Sequence[float], capacity: float) -> list[bool]:
        return [self.fits(load, capacity) for load in loads]

    def cumsum(self, values: Sequence[float]) -> list[float]:
        out: list[float] = []
        acc = 0.0
        for v in values:
            acc = acc + v
            out.append(acc)
        return out

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

    def dp_init(self, size: int, fill: float) -> list[float]:
        row = [fill] * size
        row[0] = 0.0
        return row

    def dp_relax_min(
        self, row: Sequence[float], shift: int, addend: float
    ) -> tuple[list[float], bytearray]:
        size = len(row)
        out = [0.0] * size
        take = bytearray(size)
        for j in range(min(shift, size)):
            out[j] = row[j] + addend
        for j in range(shift, size):
            reject = row[j] + addend
            accept = row[j - shift]
            if accept < reject:
                out[j] = accept
                take[j] = 1
            else:
                out[j] = reject
        return out, take

    def dp_relax_max(
        self, row: Sequence[float], shift: int, addend: float
    ) -> tuple[list[float], bytearray]:
        size = len(row)
        out = list(row[: min(shift, size)])
        out += [0.0] * (size - len(out))
        take = bytearray(size)
        for j in range(shift, size):
            keep = row[j]
            reject = row[j - shift] + addend
            if reject > keep:
                out[j] = reject
                take[j] = 1
            else:
                out[j] = keep
        return out, take

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
        for p, value in enumerate(row):
            if not math.isfinite(value):
                continue
            workload = total - value
            if not self.fits(workload, capacity):
                continue
            cost = energy(min(max(workload, 0.0), capacity)) + p * price
            if cost < best_cost:
                best, best_cost = p, cost
        return best, best_cost

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
        # Candidate tuples: (workload, penalty, source index, accepted).
        candidates: list[tuple[float, float, int, bool]] = [
            (w, p + penalty, i, False)
            for i, (w, p) in enumerate(zip(workloads, penalties))
        ]
        for i, (w, p) in enumerate(zip(workloads, penalties)):
            grown = w + cycles
            if self.fits(grown, capacity):
                candidates.append((grown, p, i, True))
        candidates.sort(key=lambda c: (c[0], c[1]))  # stable: reject first
        out_w: list[float] = []
        out_p: list[float] = []
        out_src: list[int] = []
        out_acc: list[bool] = []
        for w, p, src, acc in candidates:
            if out_p and p >= out_p[-1]:
                continue
            out_w.append(w)
            out_p.append(p)
            out_src.append(src)
            out_acc.append(acc)
        return FrontierStep(
            workloads=out_w,
            penalties=out_p,
            sources=out_src,
            accepted=out_acc,
            candidates=len(candidates),
        )

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
    # Exhaustive enumeration and branch-and-bound                        #
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
        energy = energy_fn.energy
        val = _INF
        offset = cum_c[start]
        for k in range(start, len(densities) + 1):
            w = suffix_total - (cum_c[k] - offset)
            if not 0.0 <= w <= w_hi + 1e-12:
                continue
            wc = min(w, w_hi)
            cost = (
                base_penalty
                + energy(min(base_workload + wc, capacity))
                + suffix_shed_cost(
                    cum_c, cum_p, densities, start, suffix_total - wc
                )
            )
            if cost < val:
                val = cost
        return val
