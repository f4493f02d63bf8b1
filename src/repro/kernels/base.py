"""The array-kernel interface the rejection solvers run on.

A :class:`Kernel` bundles the array primitives behind the hot inner
loops of the REJECT-MIN solvers — DP table sweeps, Pareto-frontier
sweeps, prefix-capacity sweeps, penalty-density scoring,
energy-table evaluation, and the exhaustive subset scan.
Two backends implement it:

* :mod:`repro.kernels.pyref` — the pure-python reference; always
  available, dependency-free, and the semantic ground truth.
* :mod:`repro.kernels.array` — the reference plus NumPy-vectorised
  overrides for the ops and input sizes where they pay; optional, and
  differentially tested to return **bit-identical** results.

Exact-equivalence contract
--------------------------
Every op is specified down to the order of floating-point operations, so
the two backends agree to the last ulp and solvers produce *identical*
accepted sets, costs, plans, and work counters on either one.  Two
consequences shape the interface:

* **Energy is vectorised except for its pow.**  CPython's ``**`` and
  ``math.pow`` both call the C library's ``pow`` on finite positive
  operands; ``np.power`` may run a SIMD routine instead, and on AVX512
  builds it differs from CPython in the last ulp on some inputs.  So
  :meth:`Kernel.energy_table` is ``energy_fn.energy_many`` on plain
  floats in the reference, which validates each workload once and runs
  the scalar formula, bit-identical to per-element ``energy`` calls
  (the continuous curve runs it as one flat loop on stock polynomial
  models).  The numpy kernel prices that stock curve, from
  ``ENERGY_VECTOR_MIN_LEN`` workloads up, with float64 array ops in the
  flat loop's order and only ``s**alpha`` taken per element with
  ``math.pow``; every other curve, a bad element and an overflow go
  through ``energy_many`` (see docs/kernels.md).
  Evaluating ``g`` is the largest single cost of the solvers: on the
  seeded ``perfbench`` solve mix (seed 1, 400 solves, numpy kernel,
  cProfile), ``g`` takes ~24% of solve time, down from ~30% before the
  array ops, ~35% before the flat loop and ~55% before
  :meth:`Kernel.best_penalty_level` priced only its staircase.
* **Sums are specified, not incidental.**  Prefix sums accumulate
  strictly left to right (:meth:`Kernel.prefix_sums`, shared by both
  backends; a numpy prefix sum would be ``np.add.accumulate``, never a
  pairwise ``np.sum``), and derived quantities (remaining workload
  after ``k`` rejections) are defined as *one* subtraction against a
  cumulative sum rather than a chain of running subtractions, so both
  backends round identically.

Rows returned by DP ops are backend-native (``list`` vs ``ndarray``);
solvers must treat them as opaque indexable sequences.  Decision/take
tables support ``table[i][j]`` truth-testing (``bytearray`` rows vs a
2-D bool ``ndarray``).  The DP and frontier ops each take every task at
once and loop inside the kernel, so a solve makes one call per table.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

from repro._validation import CAPACITY_RTOL

#: Relative tolerance for "strict" cost improvements; guards fp jitter.
#: (Shared with the greedy family — a rejection only counts as improving
#: when the energy saved beats the penalty by more than fp noise.)
IMPROVE_RTOL = 1e-12

#: Relative floor on the per-level price of a penalty DP row: below
#: ``STAIRCASE_RTOL * g(W_max)`` :meth:`Kernel.best_penalty_level` prices
#: every feasible level (see :func:`staircase_applies`).
STAIRCASE_RTOL = 2.0**-40


def improves(saving: float, penalty: float) -> bool:
    """True when rejecting (saving energy *saving* at *penalty*) helps."""
    return saving - penalty > IMPROVE_RTOL * max(abs(saving), abs(penalty), 1.0)


def staircase_applies(price: float, top_energy: float) -> bool:
    """True when a penalty DP row may skip its dominated levels.

    *top_energy* is ``g`` at the clamped workload of the row's first
    feasible level, the largest energy any undominated level can have.
    Skipping is exact while ``price`` beats every floating-point dip of
    ``g``; ``2**-40`` of *top_energy* is ~3000 times the largest dip
    measured (see :meth:`Kernel.best_penalty_level`).
    """
    return price > STAIRCASE_RTOL * top_energy


def energy_many(energy_fn, workloads: Sequence[float]) -> list[float]:
    """``energy_fn.energy`` at each workload, through its batch entry
    point when it has one (every :class:`repro.energy.EnergyFunction`
    does); other objects with an ``energy`` method go element by element.
    """
    batch = getattr(energy_fn, "energy_many", None)
    return batch(workloads) if batch else [energy_fn.energy(w) for w in workloads]


@dataclass(frozen=True)
class Frontier:
    """A dominance-pruned Pareto frontier and the steps that built it.

    ``workloads``/``penalties`` are the surviving states (workload
    strictly ascending, penalty strictly descending).  ``steps`` holds
    one ``(kept, size)`` pair per task processed: ``size`` is the length
    of the frontier the task extended and ``kept[i]`` the candidate
    state ``i`` came from, indexed as the step lists its candidates —
    ``k < size`` is the reject branch of state ``k``, ``k >= size`` the
    accept branch of state ``k - size``.  ``states`` counts the initial
    state plus every candidate examined before pruning (the solvers'
    ``states`` work counter) and ``peak`` the largest frontier seen.
    """

    workloads: Sequence[float]
    penalties: Sequence[float]
    steps: list[tuple[Sequence[int], int]]
    states: int
    peak: int

    def __len__(self) -> int:
        return len(self.workloads)

    def accepted(self, index: int) -> list[int]:
        """The tasks final state *index* accepted, last task first."""
        accepted = []
        for task in range(len(self.steps) - 1, -1, -1):
            kept, size = self.steps[task]
            index = int(kept[index])
            if index >= size:
                accepted.append(task)
                index -= size
        return accepted


class Kernel(ABC):
    """Array primitives the rejection solvers' inner loops run on.

    See the module docstring for the exact-equivalence contract.  All
    capacity comparisons use the shared predicate
    ``load <= capacity * (1 + CAPACITY_RTOL)`` from
    :mod:`repro._validation`.
    """

    #: Backend identifier ("python", "numpy"); also what ``repro bench``
    #: and the run manifests record.
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # Scoring and sweeps                                                 #
    # ------------------------------------------------------------------ #

    def prefix_sums(self, values: Sequence[float]) -> list[float]:
        """``[0, v0, v0 + v1, ...]`` summed left to right (``n + 1`` long).

        The fractional bounds index these as ``cum[k] - cum[start]``
        and feed them to the scalar energy function, so every backend
        returns plain floats.
        """
        return list(accumulate(values, initial=0.0))

    @abstractmethod
    def density_order(
        self, cycles: Sequence[float], penalties: Sequence[float]
    ) -> list[int]:
        """Indices sorted by penalty density ``p/c`` ascending, stable."""

    @abstractmethod
    def prefix_reject_count(
        self, cycles: Sequence[float], workload: float, capacity: float
    ) -> tuple[int, float]:
        """Rejections (in order) needed before the workload fits.

        Returns ``(k, workload - cum[k])`` for the smallest ``k >= 0``
        such that ``workload - cum[k]`` fits the capacity (``cum[0] = 0``),
        or ``(len(cycles), workload - cum[-1])`` when even rejecting
        everything listed does not suffice.
        """

    @abstractmethod
    def energy_table(
        self, energy_fn, workloads: Sequence[float]
    ) -> Sequence[float]:
        """``energy_fn.energy`` at each workload (must all be feasible).

        Bit-identical to one :func:`energy_many` call on plain floats,
        and raises what that call raises; see the module docstring for
        which part a backend may vectorise.
        """

    # ------------------------------------------------------------------ #
    # Greedy family                                                      #
    # ------------------------------------------------------------------ #

    def improving_prefix(
        self,
        workload: float,
        cycles: Sequence[float],
        penalties: Sequence[float],
        energy_fn,
    ) -> tuple[int, float]:
        """Longest improving rejection prefix of an ordered candidate list.

        With ``W_0 = workload`` and ``W_k = workload - cum[k]``, candidate
        ``k`` (0-based) improves when
        ``improves(g(max(W_k, 0)) - g(max(W_{k+1}, 0)), penalties[k])``;
        the scan stops at the first non-improving candidate.  Returns
        ``(count, W_count)``.

        The scan is inherently sequential (each decision conditions the
        next workload) and evaluates at most ``count + 2`` energies, so
        both backends share this lazy loop over plain floats; ``shed``
        is ``cum[k]``, accumulated left to right as the scan advances.
        """
        energy = energy_fn.energy
        current = energy(max(workload, 0.0))
        remaining = workload
        shed = 0.0
        count = 0
        for c, p in zip(cycles, penalties):
            shed = shed + c
            after = energy(max(workload - shed, 0.0))
            if not improves(current - after, p):
                break
            count += 1
            current = after
            remaining = workload - shed
        return count, remaining

    @abstractmethod
    def marginal_best(
        self,
        workload: float,
        cycles: Sequence[float],
        penalties: Sequence[float],
        energy_fn,
    ) -> int:
        """Position of the best improving marginal rejection, or -1.

        For each candidate ``k``: ``saving_k = g(W) - g(max(W - c_k, 0))``
        and ``delta_k = p_k - saving_k``.  Returns the first position
        minimising ``delta`` among candidates with
        ``improves(saving_k, p_k)`` (strict ``<`` keeps the earliest on
        exact ties), or -1 when no candidate improves.
        """

    # ------------------------------------------------------------------ #
    # Dynamic programs                                                   #
    # ------------------------------------------------------------------ #

    @abstractmethod
    def dp_sweep_min(
        self, shifts: Sequence[int], addends: Sequence[float], width: int
    ) -> tuple[Sequence[float], Sequence[Sequence[bool]]]:
        """The cycle-indexed DP over every task.

        Starts from the row ``[0.0, inf, ..., inf]`` of *width* >= 1
        entries and relaxes it once per task ``i``:
        ``row[j] = min(row[j] + addends[i], row[j - shifts[i]])`` (the
        shifted term exists only for ``j >= shifts[i] >= 0``);
        ``take[i][j]`` is True when the shifted (accept) term is strictly
        smaller.  Returns the final row and the ``n x width`` take table.

        Task ``i`` relaxes only the reachable prefix ``j <= min(shifts[0]
        + ... + shifts[i], width - 1)``: past it every entry is ``inf``
        before and after (addends are finite), with a False take bit,
        which is what the formula gives there.
        """

    @abstractmethod
    def dp_sweep_max(
        self, shifts: Sequence[int], addends: Sequence[float], width: int
    ) -> tuple[Sequence[float], Sequence[Sequence[bool]]]:
        """The penalty-indexed DP over every task.

        Starts from the row ``[0.0, -inf, ..., -inf]`` of *width* >= 1
        entries and relaxes it once per task ``i``:
        ``row[j] = max(row[j], row[j - shifts[i]] + addends[i])`` (the
        shifted term exists only for ``j >= shifts[i] >= 0``);
        ``take[i][j]`` is True when the shifted (reject) term is strictly
        greater.  Only the reachable prefix is relaxed, as in
        :meth:`dp_sweep_min`; past it every entry stays ``-inf``.
        """

    @abstractmethod
    def best_workload_level(
        self, row: Sequence[float], quantum: float, capacity: float, energy_fn
    ) -> tuple[int, float]:
        """Cheapest level of a cycle-indexed DP row.

        Over finite entries ``w``: ``cost = g(min(w * quantum, capacity))
        + row[w]``; returns the first index attaining the minimum and its
        cost (``(-1, inf)`` when no entry is finite).
        """

    @abstractmethod
    def best_penalty_level(
        self,
        row: Sequence[float],
        total: float,
        capacity: float,
        energy_fn,
        price: float,
    ) -> tuple[int, float]:
        """Cheapest level of a penalty-indexed DP row.

        Over finite entries ``p`` whose accepted workload
        ``w = total - row[p]`` fits the capacity:
        ``cost = g(min(max(w, 0), capacity)) + p * price``; returns the
        first index attaining the minimum and its cost (``(-1, inf)``
        when no level is feasible).

        Only the *staircase* is priced: walking the feasible levels in
        index order, a level is evaluated only if it sheds strictly more
        cycles (``row[p]``) than every earlier feasible level.  A skipped
        level ``p'`` has an earlier kept level ``p`` with
        ``row[p] >= row[p']``, so a workload no larger and a penalty at
        least ``price`` lower; since ``g`` is non-decreasing,
        ``cost(p) <= cost(p')`` and the first minimum is unchanged.

        ``g`` is non-decreasing only up to rounding.  Probing each XScale
        energy function (continuous, critical, 5-level discrete; with and
        without ``DormantMode(t_sw=0.01, e_sw=0.005)``; ``D`` in 1.0,
        0.37, 3.0) at 300k sorted random workloads plus 100k one-ulp
        steps found dips in the critical and dormant-discrete functions,
        up to 230 pairs per function and at most 1.1e-16 (under 3e-16 of
        ``g``); the continuous function never dipped.  So the filter
        applies only when :func:`staircase_applies` holds for ``g`` at
        the first feasible level, which bounds every kept level's
        energy; otherwise every feasible level is priced.  The
        ``dp_penalty`` quantum and the FPTAS scale ``eps * UB / n`` sit
        many orders of magnitude above that guard in practice.
        """

    # ------------------------------------------------------------------ #
    # Pareto frontier                                                    #
    # ------------------------------------------------------------------ #

    @abstractmethod
    def frontier_sweep(
        self,
        cycles: Sequence[float],
        penalties: Sequence[float],
        capacity: float,
        limit: int,
    ) -> Frontier:
        """The Pareto frontier of every task, from the state ``(0, 0)``.

        Task ``(c, rho)`` extends the frontier with the reject branch
        ``(w_i, p_i + rho)`` of every state, followed by the accept
        branch ``(w_i + c, p_i)`` of the states whose accept workload
        fits the capacity (a prefix, since workloads ascend).  The
        candidates are stably sorted by ``(w, p)`` (reject branch first
        on full ties) and one survives iff its penalty is strictly below
        every earlier survivor's.

        Stops after the first task whose frontier holds more than
        *limit* states; ``peak > limit`` then says so, and ``steps`` ends
        at that task.
        """

    @abstractmethod
    def frontier_best(
        self,
        workloads: Sequence[float],
        penalties: Sequence[float],
        capacity: float,
        energy_fn,
    ) -> tuple[int, float]:
        """First index minimising ``g(min(w, capacity)) + p`` and its cost."""

    # ------------------------------------------------------------------ #
    # Exhaustive enumeration                                             #
    # ------------------------------------------------------------------ #

    @abstractmethod
    def subset_sums(self, values: Sequence[float]) -> Sequence[float]:
        """Sums of all ``2**n`` subsets by iterative doubling.

        ``out[mask] = out[mask ^ lowbit] + values[bit(lowbit)]`` — the
        exact accumulation order of the doubling construction, identical
        in both backends.
        """

    @abstractmethod
    def exhaustive_best(
        self,
        workloads: Sequence[float],
        accepted_penalties: Sequence[float],
        total_penalty: float,
        capacity: float,
        energy_fn,
    ) -> tuple[int, float]:
        """Cheapest feasible subset of the exhaustive enumeration.

        Over masks whose workload fits the capacity:
        ``cost = g(min(w, capacity)) + (total_penalty -
        accepted_penalties[mask])``; returns the first mask attaining the
        minimum and its cost.
        """

    # ------------------------------------------------------------------ #
    # Shared scalar helpers                                              #
    # ------------------------------------------------------------------ #

    @staticmethod
    def fits(load: float, capacity: float) -> bool:
        """The shared scalar capacity predicate."""
        return load <= capacity * (1 + CAPACITY_RTOL)
