"""The array-kernel interface the rejection solvers run on.

A :class:`Kernel` bundles the array primitives behind the hot inner
loops of the REJECT-MIN solvers — DP row relaxation, Pareto-frontier
dominance filtering, prefix-capacity sweeps, penalty-density scoring,
energy-table evaluation, and the branch-and-bound shed-cost search.
Two backends implement it:

* :mod:`repro.kernels.pyref` — the pure-python reference; always
  available, dependency-free, and the semantic ground truth.
* :mod:`repro.kernels.array` — NumPy-vectorised rows; optional, and
  differentially tested to return **bit-identical** results.

Exact-equivalence contract
--------------------------
Every op is specified down to the order of floating-point operations, so
the two backends agree to the last ulp and solvers produce *identical*
accepted sets, costs, plans, and work counters on either one.  Two
consequences shape the interface:

* **Energy is batched, not vectorised.**  NumPy's elementwise ``**`` is
  not bit-equal to CPython's ``**`` (they disagree on ~5% of inputs by
  an ulp), so :meth:`Kernel.energy_table` hands the workloads, as plain
  Python floats, to ``energy_fn.energy_many`` in *both* backends.  That
  entry point validates each workload once and then runs the scalar
  CPython formula, so its results are bit-identical to per-element
  ``energy`` calls.  Evaluating ``g`` is the dominant cost of the
  solvers, not the sweeps around it.  On the seeded ``perfbench`` solve
  mix under cProfile, ``g`` took ~87% of solve time when every call
  re-ran its checks and ~54% with ``energy_many``; ``dp_penalty``, whose
  rows are all energy, stays near 90%.
* **Sums are specified, not incidental.**  Reductions use strict
  left-to-right accumulation (:meth:`Kernel.cumsum` ==
  ``np.add.accumulate``), and derived quantities (remaining workload
  after ``k`` rejections, suffix shed costs) are defined as *one*
  subtraction against a cumulative sum rather than a chain of running
  subtractions, so both backends round identically.

Rows returned by DP ops are backend-native (``list`` vs ``ndarray``);
solvers must treat them as opaque indexable sequences.  Decision/take
bit rows support ``row[i]`` truth-testing (``bytearray`` vs bool
``ndarray``).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

from repro._validation import CAPACITY_RTOL

#: Relative tolerance for "strict" cost improvements; guards fp jitter.
#: (Shared with the greedy family — a rejection only counts as improving
#: when the energy saved beats the penalty by more than fp noise.)
IMPROVE_RTOL = 1e-12

#: Slack used when matching a rejected-cycles amount against the shed
#: breakpoints (mirrors the historical branch-and-bound tolerance).
SHED_ATOL = 1e-15


def improves(saving: float, penalty: float) -> bool:
    """True when rejecting (saving energy *saving* at *penalty*) helps."""
    return saving - penalty > IMPROVE_RTOL * max(abs(saving), abs(penalty), 1.0)


def suffix_shed_cost(
    cum_c: Sequence[float],
    cum_p: Sequence[float],
    densities: Sequence[float],
    start: int,
    rejected: float,
) -> float:
    """Cheapest penalty to shed *rejected* cycles from the suffix.

    The tasks are in density order; ``cum_c``/``cum_p`` are their global
    cycle/penalty prefix sums (length ``n + 1``, leading 0) and
    ``densities[k] = penalties[k] / cycles[k]``.  Shedding is fractional:
    whole tasks from ``start`` onward are rejected until the remainder
    fits inside one task, which is charged pro rata.

    This scalar form is shared verbatim by both kernels (it backs the
    golden-section objective in the branch-and-bound relaxation); the
    vectorised breakpoint sweep in
    :meth:`Kernel.bound_breakpoint_min` replays the same arithmetic
    elementwise.
    """
    if rejected <= 0.0:
        return 0.0
    n = len(densities)
    target = (rejected - SHED_ATOL) + cum_c[start]
    j = max(bisect_left(cum_c, target), start + 1)
    if j > n:
        return cum_p[n] - cum_p[start]
    k = j - 1
    return (cum_p[k] - cum_p[start]) + (
        rejected - (cum_c[k] - cum_c[start])
    ) * densities[k]


def energy_many(energy_fn, workloads: Sequence[float]) -> list[float]:
    """``energy_fn.energy`` at each workload, through its batch entry
    point when it has one (every :class:`repro.energy.EnergyFunction`
    does); other objects with an ``energy`` method go element by element.
    """
    batch = getattr(energy_fn, "energy_many", None)
    return batch(workloads) if batch else [energy_fn.energy(w) for w in workloads]


@dataclass(frozen=True)
class FrontierStep:
    """One dominance-filtered Pareto-frontier extension.

    ``workloads``/``penalties`` are the surviving states (workload
    ascending, penalty strictly descending); ``sources[i]`` is the index
    of state ``i``'s parent in the *previous* frontier and
    ``accepted[i]`` whether it accepted the task just processed.
    ``candidates`` counts the states examined before pruning (the
    ``states`` work counter of the solvers).
    """

    workloads: Sequence[float]
    penalties: Sequence[float]
    sources: Sequence[int]
    accepted: Sequence[bool]
    candidates: int

    def __len__(self) -> int:
        return len(self.workloads)


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

    @abstractmethod
    def fits_mask(self, loads: Sequence[float], capacity: float) -> Sequence[bool]:
        """Elementwise shared-tolerance capacity predicate."""

    @abstractmethod
    def cumsum(self, values: Sequence[float]) -> Sequence[float]:
        """Strict left-to-right prefix sums (``out[i] = out[i-1] + v[i]``)."""

    def prefix_sums(self, values: Sequence[float]) -> Sequence[float]:
        """:meth:`cumsum` with a leading 0 (length ``n + 1``).

        The branch-and-bound shed-cost tables index these as
        ``cum[k] - cum[start]``.
        """
        cum = self.cumsum(values)
        return [0.0, *cum]

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

        One :func:`energy_many` call on plain floats in both backends —
        see the module docstring for why this is *not* vectorised.
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
        the lazy reference implementation is shared by both backends.
        """
        # float() casts keep np.float64 out of ``energy`` (whose ``**``
        # is not bit-equal to CPython's) when the cumsum is an ndarray.
        cum = self.cumsum(cycles)
        current = energy_fn.energy(max(float(workload), 0.0))
        count = 0
        for k in range(len(cycles)):
            after = energy_fn.energy(max(float(workload - cum[k]), 0.0))
            if not improves(current - after, float(penalties[k])):
                break
            count += 1
            current = after
        if count == 0:
            return 0, workload
        return count, float(workload - cum[count - 1])

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
    def dp_init(self, size: int, fill: float) -> Sequence[float]:
        """A DP row of *size* entries of *fill* with ``row[0] = 0.0``."""

    @abstractmethod
    def dp_relax_min(
        self, row: Sequence[float], shift: int, addend: float
    ) -> tuple[Sequence[float], Sequence[bool]]:
        """Min-relaxation step of the cycle-indexed DP.

        ``out[j] = min(row[j] + addend, row[j - shift])`` (the shifted
        term exists only for ``j >= shift``); ``take[j]`` is True when
        the shifted (accept) term is strictly smaller.
        """

    @abstractmethod
    def dp_relax_max(
        self, row: Sequence[float], shift: int, addend: float
    ) -> tuple[Sequence[float], Sequence[bool]]:
        """Max-relaxation step of the penalty-indexed DP.

        ``out[j] = max(row[j], row[j - shift] + addend)`` (the shifted
        term exists only for ``j >= shift``); ``take[j]`` is True when
        the shifted (reject) term is strictly greater.
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
        """

    # ------------------------------------------------------------------ #
    # Pareto frontier                                                    #
    # ------------------------------------------------------------------ #

    @abstractmethod
    def frontier_step(
        self,
        workloads: Sequence[float],
        penalties: Sequence[float],
        cycles: float,
        penalty: float,
        capacity: float,
    ) -> FrontierStep:
        """Extend a frontier by one task and prune dominated states.

        Candidates are the reject branch ``(w_i, p_i + penalty)`` for
        every state, followed by the accept branch ``(w_i + cycles, p_i)``
        for states whose accept workload fits.  They are stably sorted by
        ``(w, p)`` (reject-branch first on full ties) and a candidate
        survives iff its penalty is strictly below every earlier
        survivor's.
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
    # Exhaustive enumeration and branch-and-bound                        #
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

    @abstractmethod
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
        """Minimum of the fractional bound over its shed breakpoints.

        For each ``k`` in ``[start, n]`` with
        ``w_k = suffix_total - (cum_c[k] - cum_c[start])`` and
        ``0 <= w_k <= w_hi + 1e-12``, evaluates (at ``wc = min(w_k,
        w_hi)``)::

            base_penalty + g(min(base_workload + wc, capacity))
                         + suffix_shed_cost(..., suffix_total - wc)

        and returns the minimum (``inf`` if no breakpoint qualifies,
        which cannot happen: ``k = n`` gives ``w = 0``).
        """

    # ------------------------------------------------------------------ #
    # Shared scalar helpers                                              #
    # ------------------------------------------------------------------ #

    @staticmethod
    def fits(load: float, capacity: float) -> bool:
        """The shared scalar capacity predicate."""
        return load <= capacity * (1 + CAPACITY_RTOL)
