"""Per-solution invariant checkers and the empirical convexity probe.

Each checker returns a list of :class:`Violation` records (empty when the
invariant holds) rather than raising, so the harness can collect every
violation of an instance in one pass and the shrinker can re-evaluate a
candidate instance cheaply.

The invariant catalogue (see ``docs/verify.md``):

* **feasibility** — the accepted workload fits the capacity and every
  accepted index is in range;
* **cost arithmetic** — the stored breakdown equals a recomputation from
  the problem (energy of the accepted workload + penalties of the
  rejected set);
* **plan consistency** — ``plan(W).energy == energy(W)``, the plan
  retires exactly ``W`` cycles and covers exactly the horizon;
* **sandwich** — ``fractional_lower_bound <= cost`` for every feasible
  solution (the relaxation under-estimates the optimum, which
  under-estimates any feasible cost), and ``cost <= upper`` for solvers
  that guarantee to beat a given baseline;
* **fptas bound** — ``cost <= opt + ε·UB`` (and ``cost <= UB``);
* **convexity claim** — an ``is_convex = True`` claim is validated
  against sampled second differences and random midpoint triples; a
  discontinuous drop or concave kink larger than fp noise flags the
  claim as wrong (this probe catches the historical
  ``DiscreteEnergyFunction.is_convex`` bug that ignored ``t_sw``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.rejection.problem import RejectionProblem, RejectionSolution
from repro.energy.base import EnergyFunction

#: Tolerance for all cost comparisons (fp-noise guard), relative to the
#: values compared, so an instance in tiny units is checked as closely.
COST_RTOL = 1e-9


@dataclass(frozen=True)
class Violation:
    """One invariant violation, ready for a report line."""

    invariant: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.invariant}] {self.message}"


def _tol(*values: float) -> float:
    """Comparison slack scaled to the magnitudes in play."""
    return COST_RTOL * max(abs(v) for v in values)


# --------------------------------------------------------------------- #
# Solution-level invariants                                             #
# --------------------------------------------------------------------- #


def check_solution(solution: RejectionSolution) -> list[Violation]:
    """Feasibility + cost arithmetic + speed-plan consistency."""
    problem = solution.problem
    out: list[Violation] = []
    algo = solution.algorithm

    bad = [i for i in solution.accepted if not 0 <= i < problem.n]
    if bad:
        return [
            Violation("feasibility", f"{algo}: accepted indices out of range: {bad}")
        ]
    workload = problem.workload(solution.accepted)
    if not problem.fits(workload):
        out.append(
            Violation(
                "feasibility",
                f"{algo}: accepted workload {workload!r} exceeds capacity "
                f"{problem.capacity!r}",
            )
        )
        return out

    expected = problem.cost(solution.accepted)
    if abs(expected.energy - solution.energy) > _tol(expected.energy):
        out.append(
            Violation(
                "cost",
                f"{algo}: stored energy {solution.energy!r} != recomputed "
                f"{expected.energy!r}",
            )
        )
    if abs(expected.penalty - solution.penalty) > _tol(expected.penalty):
        out.append(
            Violation(
                "cost",
                f"{algo}: stored penalty {solution.penalty!r} != recomputed "
                f"{expected.penalty!r}",
            )
        )

    fn = problem.energy_fn
    plan = solution.speed_plan()
    direct = fn.energy(min(workload, fn.max_workload))
    if abs(plan.energy - direct) > _tol(direct):
        out.append(
            Violation(
                "plan",
                f"{algo}: plan energy {plan.energy!r} != energy(W) {direct!r}",
            )
        )
    if abs(plan.total_cycles - workload) > 1e-6 * workload:
        out.append(
            Violation(
                "plan",
                f"{algo}: plan retires {plan.total_cycles!r} cycles for a "
                f"workload of {workload!r}",
            )
        )
    if plan.segments and abs(plan.horizon - fn.deadline) > 1e-9 * fn.deadline:
        out.append(
            Violation(
                "plan",
                f"{algo}: plan horizon {plan.horizon!r} != deadline "
                f"{fn.deadline!r}",
            )
        )
    return out


def check_sandwich(
    problem: RejectionProblem,
    solution: RejectionSolution,
    *,
    lower: float,
    upper: float | None = None,
) -> list[Violation]:
    """``lower <= cost`` always; ``cost <= upper`` when *upper* is given.

    *lower* is the fractional relaxation value (≤ OPT ≤ any feasible
    cost); *upper* applies only to solvers guaranteed to beat it — the
    exact family and the FPTAS (seeded with the repair baseline), not the
    standalone heuristics.
    """
    out: list[Violation] = []
    if solution.cost < lower - _tol(lower, solution.cost):
        out.append(
            Violation(
                "sandwich",
                f"{solution.algorithm}: cost {solution.cost!r} beats the "
                f"fractional lower bound {lower!r} — the bound (or the "
                "solution's feasibility) is wrong",
            )
        )
    if upper is not None and solution.cost > upper + _tol(upper, solution.cost):
        out.append(
            Violation(
                "sandwich",
                f"{solution.algorithm}: cost {solution.cost!r} exceeds its "
                f"guaranteed upper bound {upper!r}",
            )
        )
    return out


def check_fptas_bound(
    solution: RejectionSolution,
    *,
    opt: float,
    upper: float,
    eps: float,
) -> list[Violation]:
    """The FPTAS additive guarantee: ``cost <= opt + ε·UB`` and ``<= UB``."""
    out: list[Violation] = []
    budget = opt + eps * upper
    if solution.cost > budget + _tol(budget, solution.cost):
        out.append(
            Violation(
                "fptas",
                f"fptas(eps={eps}): cost {solution.cost!r} exceeds "
                f"opt + eps*UB = {budget!r} (opt={opt!r}, UB={upper!r})",
            )
        )
    if solution.cost > upper + _tol(upper, solution.cost):
        out.append(
            Violation(
                "fptas",
                f"fptas(eps={eps}): cost {solution.cost!r} exceeds its own "
                f"seed upper bound {upper!r}",
            )
        )
    return out


# --------------------------------------------------------------------- #
# Convexity probe                                                       #
# --------------------------------------------------------------------- #


def check_convexity_claim(
    fn: EnergyFunction,
    *,
    claimed: bool | None = None,
    grid: int = 257,
    triples: int = 64,
    rng: np.random.Generator | None = None,
) -> list[Violation]:
    """Empirically validate an ``is_convex`` claim on sampled workloads.

    Two probes over ``[0, max_workload]`` (finite caps only):

    * second differences on a uniform grid — a discontinuity of size
      ``J`` shows up as a ``±J`` second difference at the jump no matter
      how fine the grid is, so the historical ``t_sw`` slack-cost jump
      cannot hide between samples;
    * random midpoint triples ``w0 < w1 < w2`` checking
      ``g(w1) <= λ·g(w0) + (1−λ)·g(w2)``.

    Also checks monotonicity (the :class:`EnergyFunction` contract says
    non-decreasing) regardless of the convexity claim.  *claimed*
    defaults to ``fn.is_convex`` (True when the function does not expose
    the attribute); pass an explicit value to audit a hypothetical claim
    — the regression tests feed the pre-fix ``True`` claim through this
    to pin that the probe catches it.
    """
    if claimed is None:
        claimed = bool(getattr(fn, "is_convex", True))
    cap = fn.max_workload
    if not math.isfinite(cap) or cap <= 0.0:
        return []
    out: list[Violation] = []

    xs = np.linspace(0.0, cap, grid)
    ys = np.array([fn.energy(float(x)) for x in xs])
    tol = 1e-9 * float(np.max(np.abs(ys)))

    drops = np.flatnonzero(ys[1:] < ys[:-1] - tol)
    if drops.size:
        k = int(drops[0])
        out.append(
            Violation(
                "monotone",
                f"{type(fn).__name__}: g decreases from g({xs[k]!r}) = "
                f"{ys[k]!r} to g({xs[k + 1]!r}) = {ys[k + 1]!r}",
            )
        )

    if claimed:
        second = ys[:-2] - 2.0 * ys[1:-1] + ys[2:]
        kinks = np.flatnonzero(second < -tol)
        if kinks.size:
            k = int(kinks[0])
            out.append(
                Violation(
                    "convexity",
                    f"{type(fn).__name__} claims convex but the second "
                    f"difference at W = {xs[k + 1]!r} is {second[k]!r} "
                    f"(g = {ys[k]!r}, {ys[k + 1]!r}, {ys[k + 2]!r})",
                )
            )
        if rng is None:
            rng = np.random.default_rng(0)
        for _ in range(triples):
            w0, w1, w2 = np.sort(rng.uniform(0.0, cap, size=3))
            if w2 - w0 <= 1e-12 * cap:
                continue
            lam = (w2 - w1) / (w2 - w0)
            chord = lam * fn.energy(float(w0)) + (1.0 - lam) * fn.energy(float(w2))
            mid = fn.energy(float(w1))
            if mid > chord + tol:
                out.append(
                    Violation(
                        "convexity",
                        f"{type(fn).__name__} claims convex but g({w1!r}) = "
                        f"{mid!r} lies {mid - chord!r} above the chord "
                        f"through W = {w0!r} and W = {w2!r}",
                    )
                )
                break
    return out
