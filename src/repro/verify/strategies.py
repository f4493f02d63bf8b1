"""Adversarial random-instance generators for the verification harness.

Each :class:`Strategy` names one regime the solvers historically get
wrong and builds a random instance of it from a seeded NumPy generator:

* ``boundary``         — tasks whose cycles sit exactly on (or a few ulp
  around) the capacity, where strict-vs-tolerant comparisons disagree;
* ``zero_penalty``     — free-to-drop tasks (ties everywhere);
* ``huge_penalty``     — penalties far above any energy saving, driving
  the FPTAS forced-accept split;
* ``overloaded``       — ``η`` up to 4: rejection is mandatory;
* ``trivial``          — underloaded instances where accept-all is
  (usually) optimal and improvement passes must not regress it;
* ``integer``          — DP-aligned integer cycles *and* penalties so the
  pseudo-polynomial oracles join the differential;
* ``discrete_leakage`` — discrete level sets with static power and every
  sleep-overhead combination (``t_sw > 0``, ``e_sw > 0``), the regime of
  the ``is_convex`` bug;
* ``critical_leakage`` — the continuous dormant-enable analogue;
* ``tied_density``     — penalties ∝ cycles (densities tie or sit ulps
  apart), sometimes in units scaled by ``1e-10``;
* ``multiproc*``       — partitioned instances small enough for the
  exhaustive multiprocessor oracle;
* ``hetero*``          — two-type (LP/HP) platforms small enough for the
  exhaustive typed-assignment oracle, with and without an (m,k)-firm
  skip contract, with per-type-capacity boundary tasks or
  ``tied_density``'s tasks.

Everything an instance needs travels through :mod:`repro.io`, so failing
instances can be written as reproducer JSON and replayed bit-exactly.
The generators are deliberately shared with the hypothesis suite in
``tests/verify/`` — one instance vocabulary for fuzzing and for CI.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.rejection import MultiprocRejectionProblem, RejectionProblem
from repro.hetero.assign import HeteroRejectionProblem
from repro.hetero.mk import MKSpec
from repro.hetero.platform import lp_hp_platform
from repro.energy import (
    ContinuousEnergyFunction,
    CriticalSpeedEnergyFunction,
    DiscreteEnergyFunction,
    EnergyFunction,
)
from repro.power import DormantMode, PolynomialPowerModel
from repro.power.discrete import SpeedLevels
from repro.tasks import FrameTask, FrameTaskSet


@dataclass(frozen=True)
class Strategy:
    """A named adversarial instance generator.

    Attributes
    ----------
    name:
        Stable identifier (used in reports and reproducer file names).
    kind:
        ``"uniproc"``, ``"multiproc"`` or ``"hetero"`` — selects the
        oracle family.
    build:
        Seeded generator → problem instance.
    """

    name: str
    kind: str
    build: Callable[
        [np.random.Generator],
        RejectionProblem | MultiprocRejectionProblem | HeteroRejectionProblem,
    ]


# --------------------------------------------------------------------- #
# Platform menu                                                         #
# --------------------------------------------------------------------- #

#: Sleep-overhead menu: the four qualitative regimes of the slack policy.
_DORMANT_MENU = (
    DormantMode(t_sw=0.0, e_sw=0.0),
    DormantMode(t_sw=0.3, e_sw=0.0),  # the pre-fix is_convex blind spot
    DormantMode(t_sw=0.0, e_sw=0.05),
    DormantMode(t_sw=0.25, e_sw=0.04),
)


def _power_model(rng: np.random.Generator, *, static: bool = True) -> PolynomialPowerModel:
    """A random (serialisable) polynomial power model."""
    beta0 = float(rng.choice([0.0, 0.05, 0.2] if static else [0.0]))
    s_max = float(rng.choice([1.0, 2.0]))
    return PolynomialPowerModel(beta0=beta0, beta1=1.52, alpha=3.0, s_max=s_max)


def random_energy_fn(
    rng: np.random.Generator, *, deadline: float = 1.0
) -> EnergyFunction:
    """One of the three serialisable energy-function families, any regime.

    Includes the non-convex dormant-enable overheads on purpose: the
    solvers must either handle them or substitute a convex lower bound,
    and the harness checks the ``is_convex`` claim empirically.
    """
    kind = rng.integers(0, 3)
    model = _power_model(rng)
    if kind == 0:
        return ContinuousEnergyFunction(model, deadline)
    if kind == 1:
        dormant = _DORMANT_MENU[int(rng.integers(0, len(_DORMANT_MENU)))]
        return CriticalSpeedEnergyFunction(model, deadline, dormant=dormant)
    n_levels = int(rng.integers(2, 6))
    levels = SpeedLevels(model.s_max * (k + 1) / n_levels for k in range(n_levels))
    dormant = (
        _DORMANT_MENU[int(rng.integers(0, len(_DORMANT_MENU)))]
        if rng.random() < 0.75
        else None
    )
    return DiscreteEnergyFunction(model, levels, deadline, dormant=dormant)


def _tasks(
    rng: np.random.Generator,
    n: int,
    capacity: float,
    *,
    load: float,
    penalty_scale: float,
) -> list[FrameTask]:
    """Random tasks hitting system load ``Σc / capacity == load``."""
    raw = rng.uniform(0.5, 2.0, size=n)
    cycles = raw * (load * capacity / raw.sum())
    penalties = penalty_scale * cycles * rng.uniform(0.2, 1.8, size=n)
    return [
        FrameTask(name=f"t{i}", cycles=float(c), penalty=float(p))
        for i, (c, p) in enumerate(zip(cycles, penalties))
    ]


def _tied_tasks(rng: np.random.Generator, n: int, capacity: float) -> list[FrameTask]:
    """Tasks on one or two penalty densities, each jittered by 0-2 ulp."""
    raw = rng.uniform(0.5, 2.0, size=n)
    cycles = raw * (float(rng.uniform(0.5, 2.0)) * capacity / raw.sum())
    levels = rng.uniform(0.3, 3.0, size=int(rng.integers(1, 3)))
    tasks = []
    for i, c in enumerate(cycles):
        penalty = float(levels[int(rng.integers(0, len(levels)))] * c)
        toward = np.inf if rng.random() < 0.5 else 0.0
        for _ in range(int(rng.integers(0, 3))):
            penalty = float(np.nextafter(penalty, toward))
        tasks.append(FrameTask(name=f"t{i}", cycles=float(c), penalty=penalty))
    return tasks


def _tied_scale(rng: np.random.Generator) -> float:
    """The deadline: 1e-10 a third of the time (the same problem in tiny units)."""
    return 1e-10 if rng.random() < 1 / 3 else 1.0


def _problem(tasks: list[FrameTask], fn: EnergyFunction) -> RejectionProblem:
    return RejectionProblem(tasks=FrameTaskSet(tasks), energy_fn=fn)


# --------------------------------------------------------------------- #
# Uniprocessor strategies                                               #
# --------------------------------------------------------------------- #


def build_boundary(rng: np.random.Generator) -> RejectionProblem:
    """Tasks exactly on — and a few ulp around — the capacity.

    The differential killer for inconsistent tolerances: a heuristic
    with a strict ``cycles <= cap`` pre-filter rejects the +ulp task
    while the exact solvers (tolerant feasibility) accept it.
    """
    fn = random_energy_fn(rng)
    cap = fn.max_workload
    n = int(rng.integers(2, 6))
    tasks = _tasks(rng, n, cap, load=float(rng.uniform(0.8, 1.6)), penalty_scale=1.0)
    exact = FrameTask(name="edge", cycles=cap, penalty=float(rng.uniform(0.1, 2.0)))
    above = FrameTask(
        name="ulp_above",
        cycles=float(np.nextafter(cap, np.inf)),
        penalty=float(rng.uniform(0.1, 2.0)),
    )
    below = FrameTask(
        name="ulp_below",
        cycles=float(np.nextafter(cap, 0.0)),
        penalty=float(rng.uniform(0.1, 2.0)),
    )
    extras = [exact, above, below]
    order = [int(k) for k in rng.permutation(len(extras))]
    keep = 1 + int(rng.integers(0, len(extras)))
    return _problem(tasks + [extras[k] for k in order[:keep]], fn)


def build_zero_penalty(rng: np.random.Generator) -> RejectionProblem:
    """A mix of zero-penalty (best-effort) and ordinary tasks."""
    fn = random_energy_fn(rng)
    cap = fn.max_workload
    n = int(rng.integers(2, 8))
    tasks = _tasks(rng, n, cap, load=float(rng.uniform(0.5, 2.0)), penalty_scale=1.0)
    zeroed = [
        FrameTask(name=t.name, cycles=t.cycles, penalty=0.0)
        if rng.random() < 0.5
        else t
        for t in tasks
    ]
    return _problem(zeroed, fn)


def build_huge_penalty(rng: np.random.Generator) -> RejectionProblem:
    """Penalties orders of magnitude above the energy scale.

    Drives the FPTAS forced-accept split and the greedy improvement
    guards; with an overloaded instance some huge-penalty task must
    still be rejected.
    """
    fn = random_energy_fn(rng)
    cap = fn.max_workload
    n = int(rng.integers(2, 7))
    tasks = _tasks(rng, n, cap, load=float(rng.uniform(0.7, 2.5)), penalty_scale=1.0)
    boosted = [
        FrameTask(name=t.name, cycles=t.cycles, penalty=t.penalty * 1e6)
        if rng.random() < 0.4
        else t
        for t in tasks
    ]
    return _problem(boosted, fn)


def build_overloaded(rng: np.random.Generator) -> RejectionProblem:
    """Heavy overload (η up to 4): rejection is mandatory."""
    fn = random_energy_fn(rng)
    n = int(rng.integers(2, 9))
    tasks = _tasks(
        rng,
        n,
        fn.max_workload,
        load=float(rng.uniform(1.5, 4.0)),
        penalty_scale=float(rng.uniform(0.5, 3.0)),
    )
    return _problem(tasks, fn)


def build_trivial(rng: np.random.Generator) -> RejectionProblem:
    """Underloaded instances; accept-all is usually optimal."""
    fn = random_energy_fn(rng)
    n = int(rng.integers(1, 7))
    tasks = _tasks(
        rng,
        n,
        fn.max_workload,
        load=float(rng.uniform(0.1, 0.8)),
        penalty_scale=float(rng.uniform(1.0, 4.0)),
    )
    return _problem(tasks, fn)


def build_integer(rng: np.random.Generator) -> RejectionProblem:
    """Integer cycles and penalties: the DP oracles join the differential."""
    model = _power_model(rng)
    deadline = 16.0 / model.s_max  # capacity: 16 integer cycles
    fn = ContinuousEnergyFunction(model, deadline)
    n = int(rng.integers(2, 8))
    tasks = [
        FrameTask(
            name=f"t{i}",
            cycles=float(rng.integers(1, 9)),
            penalty=float(rng.integers(0, 12)),
        )
        for i in range(n)
    ]
    return _problem(tasks, fn)


def build_discrete_leakage(rng: np.random.Generator) -> RejectionProblem:
    """Discrete levels + static power + every sleep-overhead combination.

    The exact regime of the historical ``is_convex`` hole (``e_sw == 0``
    with ``t_sw > 0``): the convexity probe and the relaxation sandwich
    must agree on these.
    """
    model = PolynomialPowerModel(
        beta0=float(rng.choice([0.05, 0.2])), beta1=1.52, alpha=3.0, s_max=1.0
    )
    n_levels = int(rng.integers(2, 6))
    levels = SpeedLevels((k + 1) / n_levels for k in range(n_levels))
    dormant = _DORMANT_MENU[int(rng.integers(0, len(_DORMANT_MENU)))]
    fn = DiscreteEnergyFunction(model, levels, 1.0, dormant=dormant)
    n = int(rng.integers(2, 7))
    tasks = _tasks(
        rng, n, fn.max_workload, load=float(rng.uniform(0.3, 2.0)), penalty_scale=1.0
    )
    return _problem(tasks, fn)


def build_critical_leakage(rng: np.random.Generator) -> RejectionProblem:
    """Continuous dormant-enable processor across the overhead menu."""
    model = PolynomialPowerModel(
        beta0=float(rng.choice([0.05, 0.2])), beta1=1.52, alpha=3.0, s_max=1.0
    )
    dormant = _DORMANT_MENU[int(rng.integers(0, len(_DORMANT_MENU)))]
    fn = CriticalSpeedEnergyFunction(model, 1.0, dormant=dormant)
    n = int(rng.integers(2, 7))
    tasks = _tasks(
        rng, n, fn.max_workload, load=float(rng.uniform(0.3, 2.5)), penalty_scale=1.0
    )
    return _problem(tasks, fn)


def build_tied_density(rng: np.random.Generator) -> RejectionProblem:
    """Tied and near-tied densities, at the base or a tiny unit scale."""
    fn = random_energy_fn(rng, deadline=_tied_scale(rng))
    n = int(rng.integers(2, 10))
    return _problem(_tied_tasks(rng, n, fn.max_workload), fn)


# --------------------------------------------------------------------- #
# Multiprocessor strategies                                             #
# --------------------------------------------------------------------- #


def build_multiproc(rng: np.random.Generator) -> MultiprocRejectionProblem:
    """Small partitioned instances within the exhaustive oracle's reach."""
    fn = random_energy_fn(rng)
    m = int(rng.integers(2, 4))
    n = int(rng.integers(2, 7))  # (m+1)^n <= 4^6 = 4096 assignments
    tasks = _tasks(
        rng,
        n,
        m * fn.max_workload,
        load=float(rng.uniform(0.4, 1.8)),
        penalty_scale=float(rng.uniform(0.5, 2.0)),
    )
    return MultiprocRejectionProblem(tasks=FrameTaskSet(tasks), energy_fn=fn, m=m)


def build_multiproc_boundary(rng: np.random.Generator) -> MultiprocRejectionProblem:
    """Partitioned instances with per-core-capacity boundary tasks."""
    fn = random_energy_fn(rng)
    cap = fn.max_workload
    m = 2
    n = int(rng.integers(2, 5))
    tasks = _tasks(
        rng, n, m * cap, load=float(rng.uniform(0.5, 1.5)), penalty_scale=1.0
    )
    tasks.append(
        FrameTask(name="edge", cycles=cap, penalty=float(rng.uniform(0.1, 2.0)))
    )
    return MultiprocRejectionProblem(tasks=FrameTaskSet(tasks), energy_fn=fn, m=m)


# --------------------------------------------------------------------- #
# Heterogeneous (two-type) strategies                                   #
# --------------------------------------------------------------------- #


def _random_mk(rng: np.random.Generator) -> MKSpec | None:
    """An (m,k) contract about half the time, including the degenerate ones."""
    if rng.random() < 0.5:
        return None
    k = int(rng.integers(1, 5))
    m = int(rng.integers(1, k + 1))
    return MKSpec(m=m, k=k)


def build_hetero(rng: np.random.Generator) -> HeteroRejectionProblem:
    """Small LP/HP instances within the typed-enumeration oracle's reach."""
    lp = int(rng.integers(1, 3))
    hp = int(rng.integers(1, 3))
    platform = lp_hp_platform(lp, hp)
    total_cap = sum(
        ct.count * cap
        for ct, cap in zip(platform.core_types, platform.capacities())
    )
    n = int(rng.integers(2, 6))  # (C+1)^n <= 5^5 = 3125 assignments
    tasks = _tasks(
        rng,
        n,
        total_cap,
        load=float(rng.uniform(0.4, 2.0)),
        penalty_scale=float(rng.uniform(0.5, 2.0)),
    )
    return HeteroRejectionProblem(
        tasks=FrameTaskSet(tasks), platform=platform, mk=_random_mk(rng)
    )


def build_hetero_boundary(rng: np.random.Generator) -> HeteroRejectionProblem:
    """LP/HP instances with tasks pinned to the per-type capacity edges.

    A task exactly at the LP capacity fits either core type; a task just
    above it fits only an HP core — the regime where a typed router with
    an inconsistent feasibility tolerance strands work or miscounts the
    marginal.
    """
    platform = lp_hp_platform(1, int(rng.integers(1, 3)))
    caps = platform.capacities()
    lp_cap, hp_cap = min(caps), max(caps)
    n = int(rng.integers(1, 4))
    tasks = _tasks(
        rng,
        n,
        platform.total_cores * lp_cap,
        load=float(rng.uniform(0.5, 1.5)),
        penalty_scale=1.0,
    )
    tasks.append(
        FrameTask(name="lp_edge", cycles=lp_cap, penalty=float(rng.uniform(0.1, 2.0)))
    )
    if rng.random() < 0.5:
        tasks.append(
            FrameTask(
                name="hp_only",
                cycles=float(np.nextafter(lp_cap, np.inf)),
                penalty=float(rng.uniform(0.1, 2.0)),
            )
        )
    if rng.random() < 0.5:
        tasks.append(
            FrameTask(
                name="hp_edge", cycles=hp_cap, penalty=float(rng.uniform(0.1, 2.0))
            )
        )
    return HeteroRejectionProblem(
        tasks=FrameTaskSet(tasks), platform=platform, mk=_random_mk(rng)
    )


def build_hetero_tied_density(rng: np.random.Generator) -> HeteroRejectionProblem:
    """LP/HP instances with ``tied_density``'s tasks and unit scales."""
    lp, hp = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    platform = lp_hp_platform(lp, hp, deadline=_tied_scale(rng))
    lp_cap, hp_cap = platform.capacities()
    tasks = _tied_tasks(rng, int(rng.integers(2, 6)), lp * lp_cap + hp * hp_cap)
    return HeteroRejectionProblem(tasks=FrameTaskSet(tasks), platform=platform)


#: The uniprocessor strategy registry, in fuzzing rotation order.
UNIPROC_STRATEGIES: tuple[Strategy, ...] = (
    Strategy("boundary", "uniproc", build_boundary),
    Strategy("zero_penalty", "uniproc", build_zero_penalty),
    Strategy("huge_penalty", "uniproc", build_huge_penalty),
    Strategy("overloaded", "uniproc", build_overloaded),
    Strategy("trivial", "uniproc", build_trivial),
    Strategy("integer", "uniproc", build_integer),
    Strategy("discrete_leakage", "uniproc", build_discrete_leakage),
    Strategy("critical_leakage", "uniproc", build_critical_leakage),
    Strategy("tied_density", "uniproc", build_tied_density),
)

#: The multiprocessor strategy registry.
MULTIPROC_STRATEGIES: tuple[Strategy, ...] = (
    Strategy("multiproc", "multiproc", build_multiproc),
    Strategy("multiproc_boundary", "multiproc", build_multiproc_boundary),
)

#: The heterogeneous (two-type platform) strategy registry.
HETERO_STRATEGIES: tuple[Strategy, ...] = (
    Strategy("hetero", "hetero", build_hetero),
    Strategy("hetero_boundary", "hetero", build_hetero_boundary),
    Strategy("hetero_tied_density", "hetero", build_hetero_tied_density),
)

#: Every strategy, the harness's default rotation.
ALL_STRATEGIES: tuple[Strategy, ...] = (
    UNIPROC_STRATEGIES + MULTIPROC_STRATEGIES + HETERO_STRATEGIES
)
