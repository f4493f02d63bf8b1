"""Differential cross-checks of every solver against the exact oracles.

The oracle chain on a uniprocessor instance (small ``n``):

* ``exhaustive`` is the ground truth;
* ``branch_and_bound`` and ``pareto_exact`` must match it exactly —
  three independent implementations of optimality;
* ``dp_cycles`` / ``dp_penalty`` must match on quantum-aligned
  instances (integer cycles resp. integer penalties);
* ``fptas`` must land within ``opt + ε·UB``;
* every heuristic must produce a feasible solution costing at least
  the optimum (a "heuristic" that beats the oracle means the oracle —
  or the feasibility tolerance — is broken);
* ``fractional_lower_bound`` must not exceed the optimum.

On a multiprocessor instance the oracle is ``exhaustive_multiproc`` and
the same spirit applies to ``ltf_reject`` / ``rand_reject`` /
``global_greedy_reject`` and ``pooled_lower_bound``.

On a heterogeneous (two-type) instance the oracle is
``exhaustive_hetero``; ``typed_ltf_reject`` / ``typed_global_reject``
must not beat it and ``hetero_pooled_lower_bound`` must not exceed it.
When the instance carries an (m,k) contract the skip-policy invariants
are checked too: the decision stream of a fresh
:class:`~repro.core.rejection.online.MKFirmSkipPolicy` never violates
any m-of-k window, and replaying the same arrivals through a second
fresh policy reproduces it decision-for-decision.

Solver crashes are reported as violations too — an unexpected exception
on a generated instance is exactly the kind of regression this harness
exists to catch.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro._validation import fits
from repro.core.rejection import (
    MKFirmSkipPolicy,
    MultiprocRejectionProblem,
    RejectionProblem,
    accept_all_repair,
    branch_and_bound,
    dp_cycles,
    dp_penalty,
    exhaustive,
    exhaustive_multiproc,
    fptas,
    fractional_lower_bound,
    global_greedy_reject,
    greedy_density,
    greedy_marginal,
    lp_rounding,
    ltf_reject,
    pareto_exact,
    pooled_lower_bound,
    rand_reject,
    reject_random,
)
from repro.core.rejection.multiproc import check_enumeration
from repro.hetero.assign import (
    HeteroRejectionProblem,
    exhaustive_hetero,
    hetero_pooled_lower_bound,
    typed_global_reject,
    typed_ltf_reject,
)
from repro.hetero.mk import mk_window_ok
from repro.obs.trace import span
from repro.verify.invariants import (
    Violation,
    check_convexity_claim,
    check_fptas_bound,
    check_sandwich,
    check_solution,
)

#: Cost-agreement tolerance between two exact solvers.
EXACT_RTOL = 1e-9

#: Largest n handed to the subset-enumeration oracle.
MAX_ORACLE_N = 16

#: ε values exercised for the FPTAS bound.
FPTAS_EPS = (0.5, 0.1)


def _tol(*values: float) -> float:
    return EXACT_RTOL * max(1.0, *(abs(v) for v in values))


def _run(
    name: str, call: Callable[[], object], violations: list[Violation]
) -> object | None:
    """Run one solver, converting an unexpected exception to a violation."""
    try:
        with span("verify.oracle", oracle=name):
            return call()
    except Exception as exc:  # noqa: BLE001 - every crash is a finding
        violations.append(
            Violation("crash", f"{name} raised {type(exc).__name__}: {exc}")
        )
        return None


def crosscheck_uniproc(
    problem: RejectionProblem,
    *,
    rng: np.random.Generator | None = None,
) -> list[Violation]:
    """All uniprocessor invariants + differential checks on *problem*."""
    out: list[Violation] = []
    out.extend(check_convexity_claim(problem.energy_fn, rng=rng))
    if problem.n > MAX_ORACLE_N:
        raise ValueError(
            f"n={problem.n} is too large for the exhaustive oracle "
            f"(limit {MAX_ORACLE_N}); generate smaller instances"
        )

    oracle = _run("exhaustive", lambda: exhaustive(problem), out)
    if oracle is None:
        return out
    out.extend(check_solution(oracle))
    opt = oracle.cost

    lower = _run(
        "fractional_lower_bound", lambda: fractional_lower_bound(problem), out
    )
    if lower is not None and lower > opt + _tol(lower, opt):
        out.append(
            Violation(
                "bound",
                f"fractional_lower_bound {lower!r} exceeds the optimum "
                f"{opt!r} — the relaxation is not a lower bound here",
            )
        )

    repair = _run("accept_all_repair", lambda: accept_all_repair(problem), out)
    upper = repair.cost if repair is not None else None

    # Independent exact solvers must agree with the oracle bit-for-bit
    # (up to fp noise in the cost sum).
    for name, solver in (
        ("branch_and_bound", branch_and_bound),
        ("pareto_exact", pareto_exact),
    ):
        sol = _run(name, lambda s=solver: s(problem), out)
        if sol is None:
            continue
        out.extend(check_solution(sol))
        if abs(sol.cost - opt) > _tol(sol.cost, opt):
            out.append(
                Violation(
                    "oracle",
                    f"{name} cost {sol.cost!r} != exhaustive optimum {opt!r} "
                    f"(accepted {sorted(sol.accepted)} vs "
                    f"{sorted(oracle.accepted)})",
                )
            )

    # The DPs are exact only on quantum-aligned instances.
    cycles_aligned = all(float(t.cycles).is_integer() for t in problem.tasks)
    penalties_aligned = all(float(t.penalty).is_integer() for t in problem.tasks)
    dp_solvers: list[tuple[str, Callable[[], object]]] = []
    if cycles_aligned:
        dp_solvers.append(("dp_cycles", lambda: dp_cycles(problem)))
    if penalties_aligned:
        dp_solvers.append(("dp_penalty", lambda: dp_penalty(problem)))
    for name, call in dp_solvers:
        try:
            with span("verify.oracle", oracle=name):
                sol = call()
        except ValueError as exc:
            if "DP cells" in str(exc):  # table guard, not a bug
                continue
            out.append(Violation("crash", f"{name} raised ValueError: {exc}"))
            continue
        except Exception as exc:  # noqa: BLE001
            out.append(
                Violation("crash", f"{name} raised {type(exc).__name__}: {exc}")
            )
            continue
        out.extend(check_solution(sol))
        if abs(sol.cost - opt) > _tol(sol.cost, opt):
            out.append(
                Violation(
                    "oracle",
                    f"{name} cost {sol.cost!r} != exhaustive optimum {opt!r} "
                    "on a quantum-aligned instance",
                )
            )

    # Heuristics: feasible, at least the optimum, at least the relaxation.
    heuristics: list[tuple[str, Callable[[], object]]] = [
        ("greedy_density", lambda: greedy_density(problem)),
        ("greedy_marginal", lambda: greedy_marginal(problem)),
        ("lp_rounding", lambda: lp_rounding(problem)),
        ("accept_all_repair", lambda: repair),
        (
            "reject_random",
            lambda: reject_random(problem, rng or np.random.default_rng(0)),
        ),
    ]
    for name, call in heuristics:
        sol = _run(name, call, out)
        if sol is None:
            continue
        out.extend(check_solution(sol))
        if sol.cost < opt - _tol(sol.cost, opt):
            out.append(
                Violation(
                    "oracle",
                    f"{name} cost {sol.cost!r} beats the exhaustive optimum "
                    f"{opt!r} — the oracle or the feasibility tolerance is "
                    "wrong",
                )
            )
        if lower is not None:
            out.extend(check_sandwich(problem, sol, lower=lower))

    # Oracle itself obeys the sandwich against the repair baseline.
    if lower is not None:
        out.extend(check_sandwich(problem, oracle, lower=lower, upper=upper))

    if upper is not None:
        for eps in FPTAS_EPS:
            sol = _run(f"fptas(eps={eps})", lambda e=eps: fptas(problem, eps=e), out)
            if sol is None:
                continue
            out.extend(check_solution(sol))
            out.extend(check_fptas_bound(sol, opt=opt, upper=upper, eps=eps))
    return out


def _crosscheck_partitioned(
    problem: MultiprocRejectionProblem | HeteroRejectionProblem,
    oracle: tuple[str, Callable[[], object]],
    bound: tuple[str, Callable[[], float]],
    heuristics: list[tuple[str, Callable[[], object]]],
    out: list[Violation],
) -> None:
    """Oracle → bound → heuristics on a partitioned instance, into *out*.

    The bound must not exceed the oracle's optimum, and no heuristic may
    beat either.  ``problem.solution()`` inside each solver already
    validates the partition (core count, per-core capacity, index
    coverage), so an infeasible heuristic output raises and lands in
    *out* as a crash.
    """
    check_enumeration(problem.m, problem.n)
    oracle_name, oracle_call = oracle
    best = _run(oracle_name, oracle_call, out)
    if best is None:
        return
    opt = best.cost

    bound_name, bound_call = bound
    lower = _run(bound_name, bound_call, out)
    if lower is not None and lower > opt + _tol(lower, opt):
        out.append(
            Violation(
                "bound",
                f"{bound_name} {lower!r} exceeds the {oracle_name} optimum "
                f"{opt!r}",
            )
        )

    for name, call in heuristics:
        sol = _run(name, call, out)
        if sol is None:
            continue
        if sol.cost < opt - _tol(sol.cost, opt):
            out.append(
                Violation(
                    "oracle",
                    f"{name} cost {sol.cost!r} beats {oracle_name} {opt!r}",
                )
            )
        if lower is not None and sol.cost < lower - _tol(sol.cost, lower):
            out.append(
                Violation(
                    "bound",
                    f"{name} cost {sol.cost!r} beats {bound_name} {lower!r}",
                )
            )


def crosscheck_multiproc(
    problem: MultiprocRejectionProblem,
    *,
    rng: np.random.Generator | None = None,
) -> list[Violation]:
    """Partitioned-multiprocessor differential checks on *problem*."""
    out = check_convexity_claim(problem.energy_fn, rng=rng)
    _crosscheck_partitioned(
        problem,
        ("exhaustive_multiproc", lambda: exhaustive_multiproc(problem)),
        ("pooled_lower_bound", lambda: pooled_lower_bound(problem)),
        [
            ("ltf_reject", lambda: ltf_reject(problem)),
            (
                "rand_reject",
                lambda: rand_reject(problem, rng or np.random.default_rng(0)),
            ),
            ("global_greedy_reject", lambda: global_greedy_reject(problem)),
        ],
        out,
    )
    return out


def _drive_mk_policy(problem: HeteroRejectionProblem) -> MKFirmSkipPolicy:
    """Run a *fresh* (m,k) skip policy over the instance's arrival order.

    The controller contract mirrors :func:`run_online`: a task that
    cannot fit the reference core at all is dropped without consulting
    the policy (a forced skip outside the weakly-hard window).
    """
    spec = problem.mk
    assert spec is not None
    policy = MKFirmSkipPolicy(spec.m, spec.k)
    fn = problem.platform.energy_functions()[0]
    cap = fn.max_workload
    workload = 0.0
    for task in problem.tasks:
        if not fits(workload + task.cycles, cap):
            continue
        if policy.admit(task, workload, fn):
            workload += task.cycles
    return policy


def crosscheck_hetero(
    problem: HeteroRejectionProblem,
    *,
    rng: np.random.Generator | None = None,
) -> list[Violation]:
    """Heterogeneous-platform differential checks on *problem*."""
    out: list[Violation] = []
    for fn in problem.platform.energy_functions():
        out.extend(check_convexity_claim(fn, rng=rng))
    _crosscheck_partitioned(
        problem,
        ("exhaustive_hetero", lambda: exhaustive_hetero(problem)),
        ("hetero_pooled_lower_bound", lambda: hetero_pooled_lower_bound(problem)),
        [
            ("typed_ltf_reject", lambda: typed_ltf_reject(problem)),
            ("typed_global_reject", lambda: typed_global_reject(problem)),
        ],
        out,
    )

    if problem.mk is not None:
        spec = problem.mk
        first = _run("mk_skip_policy", lambda: _drive_mk_policy(problem), out)
        if first is not None:
            if not mk_window_ok(first.decisions, spec.m, spec.k):
                out.append(
                    Violation(
                        "mk",
                        f"skip stream {first.decisions!r} violates the "
                        f"({spec.m},{spec.k})-firm window",
                    )
                )
            second = _run(
                "mk_skip_policy_replay", lambda: _drive_mk_policy(problem), out
            )
            if second is not None and second.decisions != first.decisions:
                out.append(
                    Violation(
                        "mk",
                        "replaying the arrivals through a fresh "
                        f"({spec.m},{spec.k}) policy diverged: "
                        f"{second.decisions!r} != {first.decisions!r}",
                    )
                )
    return out


def crosscheck(
    problem: RejectionProblem | MultiprocRejectionProblem | HeteroRejectionProblem,
    *,
    rng: np.random.Generator | None = None,
) -> list[Violation]:
    """Dispatch to the matching cross-check for the problem family."""
    if isinstance(problem, HeteroRejectionProblem):
        return crosscheck_hetero(problem, rng=rng)
    if isinstance(problem, MultiprocRejectionProblem):
        return crosscheck_multiproc(problem, rng=rng)
    return crosscheck_uniproc(problem, rng=rng)
