"""Differential wall: the numpy kernel must match the python kernel bit for bit.

Every solver is run on both backends over the verification harness's
adversarial instance generators (:mod:`repro.verify.strategies` — the
same vocabulary ``repro verify`` fuzzes with), asserting *identical*
accepted sets, cost breakdowns, and solver work counters.  The whole module skips cleanly when NumPy is absent (there is nothing
to compare against); the kernel-op corner cases that do not need a
second backend live in ``test_ops.py``, which runs everywhere.
"""

from __future__ import annotations


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rejection.exact import MAX_EXHAUSTIVE_TASKS
from repro.core.rejection import (
    accept_all_repair,
    branch_and_bound,
    dp_cycles,
    dp_penalty,
    exhaustive,
    fptas,
    greedy_density,
    greedy_marginal,
    pareto_exact,
    pareto_frontier,
)
from repro.kernels import numpy_available, use_kernel
from repro.obs import counters as obs_counters

np = pytest.importorskip("numpy", exc_type=ImportError)
strategies = pytest.importorskip("repro.verify.strategies", exc_type=ImportError)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy kernel not available"
)

#: Solvers compared on every adversarial family (no integrality or
#: convexity requirements).
GENERAL_SOLVERS = {
    "greedy_density": greedy_density,
    "greedy_marginal": greedy_marginal,
    "accept_all_repair": accept_all_repair,
    "fptas": lambda p: fptas(p, eps=0.3),
    "pareto_exact": pareto_exact,
}

UNIPROC = {s.name: s for s in strategies.UNIPROC_STRATEGIES}
MULTIPROC = {s.name: s for s in strategies.MULTIPROC_STRATEGIES}


def _solve_both(solver, problem):
    """Run *solver* under each kernel; return [(kernel, outcome, counters)].

    An outcome is either a solution or the raised ``ValueError`` type
    (guard errors must also agree across backends).
    """
    out = []
    for name in ("python", "numpy"):
        with use_kernel(name):
            with obs_counters.counting() as registry:
                try:
                    result = solver(problem)
                except ValueError as exc:
                    result = type(exc)
            out.append((name, result, registry.snapshot()))
    return out


def _assert_equivalent(solver, problem):
    (_, a, ca), (_, b, cb) = _solve_both(solver, problem)
    if isinstance(a, type) or isinstance(b, type):
        assert a == b, f"only one kernel raised: python={a} numpy={b}"
        return
    assert a.accepted == b.accepted
    # Bit-exact, not approximate: the kernels implement one fp spec.
    assert a.cost == b.cost
    assert a.energy == b.energy
    assert a.penalty == b.penalty
    assert ca == cb, "solver work counters diverged between kernels"


@needs_numpy
@pytest.mark.parametrize("strategy", sorted(UNIPROC))
@pytest.mark.parametrize("solver_name", sorted(GENERAL_SOLVERS))
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_uniproc_equivalence(strategy, solver_name, seed):
    problem = UNIPROC[strategy].build(np.random.default_rng([seed]))
    _assert_equivalent(GENERAL_SOLVERS[solver_name], problem)


@needs_numpy
@pytest.mark.parametrize("strategy", sorted(UNIPROC))
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_exact_solver_equivalence(strategy, seed):
    """Exhaustive and branch-and-bound agree across kernels.

    Branch-and-bound's convexity guard must fire on both backends or on
    neither (non-convex energy models appear in the leakage families).
    """
    problem = UNIPROC[strategy].build(np.random.default_rng([seed]))
    if problem.n <= MAX_EXHAUSTIVE_TASKS:
        _assert_equivalent(exhaustive, problem)
    _assert_equivalent(branch_and_bound, problem)


@needs_numpy
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_dp_equivalence_on_integer_instances(seed):
    """Both DP axes agree across kernels on DP-aligned instances."""
    problem = UNIPROC["integer"].build(np.random.default_rng([seed]))
    _assert_equivalent(lambda p: dp_cycles(p, quantum=1.0), problem)
    _assert_equivalent(lambda p: dp_penalty(p, quantum=1.0), problem)


@needs_numpy
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_pareto_frontier_equivalence(seed):
    """The full trade-off curve (not just the argmin) is bit-equal."""
    problem = UNIPROC["boundary"].build(np.random.default_rng([seed]))
    with use_kernel("python"):
        py = pareto_frontier(problem)
    with use_kernel("numpy"):
        nu = pareto_frontier(problem)
    assert py == nu


@needs_numpy
@pytest.mark.parametrize("strategy", sorted(MULTIPROC))
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_multiproc_equivalence(strategy, seed):
    """Partitioned-solver costs do not depend on the kernel either."""
    from repro.core.rejection import global_greedy_reject, ltf_reject

    problem = MULTIPROC[strategy].build(np.random.default_rng([seed]))
    for solver in (ltf_reject, global_greedy_reject):
        with use_kernel("python"):
            a = solver(problem)
        with use_kernel("numpy"):
            b = solver(problem)
        assert a.cost == b.cost
        assert a.rejected == b.rejected


@needs_numpy
def test_cross_kernel_ops_bitwise_on_random_rows():
    """Low-level op outputs (not just solver outputs) are bit-identical."""
    rng = np.random.default_rng(7)
    with use_kernel("python") as py, use_kernel("numpy") as nu:
        for _ in range(20):
            values = [float(v) for v in rng.uniform(0.0, 2.0, size=17)]
            assert [float(x) for x in nu.prefix_sums(values)] == list(
                py.prefix_sums(values)
            )
            pens = [float(v) for v in rng.uniform(0.0, 3.0, size=17)]
            assert nu.density_order(values, pens) == py.density_order(
                values, pens
            )
            shifts = [int(u) for u in rng.integers(0, 13, size=6)]
            addends = [float(v) for v in rng.uniform(0.0, 5.0, size=6)]
            for sweep in ("dp_sweep_min", "dp_sweep_max"):
                for width in (1, 9, 40):
                    a_row, a_take = getattr(py, sweep)(shifts, addends, width)
                    b_row, b_take = getattr(nu, sweep)(shifts, addends, width)
                    assert [float(x) for x in b_row] == a_row
                    assert [[bool(t) for t in r] for r in b_take] == [
                        [bool(t) for t in r] for r in a_take
                    ]


# --------------------------------------------------------------------- #
# The vectorisation gate                                                #
# --------------------------------------------------------------------- #
#
# The hypothesis instances above have at most 9 tasks, so the numpy
# kernel's marginal_best runs the inherited reference loop on them.
# This holds the vectorised branch to the same bits on inputs that
# straddle the gate, over every serialisable energy-function family.


def _marginal_args(rng, n):
    fn = strategies.random_energy_fn(rng)
    cap = fn.max_workload
    raw = rng.uniform(0.5, 2.0, size=n)
    cycles = (raw * (float(rng.uniform(0.8, 1.6)) * cap / raw.sum())).tolist()
    workload = min(sum(cycles), cap)
    # Penalties around each candidate's own saving; a lift above 1.25
    # puts every penalty above its saving, so -1 occurs as well.
    g = fn.energy
    lift = float(rng.uniform(0.6, 1.6))
    pens = [
        (g(workload) - g(max(workload - c, 0.0)))
        * lift
        * float(rng.uniform(0.8, 1.2))
        for c in cycles
    ]
    return workload, cycles, pens, fn


@needs_numpy
@pytest.mark.parametrize("seed", range(8))
def test_marginal_best_bitwise_across_the_gate(seed, monkeypatch):
    """gate - 1, gate, gate + 1 and a long input; the vectorised branch
    runs exactly from the gate up."""
    from repro.kernels.array import VECTOR_MIN_LEN
    from repro.kernels.pyref import PythonKernel

    reference = PythonKernel.marginal_best
    routed = []

    def spy(self, *args):
        routed.append(self.name)
        return reference(self, *args)

    monkeypatch.setattr(PythonKernel, "marginal_best", spy)
    with use_kernel("python") as py, use_kernel("numpy") as nu:
        for n in (VECTOR_MIN_LEN - 1, VECTOR_MIN_LEN, VECTOR_MIN_LEN + 1, 200):
            args = _marginal_args(np.random.default_rng([seed, n]), n)
            routed.clear()
            got = nu.marginal_best(*args)
            assert routed == (["numpy"] if n < VECTOR_MIN_LEN else [])
            want = py.marginal_best(*args)
            assert got == want and type(got) is type(want)


@needs_numpy
@pytest.mark.parametrize("seed", [0, 1])
def test_served_bodies_solve_identically_on_both_kernels(seed):
    """``greedy_marginal`` on the loadgen request stream (6-12 tasks)."""
    from repro.io import instance_from_dict
    from repro.service.loadgen import make_bodies

    for body in make_bodies(seed, 200):
        _assert_equivalent(greedy_marginal, instance_from_dict(body["instance"]))
