"""The numpy kernel's array ops against the python reference, bit for bit.

``energy_table`` prices a stock continuous curve with float64 array ops
(and CPython's ``pow``) from :data:`ENERGY_VECTOR_MIN_LEN` workloads up;
``dp_relax_min``/``dp_relax_max`` relax one row in place; and
``frontier_step`` orders its candidates with one stable sort.  Each must
return what :class:`PythonKernel` returns, to the last bit and the sign
of zero, at the corners random solver instances rarely reach: signed
zeros, denormals, the speed-range edges, the ``_limit`` edge, both
sides of the crossover, tied workloads and out-of-range shifts.  The
module skips when NumPy is absent.
"""

from __future__ import annotations

import copy
import math

import pytest

from repro.energy import ContinuousEnergyFunction
from repro.kernels.pyref import PythonKernel
from repro.power import PolynomialPowerModel

np = pytest.importorskip("numpy", exc_type=ImportError)
array = pytest.importorskip("repro.kernels.array", exc_type=ImportError)

NUMPY = array.NumpyKernel()
PYTHON = PythonKernel()
GATE = array.ENERGY_VECTOR_MIN_LEN


def _bits(values) -> list[str]:
    """Each value's exact bits (``-0.0`` and ``0.0`` differ)."""
    return [float(v).hex() for v in values]


def _outcome(call):
    try:
        return _bits(call())
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _poly(**kw) -> PolynomialPowerModel:
    return PolynomialPowerModel(**{"beta1": 1.52, "alpha": 3.0, **kw})


#: Stock continuous curves: the XScale-like default, a speed floor, a
#: static floor with a short deadline, long deadlines (a denormal ``W/D``
#: underflows to 0, then is raised to ``s_min`` or costs the floor), a
#: ``-0.0`` floor that only ``W = 0`` returns, and an unbounded speed
#: range.
CURVES = {
    "plain": ContinuousEnergyFunction(_poly(), 1.0),
    "s_min": ContinuousEnergyFunction(_poly(s_min=0.3, s_max=1.2), 0.37),
    "floor": ContinuousEnergyFunction(
        _poly(beta0=0.08, alpha=2.7), 0.37, include_static_floor=True
    ),
    "long": ContinuousEnergyFunction(_poly(s_min=0.1), 3.0),
    "long_idle": ContinuousEnergyFunction(_poly(), 3.0),
    "negative_zero_floor": ContinuousEnergyFunction(
        _poly(beta0=-0.0, s_min=0.2), 1.0, include_static_floor=True
    ),
    "unbounded": ContinuousEnergyFunction(_poly(s_max=math.inf), 2.0),
}


def _corners(fn: ContinuousEnergyFunction) -> list[float]:
    model, deadline = fn.power_model, fn.deadline
    edges = [
        0.0,
        -0.0,
        5e-324,
        2.2e-308,
        1e-310,
        model.s_min * deadline,
        fn._limit,
        math.nextafter(fn._limit, 0.0),
    ]
    if math.isfinite(fn.max_workload):
        edges.append(model.s_max * deadline)
    return edges


def _workloads(fn, size: int, seed: int) -> list[float]:
    top = min(fn._limit, 10.0 * fn.deadline)
    rng = np.random.default_rng([seed, size])
    body = rng.uniform(0.0, top, size=size).tolist()
    corners = _corners(fn)
    for index, corner in enumerate(corners[:size]):
        body[(index * 7) % size] = corner
    return body


@pytest.fixture
def routed(monkeypatch):
    """Records each ``energy_many`` call the numpy kernel falls back to."""
    calls = []
    batch = array.energy_many

    def spy(energy_fn, workloads):
        calls.append(len(workloads))
        return batch(energy_fn, workloads)

    monkeypatch.setattr(array, "energy_many", spy)
    return calls


# --------------------------------------------------------------------- #
# energy_table                                                          #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(CURVES))
@pytest.mark.parametrize("size", [GATE - 1, GATE, GATE + 1, 2001])
def test_energy_table_matches_the_reference_on_corners(name, size, routed):
    fn = CURVES[name]
    for seed in range(3):
        workloads = _workloads(fn, size, seed)
        want = _outcome(lambda: PYTHON.energy_table(fn, workloads))
        assert want == _outcome(lambda: fn.energy_many(workloads))
        routed.clear()
        assert _outcome(lambda: NUMPY.energy_table(fn, workloads)) == want
        # An unbounded speed range overflows the pow at ``_limit``: the
        # vectorised pass then hands the call to the scalar loop, which
        # refuses that workload with a ValueError naming it.
        overflows = name == "unbounded"
        if overflows:
            kind, message = want
            assert kind is ValueError
            assert message.startswith(f"workload {fn._limit!r} needs speed")
        assert routed == ([size] if size < GATE or overflows else [])


@pytest.mark.parametrize(
    "entry", ["energy", "energy_many", "python", "numpy"]
)
def test_unbounded_overflow_is_refused_by_every_entry_point(entry):
    fn = CURVES["unbounded"]
    top = fn._limit
    call = {
        "energy": lambda: fn.energy(top),
        "energy_many": lambda: fn.energy_many([1.0, top]),
        "python": lambda: PYTHON.energy_table(fn, [1.0, top]),
        "numpy": lambda: NUMPY.energy_table(fn, [1.0] * GATE + [top]),
    }[entry]
    with pytest.raises(ValueError, match="overflows a float"):
        call()


@pytest.mark.parametrize("name", sorted(CURVES))
def test_energy_table_matches_the_reference_on_many_workloads(name):
    fn = CURVES[name]
    workloads = np.random.default_rng(11).uniform(0.0, fn.deadline, 20_000)
    want = _bits(fn.energy_many(workloads.tolist()))
    assert _bits(NUMPY.energy_table(fn, workloads)) == want


@pytest.mark.parametrize("odd", ["int", "float64"])
def test_energy_table_accepts_an_int_or_float64_element(odd, routed):
    fn = CURVES["plain"]
    workloads = _workloads(fn, 2 * GATE, 0)
    workloads[5] = 1 if odd == "int" else np.float64(0.625)
    workloads[6] = 0 if odd == "int" else np.float64(0.0)
    want = _bits(PYTHON.energy_table(fn, workloads))
    assert _bits(NUMPY.energy_table(fn, workloads)) == want
    assert routed == []


@pytest.mark.parametrize("bad", [-1e-300, -1.0, math.nan, math.inf, "limit"])
@pytest.mark.parametrize("name", ["plain", "s_min"])
def test_energy_table_raises_what_energy_many_raises(name, bad, routed):
    fn = CURVES[name]
    bad = math.nextafter(fn._limit, math.inf) if bad == "limit" else bad
    workloads = _workloads(fn, 3 * GATE, 1)
    workloads[GATE + 5] = bad
    want = _outcome(lambda: fn.energy_many(workloads))
    assert want[0] is ValueError
    assert _outcome(lambda: PYTHON.energy_table(fn, workloads)) == want
    assert _outcome(lambda: NUMPY.energy_table(fn, workloads)) == want
    assert routed == [3 * GATE]


def test_energy_table_falls_back_when_w_over_d_overflows(routed):
    # D < 1 with an unbounded speed range: the largest workloads overflow
    # W/D, which the scalar loop hands to the checked clamp.
    fn = ContinuousEnergyFunction(_poly(s_max=math.inf), 0.5)
    workloads = _workloads(fn, 2 * GATE, 2)
    workloads[3] = fn._limit
    want = _outcome(lambda: fn.energy_many(workloads))
    assert _outcome(lambda: NUMPY.energy_table(fn, workloads)) == want
    assert routed == [2 * GATE]


def test_energy_table_prices_a_repricing_subclass_per_element(routed):
    class Doubled(ContinuousEnergyFunction):
        def _energy(self, workload):
            return 2.0 * super()._energy(workload)

    fn = Doubled(_poly(), 1.0)
    workloads = _workloads(fn, 2 * GATE, 3)
    want = _bits(fn.energy(w) for w in workloads)
    assert _bits(NUMPY.energy_table(fn, workloads)) == want
    assert routed == [2 * GATE]


@pytest.mark.parametrize("attr", ["_energy", "_speed"])
def test_energy_table_prices_a_patched_instance_per_element(attr, routed):
    fn = copy.copy(CURVES["plain"])
    stock = getattr(fn, attr)
    setattr(fn, attr, lambda workload: 2.0 * stock(workload))
    workloads = _workloads(fn, 2 * GATE, 4)
    want = _bits(fn.energy(w) for w in workloads)
    assert want != _bits(CURVES["plain"].energy_many(workloads))
    assert _bits(NUMPY.energy_table(fn, workloads)) == want
    assert routed == [2 * GATE]


# --------------------------------------------------------------------- #
# dp_relax_min / dp_relax_max                                           #
# --------------------------------------------------------------------- #


def _rows(size: int) -> dict[str, list[float]]:
    rng = np.random.default_rng(size)
    mixed = rng.uniform(0.0, 5.0, size)
    mixed[rng.random(size) < 0.3] = np.inf
    mixed[::5] = np.round(mixed[::5])  # exact ties between branches
    negated = -mixed
    return {
        "mixed": mixed.tolist(),
        "negated": negated.tolist(),
        "all_inf": [math.inf] * size,
        "all_neg_inf": [-math.inf] * size,
        "signed_zeros": [(-0.0 if i % 2 else 0.0) for i in range(size)],
    }


def _relax_both(op: str, row: list[float], shift: int, addend: float):
    want_out, want_take = getattr(PYTHON, op)(row, shift, addend)
    got_out, got_take = getattr(NUMPY, op)(np.array(row), shift, addend)
    assert got_take.dtype == bool and got_out.dtype == np.float64
    assert _bits(got_out) == _bits(want_out)
    assert [bool(t) for t in got_take] == [bool(t) for t in want_take]


@pytest.mark.parametrize("op", ["dp_relax_min", "dp_relax_max"])
@pytest.mark.parametrize("size", [1, 7, 2001])
def test_dp_relax_matches_the_reference(op, size):
    for kind, row in _rows(size).items():
        for shift in sorted({0, 1, 3, size // 2, size - 1, size, size + 4}):
            for addend in (0.0, -0.0, 0.75, 2.0):
                _relax_both(op, row, shift, addend)


@pytest.mark.parametrize("op", ["dp_relax_min", "dp_relax_max"])
def test_dp_relax_leaves_its_input_row_alone(op):
    row = np.array(_rows(64)["mixed"])
    before = row.copy()
    getattr(NUMPY, op)(row, 3, 0.5)
    assert _bits(row) == _bits(before)


def test_dp_relax_on_an_empty_row():
    for op in ("dp_relax_min", "dp_relax_max"):
        out, take = getattr(NUMPY, op)(np.array([]), 0, 1.0)
        assert len(out) == 0 and len(take) == 0


# --------------------------------------------------------------------- #
# frontier_step                                                         #
# --------------------------------------------------------------------- #


def _step_both(workloads, penalties, cycles, penalty, capacity):
    want = PYTHON.frontier_step(workloads, penalties, cycles, penalty, capacity)
    got = NUMPY.frontier_step(
        np.array(workloads, dtype=float),
        np.array(penalties, dtype=float),
        cycles,
        penalty,
        capacity,
    )
    assert _bits(got.workloads) == _bits(want.workloads)
    assert _bits(got.penalties) == _bits(want.penalties)
    assert [int(s) for s in got.sources] == list(want.sources)
    assert [bool(a) for a in got.accepted] == list(want.accepted)
    assert got.candidates == want.candidates
    return got


@pytest.fixture
def lexsorts(monkeypatch):
    """Counts the numpy kernel's tie fallbacks to ``np.lexsort``."""
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(
        np, "lexsort", lambda keys: calls.append(1) or lexsort(keys)
    )
    return calls


def test_frontier_step_matches_the_reference_on_random_frontiers(lexsorts):
    rng = np.random.default_rng(5)
    for size in (1, 2, 9, 64, 234, 1000):
        for _ in range(5):
            w = np.cumsum(rng.uniform(0.01, 0.1, size)).tolist()
            p = sorted(rng.uniform(0.0, 10.0, size).tolist(), reverse=True)
            cycles = float(rng.uniform(0.01, 0.3))
            capacity = w[-1] * float(rng.uniform(0.5, 1.5))
            _step_both(w, p, cycles, float(rng.uniform(0.0, 1.0)), capacity)
    assert lexsorts == []


def test_frontier_step_when_accepts_round_to_one_workload(lexsorts):
    # 0 + 1e16 and 1 + 1e16 round to the same double: the accept half
    # carries a tie, which the lexsort fallback orders by penalty.
    assert 0.0 + 1e16 == 1.0 + 1e16
    _step_both([0.0, 1.0, 3.0], [9.0, 7.0, 1.0], 1e16, 0.5, 1e17)
    assert lexsorts == [1]


def test_frontier_step_when_the_halves_tie(lexsorts):
    # Accepting state i lands exactly on state i + 1's workload, so each
    # reject candidate ties an accept candidate; equal penalties too.
    w = [0.0, 1.0, 2.0, 3.0]
    p = [4.0, 3.0, 2.5, 0.5]
    _step_both(w, p, 1.0, 0.5, 10.0)
    _step_both(w, p, 1.0, 0.0, 10.0)
    assert lexsorts == [1, 1]


def test_frontier_step_on_an_unsorted_frontier(lexsorts):
    # The op does not rely on its input being a sorted frontier: here
    # state 0's accept does not fit but states 1 and 2's do.
    _step_both([5.0, 1.0, 2.0], [0.5, 3.0, 2.0], 0.75, 1.0, 3.0)
    assert lexsorts == []


def test_frontier_step_when_no_accept_fits():
    step = _step_both([0.0, 1.0], [2.0, 1.0], 5.0, 0.25, 4.0)
    assert not any(step.accepted)


def test_frontier_step_on_an_empty_frontier():
    step = _step_both([], [], 1.0, 1.0, 1.0)
    assert len(step) == 0 and step.candidates == 0
