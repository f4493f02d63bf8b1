"""The numpy kernel's array ops against the python reference, bit for bit.

``energy_table`` prices a stock continuous curve with float64 array ops
(and CPython's ``pow``) from :data:`ENERGY_VECTOR_MIN_LEN` workloads up;
``dp_sweep_min``/``dp_sweep_max`` relax ping-ponged rows over each
task's reachable prefix; and ``frontier_sweep`` switches from list steps
to array steps that order their candidates with one stable sort.  Each
must return what :class:`PythonKernel` returns, and the sweeps what the
frozen per-row loops of :mod:`tests.kernels.perrow` return, to the last
bit and the sign of zero, at the corners random solver instances rarely
reach: signed zeros, denormals, the speed-range edges, the ``_limit``
edge, both sides of each crossover, tied workloads, zero and
out-of-range shifts.  The module skips when NumPy is absent.
"""

from __future__ import annotations

import copy
import math

import pytest

from tests.kernels import perrow

from repro._validation import capacity_limit
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
# dp_sweep_min / dp_sweep_max                                           #
# --------------------------------------------------------------------- #
#
# Test ids keep the per-row relaxation each sweep runs ("dp_relax_min"
# is the min sweep); the oracle is the frozen per-row loop.

SWEEPS = pytest.mark.parametrize(
    "kind", ["min", "max"], ids=["dp_relax_min", "dp_relax_max"]
)


def _sweep_both(kind: str, shifts, addends, width: int):
    want_row, want_take = perrow.dp_sweep(kind, shifts, addends, width)
    for kernel in (PYTHON, NUMPY):
        row, take = getattr(kernel, f"dp_sweep_{kind}")(shifts, addends, width)
        assert _bits(row) == _bits(want_row), kernel.name
        assert [[bool(t) for t in r] for r in take] == want_take, kernel.name
    return row, take


def _tasks(width: int, n: int, seed: int) -> tuple[list[int], list[float]]:
    """Shifts from 0 to past the row's end, and addends with exact ties
    between branches (whole numbers) and signed zeros."""
    rng = np.random.default_rng([width, n, seed])
    shifts = rng.integers(0, max(2, width // 3), n)
    shifts[::7] = width + 4  # beyond the row
    shifts[3::9] = 0  # a zero-unit task
    addends = rng.uniform(0.0, 5.0, n)
    addends[::5] = np.round(addends[::5])
    addends[1::6] = 0.0
    addends[2::11] = -0.0
    return shifts.tolist(), addends.tolist()


@SWEEPS
@pytest.mark.parametrize("size", [1, 7, 2001])
def test_dp_relax_matches_the_reference(kind, size):
    for n in (1, 5, 40):
        for seed in range(3):
            _sweep_both(kind, *_tasks(size, n, seed), size)


@SWEEPS
def test_dp_relax_leaves_its_input_row_alone(kind):
    # The sweep reads its task columns without writing to them, as
    # tuples, lists or arrays.
    shifts, addends = _tasks(64, 30, 0)
    for cols in (
        (tuple(shifts), tuple(addends)),
        (list(shifts), list(addends)),
        (np.array(shifts), np.array(addends)),
    ):
        before = [list(col) for col in cols]
        _, take = getattr(NUMPY, f"dp_sweep_{kind}")(*cols, 64)
        assert take.shape == (30, 64)
        assert [list(col) for col in cols] == before


@SWEEPS
def test_dp_sweep_tail_past_the_reach(kind):
    # Small shifts on a wide row: most of it lies past every task's
    # reach, where the per-row loop relaxed +-inf to itself.
    shifts = [1, 0, 2, 1, 3]
    row, take = _sweep_both(kind, shifts, [1.5, 0.5, 2.0, 0.0, 1.0], 50)
    fill = math.inf if kind == "min" else -math.inf
    assert list(row[8:]) == [fill] * 42
    assert not take[:, 8:].any()


def test_dp_sweep_with_no_tasks():
    for kind in ("min", "max"):
        row, take = getattr(NUMPY, f"dp_sweep_{kind}")([], [], 3)
        fill = math.inf if kind == "min" else -math.inf
        assert list(row) == [0.0, fill, fill] and take.shape == (0, 3)


# --------------------------------------------------------------------- #
# frontier_sweep                                                        #
# --------------------------------------------------------------------- #


#: ``FRONTIER_VECTOR_MIN_LEN`` settings a frontier test runs under: array
#: steps from the first task on, then the shipped list-to-array gate.
GATES = (0, array.FRONTIER_VECTOR_MIN_LEN)


def _gated(monkeypatch):
    for gate in GATES:
        monkeypatch.setattr(array, "FRONTIER_VECTOR_MIN_LEN", gate)
        yield gate


def _frontier_both(cycles, penalties, capacity, limit=math.inf):
    want_w, want_p, want_steps, states, peak = perrow.frontier_sweep(
        cycles, penalties, capacity, limit
    )
    for kernel in (PYTHON, NUMPY):
        got = kernel.frontier_sweep(cycles, penalties, capacity, limit)
        assert _bits(got.workloads) == _bits(want_w), kernel.name
        assert _bits(got.penalties) == _bits(want_p), kernel.name
        assert perrow.decoded_steps(got) == want_steps, kernel.name
        assert (got.states, got.peak) == (states, peak), kernel.name
    return got


def _random_tasks(rng, n):
    cycles = rng.uniform(0.01, 0.3, n).tolist()
    penalties = rng.uniform(0.0, 1.0, n).tolist()
    return cycles, penalties, sum(cycles) * float(rng.uniform(0.3, 0.8))


@pytest.fixture
def lexsorts(monkeypatch):
    """Counts the numpy kernel's tie fallbacks to ``np.lexsort``."""
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(
        np, "lexsort", lambda keys: calls.append(1) or lexsort(keys)
    )
    return calls


def test_frontier_step_matches_the_reference_on_random_frontiers(
    monkeypatch, lexsorts
):
    for _ in _gated(monkeypatch):
        rng = np.random.default_rng(5)
        for n in (1, 2, 9, 16, 30):
            for _ in range(3):
                _frontier_both(*_random_tasks(rng, n))
    assert lexsorts == []


def test_frontier_sweep_crosses_the_list_to_array_switch(monkeypatch):
    # The frontier grows from 1 state past the gate: the first steps run
    # as lists, the later ones on arrays, and the bits do not change.
    kinds = []
    step = array.NumpyKernel._frontier_step

    def spy(self, workloads, *args):
        kinds.append(type(workloads).__name__)
        return step(self, workloads, *args)

    monkeypatch.setattr(array.NumpyKernel, "_frontier_step", spy)
    rng = np.random.default_rng(11)
    front = _frontier_both(*_random_tasks(rng, 24))
    assert len(front) > array.FRONTIER_VECTOR_MIN_LEN
    switch = kinds.index("ndarray")
    assert kinds[:switch] == ["list"] * switch and switch > 1
    assert set(kinds[switch:]) == {"ndarray"}


def test_frontier_sweep_stops_at_the_same_step_as_the_per_step_guard(
    monkeypatch,
):
    # The oracle stops after the first step whose frontier exceeds the
    # limit, as the solvers' guard raised there; so must every kernel.
    for _ in _gated(monkeypatch):
        cycles, penalties, capacity = _random_tasks(np.random.default_rng(3), 30)
        stopped = [
            len(_frontier_both(cycles, penalties, capacity, limit).steps)
            for limit in (1, 5, 40, 10**6)
        ]
        assert stopped[0] == 1 and stopped == sorted(stopped)
        assert stopped[-2] < stopped[-1] == 30


def test_frontier_step_when_accepts_round_to_one_workload(monkeypatch, lexsorts):
    # The first two tasks build workloads 0, 1, 3, 4.  Then 0 + 1e16 and
    # 1 + 1e16 round to the same double: the accept half carries a tie,
    # which the array step's lexsort fallback orders by penalty.
    assert 0.0 + 1e16 == 1.0 + 1e16
    for _ in _gated(monkeypatch):
        _frontier_both([1.0, 3.0, 1e16], [2.0, 7.0, 0.5], 1e17)
    assert lexsorts == [1]  # the gated run takes list steps only


def test_frontier_step_when_the_halves_tie(monkeypatch, lexsorts):
    # The first two tasks build workloads 0, 1, 2, 3; accepting a
    # one-cycle task lands each state on the next one's workload, so
    # each reject candidate ties an accept candidate, for a task with a
    # penalty and for one without.
    for _ in _gated(monkeypatch):
        for penalty in (0.5, 0.0):
            _frontier_both([1.0, 2.0, 1.0], [1.0, 2.5, penalty], 10.0)
    assert lexsorts == [1, 1]


def test_frontier_step_accept_exactly_on_the_capacity_bound(monkeypatch):
    # The second task's accept from state (0.5, 0) lands exactly on the
    # largest load that fits: the fitting prefix must include it.
    bound = capacity_limit(1.0)
    cycles = bound - 0.5
    assert 0.5 + cycles == bound
    for _ in _gated(monkeypatch):
        front = _frontier_both([0.5, cycles], [10.0, 0.25], 1.0)
        assert front.states == 1 + 2 + 4


def test_frontier_step_when_no_accept_fits(monkeypatch):
    for _ in _gated(monkeypatch):
        front = _frontier_both([5.0, 6.0], [0.25, 1.0], 4.0)
        assert [front.accepted(i) for i in range(len(front))] == [[]]


def test_frontier_sweep_with_no_tasks():
    front = _frontier_both([], [], 1.0)
    assert list(front.workloads) == [0.0] and front.steps == []
