"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None

#: Modules that require NumPy (numpy-seeded strategies, experiments, or
#: the service stack).  In NumPy-free environments they are excluded at
#: collection time; everything else — the solvers, the python kernel,
#: the bench harness, IO, obs — must still pass (the kernel-matrix CI
#: job runs exactly this configuration).
if np is None:  # pragma: no cover - exercised by the no-numpy CI job
    collect_ignore = [
        "core/test_aperiodic.py",
        "core/test_fptas.py",
        "core/test_greedy.py",
        "core/test_hardness.py",
        "core/test_heterogeneous.py",
        "core/test_improvement_moves.py",
        "core/test_multiproc_rejection.py",
        "core/test_online.py",
        "core/test_pareto.py",
        "core/test_periodic.py",
        "core/test_periodic_multiproc.py",
        "core/test_sensitivity.py",
        "core/test_twope.py",
        "energy/test_convexity_regression.py",
        "experiments",
        "hetero/test_assign.py",
        "hetero/test_mk.py",
        "hetero/test_stochastic.py",
        "integration/test_end_to_end.py",
        "integration/test_torture.py",
        "io/test_hetero_roundtrip.py",
        "io/test_multiproc_roundtrip.py",
        "multiproc/test_partition.py",
        "multiproc/test_pooled.py",
        "obs/test_integration.py",
        "runner/test_cache_properties.py",
        "runner/test_determinism.py",
        "runner/test_metrics_edges.py",
        "sched/test_edf.py",
        "service",
        "speedopt/test_heterogeneous.py",
        "speedopt/test_yds.py",
        "tasks/test_generators.py",
        "tasks/test_generators_lognormal.py",
        "test_cli.py",
        "test_io.py",
        "verify/test_harness.py",
        "verify/test_invariants.py",
        "verify/test_oracles.py",
        "verify/test_shrink.py",
        "verify/test_strategies.py",
    ]

from repro._validation import CAPACITY_RTOL, capacity_limit
from repro.core.rejection import RejectionProblem
from repro.energy import (
    ContinuousEnergyFunction,
    CriticalSpeedEnergyFunction,
    DiscreteEnergyFunction,
)
from repro.power import DormantMode, PolynomialPowerModel, xscale_power_model
from repro.power.discrete import SpeedLevels
from repro.tasks.model import FrameTask, FrameTaskSet

# Keep property tests snappy by default; CI boxes can override.
settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Point the runner's result cache at a throwaway directory.

    Keeps every test cache-cold and stops CLI/runner tests from writing
    into the repository's ``results/.cache`` or ``results/manifests``.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "repro-manifests"))


@pytest.fixture
def rng():
    """A deterministic NumPy generator."""
    if np is None:  # pragma: no cover - exercised by the no-numpy CI job
        pytest.skip("requires numpy")
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def xscale():
    """The normalised XScale power model."""
    return xscale_power_model()


# --------------------------------------------------------------------- #
# Strategies                                                             #
# --------------------------------------------------------------------- #

#: Small positive floats that stay numerically friendly.
pos_floats = st.floats(
    min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def frame_task_sets(draw, min_tasks: int = 1, max_tasks: int = 8) -> FrameTaskSet:
    """Random small frame task sets with float cycles/penalties."""
    n = draw(st.integers(min_value=min_tasks, max_value=max_tasks))
    cycles = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=2.0),
            min_size=n,
            max_size=n,
        )
    )
    penalties = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=5.0),
            min_size=n,
            max_size=n,
        )
    )
    return FrameTaskSet(
        FrameTask(name=f"t{i}", cycles=c, penalty=p)
        for i, (c, p) in enumerate(zip(cycles, penalties))
    )


@st.composite
def integer_frame_task_sets(
    draw, min_tasks: int = 1, max_tasks: int = 8
) -> FrameTaskSet:
    """Random small frame task sets with integer cycles and penalties."""
    n = draw(st.integers(min_value=min_tasks, max_value=max_tasks))
    cycles = draw(
        st.lists(st.integers(min_value=1, max_value=30), min_size=n, max_size=n)
    )
    penalties = draw(
        st.lists(st.integers(min_value=0, max_value=40), min_size=n, max_size=n)
    )
    return FrameTaskSet(
        FrameTask(name=f"t{i}", cycles=float(c), penalty=float(p))
        for i, (c, p) in enumerate(zip(cycles, penalties))
    )


@st.composite
def energy_functions(draw, deadline: float = 1.0):
    """One of the three energy-function families, always convex."""
    kind = draw(st.sampled_from(["continuous", "critical", "discrete"]))
    beta0 = draw(st.sampled_from([0.0, 0.05, 0.2]))
    s_max = draw(st.sampled_from([1.0, 2.0, 4.0]))
    model = PolynomialPowerModel(beta0=beta0, beta1=1.52, alpha=3.0, s_max=s_max)
    if kind == "continuous":
        return ContinuousEnergyFunction(model, deadline)
    if kind == "critical":
        return CriticalSpeedEnergyFunction(model, deadline, dormant=DormantMode())
    levels = draw(st.sampled_from([2, 3, 5]))
    speeds = SpeedLevels(s_max * (k + 1) / levels for k in range(levels))
    return DiscreteEnergyFunction(model, speeds, deadline, dormant=DormantMode())


@st.composite
def rejection_problems(draw, min_tasks: int = 1, max_tasks: int = 7):
    """Random rejection problems across all energy-function families."""
    tasks = draw(frame_task_sets(min_tasks=min_tasks, max_tasks=max_tasks))
    energy_fn = draw(energy_functions())
    return RejectionProblem(tasks=tasks, energy_fn=energy_fn)


#: The pairs of :func:`capacity_band_cycles` that sum to the limit,
#: inside the tolerance band, and just beyond it.
BAND_PAIRS = ((0, 1), (2, 3), (2, 4))


def capacity_band_cycles(rng, cap: float) -> list[float]:
    """Five task sizes whose pair sums straddle ``capacity_limit(cap)``.

    Sizes 0 + 1 sum to exactly the limit, 2 + 3 land inside the
    ``CAPACITY_RTOL`` band above *cap*, and 2 + 4 land just beyond the
    limit (:data:`BAND_PAIRS`).
    """
    limit = capacity_limit(cap)
    head = float(rng.uniform(0.2, 0.8)) * cap
    sizes = [
        cap / 2,
        limit - cap / 2,
        head,
        (cap - head) + cap * CAPACITY_RTOL / 2,
        (cap - head) + 2 * cap * CAPACITY_RTOL,
    ]
    assert sizes[0] + sizes[1] == limit
    assert cap < sizes[2] + sizes[3] <= limit < sizes[2] + sizes[4]
    return sizes


def band_penalties(seed: int) -> list[float]:
    """Penalties that make one :data:`BAND_PAIRS` pair the one to accept.

    Every task costs 5 to reject and the pair picked by *seed* 6, so an
    optimum keeps that pair on one processor when it fits.  A solver that
    misjudges a load at or a hair above the capacity then picks another
    placement.
    """
    penalties = [5.0] * 5
    for i in BAND_PAIRS[seed % len(BAND_PAIRS)]:
        penalties[i] = 6.0
    return penalties
