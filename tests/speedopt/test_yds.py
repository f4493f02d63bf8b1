"""Tests for the YDS optimal speed schedule."""

import itertools
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.power import PolynomialPowerModel
from repro.speedopt import Job, YdsSchedule, yds_schedule


class TestSmallCases:
    def test_single_job_runs_at_density(self):
        s = yds_schedule([Job("a", 0.0, 4.0, 2.0)])
        assert len(s.slices) == 1
        assert s.slices[0].speed == pytest.approx(0.5)
        assert s.feasible([Job("a", 0.0, 4.0, 2.0)])

    def test_frame_based_degenerates_to_common_speed(self):
        jobs = [Job("a", 0.0, 10.0, 3.0), Job("b", 0.0, 10.0, 7.0)]
        s = yds_schedule(jobs)
        assert {round(x.speed, 12) for x in s.slices} == {1.0}
        assert s.feasible(jobs)

    def test_classic_preemption_example(self):
        jobs = [Job("a", 0.0, 4.0, 4.0), Job("b", 1.0, 3.0, 2.0), Job("c", 5.0, 9.0, 2.0)]
        s = yds_schedule(jobs)
        assert s.feasible(jobs)
        assert s.intensities[0] == pytest.approx(1.5)
        assert s.intensities[-1] == pytest.approx(0.5)

    def test_empty_input(self):
        s = yds_schedule([])
        assert s.slices == ()
        assert s.max_speed == 0.0

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            yds_schedule([Job("a", 0, 1, 1), Job("a", 0, 2, 1)])


class TestStructuralInvariants:
    @settings(max_examples=40)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_random_instances_feasible_and_monotone(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        jobs = []
        for i in range(n):
            a = float(rng.uniform(0, 10))
            d = a + float(rng.uniform(0.5, 10))
            jobs.append(Job(f"j{i}", a, d, float(rng.uniform(0.2, 5))))
        s = yds_schedule(jobs)
        assert s.feasible(jobs)
        # Critical intensities are non-increasing.
        for hi, lo in zip(s.intensities, s.intensities[1:]):
            assert hi >= lo - 1e-9
        # Slices never overlap.
        ordered = sorted(s.slices, key=lambda x: x.start)
        for x, y in zip(ordered, ordered[1:]):
            assert x.end <= y.start + 1e-9

    @settings(max_examples=20)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_beats_naive_per_job_schedules(self, seed):
        """YDS energy <= running every job alone over its full window."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        jobs = []
        for i in range(n):
            a = float(rng.integers(0, 5)) * 2.0
            d = a + float(rng.integers(1, 5)) * 2.0
            jobs.append(Job(f"j{i}", a, d, float(rng.uniform(0.5, 3))))
        model = PolynomialPowerModel(beta0=0.0, beta1=1.0, alpha=3.0, s_max=math.inf)
        s = yds_schedule(jobs)
        # Lower bound on any feasible schedule: run each job across its
        # whole window (ignores contention) — YDS must be >= that...
        lower = sum(
            (j.cycles / (j.deadline - j.arrival)) ** 3 * (j.deadline - j.arrival)
            for j in jobs
        )
        assert s.energy(model) >= lower - 1e-9

    def test_energy_against_exhaustive_two_job_split(self):
        """Brute-force the optimal split of a 2-job overlap; YDS matches."""
        jobs = [Job("a", 0.0, 2.0, 1.0), Job("b", 0.0, 4.0, 1.0)]
        model = PolynomialPowerModel(beta0=0.0, beta1=1.0, alpha=3.0, s_max=math.inf)
        s = yds_schedule(jobs)
        # Optimal by hand: intensity (1+x)/2 on [0,2] for x cycles of b,
        # (1-x)/2 on [2,4]; minimise over x in [0,1].
        best = min(
            2 * ((1 + x) / 2) ** 3 + 2 * ((1 - x) / 2) ** 3
            for x in np.linspace(0, 1, 2001)
        )
        assert s.energy(model) == pytest.approx(best, rel=1e-6)


class TestRoundingSlivers:
    # Four of the jobs `repro run fig_r12 --quick --seed 902043140` draws.
    # Round 1 carves [7.52.., 12.19..]; in round 2 j4's EDF finish lands
    # 4e-15 past that carve's collapsed start, and the overshoot used to
    # map to a 4e-15 slice at t = 12.19, far outside j4's window.
    JOBS = [
        Job("j0", 0.1929238114371627, 4.803460479999109, 2.5459588886325943),
        Job("j1", 7.521627147618424, 12.19113689350701, 2.065182757728441),
        Job("j2", 8.472902059847664, 10.557903796268658, 1.1088568773271334),
        Job("j4", 2.8439081932584784, 8.650314957895901, 2.1262241631728855),
    ]

    def test_overshoot_past_a_carve_maps_to_no_slice(self):
        s = yds_schedule(self.JOBS)
        assert s.feasible(self.JOBS)
        windows = {j.name: (j.arrival, j.deadline) for j in self.JOBS}
        for piece in s.slices:
            a, d = windows[piece.job]
            assert a <= piece.start < piece.end <= d

    def test_fig_r12_seed_runs(self):
        from repro.experiments import fig_r12

        table = fig_r12.run(quick=True, seed=902043140)
        assert len(table.rows) == 2
