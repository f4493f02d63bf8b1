"""Tests for the leakage-aware (critical-speed) energy function."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.energy import ContinuousEnergyFunction, CriticalSpeedEnergyFunction
from repro.power import DormantMode, PolynomialPowerModel, xscale_power_model


@pytest.fixture
def model():
    return xscale_power_model()


class TestPolicy:
    def test_never_runs_below_critical_speed(self, model):
        g = CriticalSpeedEnergyFunction(model, deadline=1.0)
        s_star = model.critical_speed()
        assert g.execution_speed(0.01) == pytest.approx(s_star)
        assert g.execution_speed(0.9) == pytest.approx(0.9)

    def test_energy_linear_below_critical_workload(self, model):
        g = CriticalSpeedEnergyFunction(model, deadline=1.0)
        w = model.critical_speed() / 2.0
        assert g.energy(2 * w / 2) * 2 == pytest.approx(g.energy(w) * 2)
        assert g.energy(w) == pytest.approx(g.energy(w / 2) * 2, rel=1e-9)

    def test_above_critical_matches_continuous_plus_floor(self, model):
        # Past the clamp the execution segment fills the whole deadline,
        # so the only difference from the continuous model is the static
        # term being counted (busy time * beta0).
        g = CriticalSpeedEnergyFunction(model, deadline=1.0)
        cont = ContinuousEnergyFunction(model, deadline=1.0)
        w = 0.9  # > s* = 0.297
        assert g.energy(w) == pytest.approx(cont.energy(w) + 0.08 * 1.0)

    def test_running_at_critical_speed_beats_stretching(self):
        # A high-leakage model: slowing to the deadline must cost MORE
        # than the clamped policy.
        model = PolynomialPowerModel(beta0=0.5, beta1=1.0, alpha=3.0)
        g = CriticalSpeedEnergyFunction(model, deadline=1.0)
        w = 0.1
        stretched = (w / (w / 1.0)) * model.power(w / 1.0)  # run at W/D
        assert g.energy(w) < stretched

    def test_unbounded_speed_overflow_is_refused(self):
        # s_max = inf admits the workload; its speed's power does not fit
        # a float, and the refusal names the workload.
        model = PolynomialPowerModel(beta1=1.52, alpha=3.0, s_max=float("inf"))
        g = CriticalSpeedEnergyFunction(model, deadline=1.0)
        with pytest.raises(ValueError, match=r"workload 1e\+120 .* overflows"):
            g.energy(1e120)
        with pytest.raises(ValueError, match=r"workload 1e\+120 .* overflows"):
            g.energy_many([0.5, 1e120])

    def test_zero_workload_sleeps_for_free_with_zero_overhead(self, model):
        g = CriticalSpeedEnergyFunction(model, deadline=1.0)
        assert g.energy(0.0) == 0.0

    def test_zero_workload_idles_when_sleep_expensive(self, model):
        dm = DormantMode(t_sw=0.0, e_sw=100.0)
        g = CriticalSpeedEnergyFunction(model, deadline=1.0, dormant=dm)
        assert g.energy(0.0) == pytest.approx(0.08 * 1.0)

    def test_sleep_needs_enough_slack(self, model):
        dm = DormantMode(t_sw=0.95, e_sw=0.0001)
        g = CriticalSpeedEnergyFunction(model, deadline=1.0, dormant=dm)
        # Busy 0.9 of the frame -> slack 0.1 < t_sw: must idle.
        w = 0.9
        expected_idle = 0.08 * (1.0 - w / g.execution_speed(w))
        assert g.energy(w) == pytest.approx(
            (w / 0.9) * model.power(0.9) + expected_idle
        )


class TestConvexity:
    @given(
        a=st.floats(min_value=0.0, max_value=1.0),
        b=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_convex_with_zero_sleep_energy(self, a, b):
        g = CriticalSpeedEnergyFunction(xscale_power_model(), deadline=1.0)
        assert g.is_convex
        mid = (a + b) / 2.0
        assert g.energy(mid) <= (g.energy(a) + g.energy(b)) / 2.0 + 1e-12

    def test_nonzero_sleep_energy_flags_nonconvex(self):
        dm = DormantMode(e_sw=0.01)
        g = CriticalSpeedEnergyFunction(
            xscale_power_model(), deadline=1.0, dormant=dm
        )
        assert not g.is_convex
        lb = g.convex_lower_bound()
        assert lb.is_convex

    @given(w=st.floats(min_value=0.0, max_value=1.0))
    def test_convex_lower_bound_is_pointwise_lower(self, w):
        dm = DormantMode(t_sw=0.1, e_sw=0.05)
        g = CriticalSpeedEnergyFunction(
            xscale_power_model(), deadline=1.0, dormant=dm
        )
        assert g.convex_lower_bound().energy(w) <= g.energy(w) + 1e-12

    @given(w=st.floats(min_value=0.0, max_value=0.9))
    def test_nondecreasing(self, w):
        g = CriticalSpeedEnergyFunction(xscale_power_model(), deadline=1.0)
        assert g.energy(w) <= g.energy(w + 0.1) + 1e-12


class TestPlan:
    def test_plan_sleeps_after_execution(self, model):
        dm = DormantMode(t_sw=0.01, e_sw=0.001)
        g = CriticalSpeedEnergyFunction(model, deadline=1.0, dormant=dm)
        plan = g.plan(0.1)
        assert plan.segments[-1].is_sleep
        assert plan.total_cycles == pytest.approx(0.1)
        assert plan.energy == pytest.approx(g.energy(0.1))

    def test_break_even_time_matches_dormant(self, model):
        dm = DormantMode(t_sw=0.2, e_sw=0.04)
        g = CriticalSpeedEnergyFunction(model, deadline=1.0, dormant=dm)
        assert g.break_even_time() == pytest.approx(max(0.04 / 0.08, 0.2))
