"""Quick-mode smoke + shape tests for every reconstructed experiment.

Each experiment runs in ``quick=True`` mode (small trial counts) and the
test asserts the *structural* expectations: table arity, finite ratios,
and the headline shape claims that survive even tiny samples (e.g. the
FPTAS never loses to the random baseline on average; the leakage-blind
policy is never better than the aware one).
"""

import math

import pytest

from repro.experiments import ALL_EXPERIMENTS


@pytest.fixture(scope="module")
def results():
    return {name: run(quick=True) for name, run in ALL_EXPERIMENTS.items()}


class TestAllRun:
    @pytest.mark.parametrize("name", list(ALL_EXPERIMENTS))
    def test_runs_and_has_rows(self, results, name):
        table = results[name]
        assert table.name == name
        assert len(table.rows) > 0
        for row in table.rows:
            assert len(row) == len(table.columns)

    @pytest.mark.parametrize("name", list(ALL_EXPERIMENTS))
    def test_all_numbers_finite(self, results, name):
        for row in results[name].rows:
            for cell in row:
                if isinstance(cell, float):
                    assert math.isfinite(cell), (name, row)

    @pytest.mark.parametrize("name", list(ALL_EXPERIMENTS))
    def test_deterministic_given_seed(self, name):
        a = ALL_EXPERIMENTS[name](quick=True)
        b = ALL_EXPERIMENTS[name](quick=True)
        if "runtime" in a.title.lower():
            pytest.skip("whole table is wall-clock measurements")
        stable = [
            i
            for i, col in enumerate(a.columns)
            if "runtime" not in col  # wall-clock columns may jitter
        ]
        for row_a, row_b in zip(a.rows, b.rows):
            for i in stable:
                assert row_a[i] == row_b[i], (name, a.columns[i])


class TestShapes:
    def test_fig_r1_ratios_at_least_one(self, results):
        table = results["fig_r1"]
        for column in table.columns[1:]:
            assert all(v >= 1.0 - 1e-9 for v in table.column(column))

    def test_fig_r1_fptas_beats_random(self, results):
        table = results["fig_r1"]
        fptas = table.column("fptas(0.1)")
        rand = table.column("random")
        assert sum(fptas) <= sum(rand) + 1e-9

    def test_fig_r2_sweeps_at_least_three_loads(self, results):
        assert len(results["fig_r2"].rows) >= 3

    def test_fig_r2_accept_all_worst_past_knee(self, results):
        table = results["fig_r2"]
        rows = {row[0]: row for row in table.rows}
        overloaded = max(rows)
        idx = list(table.columns).index("accept_all")
        gm_idx = list(table.columns).index("greedy_marginal")
        assert rows[overloaded][idx] >= rows[overloaded][gm_idx] - 1e-9

    def test_fig_r3_ratios_shrink_with_penalty_scale(self, results):
        table = results["fig_r3"]
        accept_all = table.column("accept_all")
        assert accept_all[-1] <= accept_all[0] + 1e-9

    def test_fig_r4_acceptance_decays_with_load(self, results):
        acceptance = results["fig_r4"].column("opt_acceptance")
        assert acceptance[-1] <= acceptance[0] + 1e-9

    def test_fig_r5_more_levels_cheaper(self, results):
        table = results["fig_r5"]
        optimal = table.column("optimal")
        # Rows are ordered by level count with 'ideal' last.
        assert optimal == sorted(optimal, reverse=True)

    def test_fig_r6_blind_never_beats_aware(self, results):
        table = results["fig_r6"]
        aware = table.column("aware")
        blind = table.column("blind")
        assert all(b >= a - 1e-9 for a, b in zip(aware, blind))

    def test_fig_r7_ltf_beats_rand(self, results):
        table = results["fig_r7"]
        ltf = table.column("ltf_reject")
        rand = table.column("rand_reject")
        assert sum(ltf) <= sum(rand) + 1e-9

    def test_fig_r8_density_beats_size_order(self, results):
        table = results["fig_r8"]
        density = table.column("rho/c")
        size = table.column("-c")
        assert sum(density) <= sum(size) + 1e-9

    def test_fig_r9_threshold_beats_reject_all(self, results):
        table = results["fig_r9"]
        theta1 = table.column("threshold(1)")
        reject_all = table.column("reject_all")
        assert all(t <= r + 1e-9 for t, r in zip(theta1, reject_all))

    def test_fig_r10_greedy_near_optimal(self, results):
        ratios = results["fig_r10"].column("greedy_ratio")
        assert all(r >= 1.0 - 1e-9 for r in ratios)
        assert sum(ratios) / len(ratios) < 1.5

    def test_fig_r11_reclamation_never_misses_and_saves_more_later(self, results):
        table = results["fig_r11"]
        savings = table.column("saving")
        assert all(m == 0 for m in table.column("misses"))
        assert savings[-1] >= savings[0] - 1e-9  # earlier completion, more saving

    def test_fig_r12_acceptance_decays_with_overlap(self, results):
        acceptance = results["fig_r12"].column("opt_acceptance")
        assert acceptance[-1] <= acceptance[0] + 1e-9

    def test_fig_r13_heterogeneity_hurts_the_blind_policy(self, results):
        blind = results["fig_r13"].column("blind")
        assert blind[-1] >= blind[0] - 1e-9

    def test_tab_r1_fptas_accuracy_improves(self, results):
        ratios = results["tab_r1"].column("mean_ratio")
        assert ratios[-1] <= ratios[0] + 1e-9

    def test_tab_r2_validates_simulator(self, results):
        table = results["tab_r2"]
        assert all(err <= 1e-6 for err in table.column("rel_err"))
        assert all(m == 0 for m in table.column("misses"))

    def test_tab_r3_quantum_cost_monotone(self, results):
        ratios = results["tab_r3"].column("mean_ratio")
        assert all(r >= 1.0 - 1e-9 for r in ratios)
        assert ratios[0] == pytest.approx(1.0)

    def test_tab_r4_sweeps_at_least_two_sizes(self, results):
        assert len(results["tab_r4"].rows) >= 2
