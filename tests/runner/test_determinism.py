"""Serial/parallel differential harness for the experiment runner.

The runner's contract is that ``jobs`` is *purely* a throughput knob:
for any experiment, ``run(jobs=1)`` and ``run(jobs=N)`` must produce
identical tables cell-for-cell (and byte-identical CSVs), and a
cache-warm rerun must reproduce the cold run exactly.  Three
representative experiments cover the structurally distinct trial
shapes: ``fig_r1`` (per-sweep-point heuristic roster with a randomised
solver), ``fig_r11`` (EDF simulation with a nested actuals stream and a
skip-empty-trial branch), and ``tab_r2`` (periodic reduction +
simulator validation with integer miss counters).
"""

from __future__ import annotations

import time

import pytest

from repro.experiments import ALL_EXPERIMENTS, fig_r1
from repro.obs import MemorySink, counters, tracing
from repro.runner import map_sweep, map_trials, run_experiment, trial_seeds
from repro.runner.metrics import RunMetrics, collecting

REPRESENTATIVES = ("fig_r1", "fig_r11", "tab_r2")


@pytest.fixture(scope="module")
def serial_tables():
    return {
        name: ALL_EXPERIMENTS[name](quick=True, jobs=1)
        for name in REPRESENTATIVES
    }


class TestSerialParallelIdentical:
    @pytest.mark.parametrize("name", REPRESENTATIVES)
    def test_tables_identical_cell_for_cell(self, serial_tables, name):
        parallel = ALL_EXPERIMENTS[name](quick=True, jobs=4)
        serial = serial_tables[name]
        assert list(parallel.columns) == list(serial.columns)
        assert len(parallel.rows) == len(serial.rows)
        for row_s, row_p in zip(serial.rows, parallel.rows):
            for col, cell_s, cell_p in zip(serial.columns, row_s, row_p):
                assert cell_s == cell_p, (name, col)

    def test_csv_byte_identical(self, serial_tables, tmp_path):
        parallel = ALL_EXPERIMENTS["fig_r1"](quick=True, jobs=4)
        path_s = serial_tables["fig_r1"].to_csv(tmp_path / "serial.csv")
        path_p = parallel.to_csv(tmp_path / "parallel.csv")
        assert path_s.read_bytes() == path_p.read_bytes()

    def test_fragment_order_follows_seeds_not_completion(self):
        seeds = trial_seeds(123, 8)
        serial = map_trials(_echo_seed, seeds, jobs=1)
        parallel = map_trials(_echo_seed, seeds, jobs=4)
        assert serial == [tuple(s) for s in seeds]
        assert parallel == serial


    def test_sweep_merges_like_serial_when_later_points_finish_first(self):
        serial = _sweep(jobs=1)
        parallel = _sweep(jobs=2)
        # Precondition: on the pool, every trial of the later points
        # ended before the slow first point's one trial.
        ends = {
            record["attrs"]["label"]: record["t0"] + record["dur"]
            for record in parallel["spans"]
            if record["name"] == "trial"
        }
        assert max(ends["p1"], ends["p2"]) < ends["p0"]
        for key in ("fragments", "counters", "labels"):
            assert parallel[key] == serial[key], key
        assert [_shape(r) for r in parallel["spans"]] == [
            _shape(r) for r in serial["spans"]
        ]
        assert serial["fragments"] == [
            [(0, 0)],
            [(1, t) for t in range(4)],
            [(2, t) for t in range(3)],
        ]

    @pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
    def test_one_fan_out_per_experiment(self, name):
        _, metrics = run_experiment(name, quick=True, jobs=2, use_cache=False)
        assert len(metrics.pool_jobs) == 1, metrics.pool_jobs


def _echo_seed(seed_tuple, params):
    return seed_tuple


def _slow_first_point(seed_tuple, params):
    """Sleep ``params["delay"]``, count, open a span and echo the seed."""
    from repro.obs.trace import span

    with span("inner.work", trial=seed_tuple[1]):
        time.sleep(params["delay"])
    counters.emit("demo", calls=1, value=seed_tuple[0] + 0.25 * seed_tuple[1])
    return seed_tuple


def _sweep(jobs):
    """A three-point sweep whose first point is one slow trial."""
    points = [
        (trial_seeds(0, 1), {"delay": 0.5}, "p0"),
        (trial_seeds(1, 4), {"delay": 0.0}, "p1"),
        (trial_seeds(2, 3), {"delay": 0.0}, "p2"),
    ]
    metrics = RunMetrics(experiment="sweep", jobs=jobs)
    sink = MemorySink()
    with counters.counting() as registry, collecting(metrics), tracing(sink):
        fragments = map_sweep(_slow_first_point, points, jobs=jobs)
    return {
        "fragments": fragments,
        "counters": (registry.snapshot(), metrics.counters),
        "labels": [label for label, _ in metrics.trial_seconds],
        "spans": sink.records,
    }


def _shape(record):
    """A span record without its timing and process fields."""
    return (record["name"], record["depth"], record["attrs"])


class TestCacheWarmEqualsCold:
    @pytest.mark.parametrize("name", REPRESENTATIVES)
    def test_warm_rerun_reproduces_cold(self, name):
        cold, cold_metrics = run_experiment(name, quick=True, jobs=1)
        warm, warm_metrics = run_experiment(name, quick=True, jobs=1)
        assert cold_metrics.cache == "miss"
        assert warm_metrics.cache == "hit"
        assert warm_metrics.trials == 0  # nothing recomputed
        assert list(warm.columns) == list(cold.columns)
        for row_c, row_w in zip(cold.rows, warm.rows):
            for cell_c, cell_w in zip(row_c, row_w):
                assert cell_c == cell_w, name

    def test_warm_csv_byte_identical(self, tmp_path):
        cold, _ = run_experiment("fig_r1", quick=True)
        warm, _ = run_experiment("fig_r1", quick=True)
        path_c = cold.to_csv(tmp_path / "cold.csv")
        path_w = warm.to_csv(tmp_path / "warm.csv")
        assert path_c.read_bytes() == path_w.read_bytes()

    def test_serial_and_parallel_share_the_entry(self):
        _, m1 = run_experiment("fig_r1", quick=True, jobs=1)
        _, m4 = run_experiment("fig_r1", quick=True, jobs=4)
        assert m1.cache == "miss"
        assert m4.cache == "hit"

    def test_no_cache_always_recomputes(self):
        _, first = run_experiment("fig_r1", quick=True, use_cache=False)
        _, second = run_experiment("fig_r1", quick=True, use_cache=False)
        assert first.cache == "off"
        assert second.cache == "off"
        assert second.trials > 0


class TestRunnerApi:
    def test_jobs_zero_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            map_trials(_echo_seed, trial_seeds(0, 2), jobs=0)
        with pytest.raises(ValueError, match="jobs"):
            run_experiment("fig_r1", quick=True, jobs=0)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig_r99", quick=True)

    def test_trial_seeds_match_trial_rngs(self):
        import numpy as np

        from repro.experiments.common import trial_rng, trial_rngs

        reference = [g.random() for g in trial_rngs(7, 4)]
        rebuilt = [trial_rng(s).random() for s in trial_seeds(7, 4)]
        assert reference == rebuilt
        assert isinstance(trial_rng((7, 0)), np.random.Generator)

    def test_derived_rng_streams_are_independent(self):
        from repro.experiments.common import derived_rng, trial_rng

        seed = (42, 3)
        trial_draw = trial_rng(seed).random()
        a = derived_rng(seed, "random").random()
        b = derived_rng(seed, "rand_reject").random()
        # Distinct streams, and none aliases the trial stream.
        assert len({trial_draw, a, b}) == 3
        # Stable: the same label always reproduces the same stream.
        assert derived_rng(seed, "random").random() == a

    def test_run_experiment_appends_runner_note(self):
        table, metrics = run_experiment("fig_r1", quick=True)
        assert table.notes[-1] == metrics.summary_note()
        assert "cache=miss" in table.notes[-1]
