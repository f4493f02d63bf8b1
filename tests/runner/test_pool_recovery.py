"""map_trials survives worker deaths and keeps one pool per ``jobs``.

The trial functions live at module level so worker processes can import
them by reference; each is a pure function of ``(seed_tuple, params)``.
"""

import os

import pytest

from repro.runner import pool
from repro.runner.metrics import RunMetrics, collecting
from repro.runner.pool import map_trials, shutdown_pools, trial_seeds


@pytest.fixture(autouse=True)
def _fresh_pools():
    """Start and end each test without cached executors."""
    shutdown_pools()
    yield
    shutdown_pools()


def _ok(seed_tuple, params):
    return seed_tuple[1] * 2


def _crash_once(seed_tuple, params):
    """Kill the first worker to claim the flag file; succeed afterwards.

    ``os.open(..., O_EXCL)`` makes the claim atomic, so exactly one
    process dies no matter how the batch is scheduled: the first attempt
    breaks the pool, the retry runs clean.
    """
    try:
        fd = os.open(params["flag"], os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return seed_tuple[1] * 2
    os.close(fd)
    os._exit(13)


def _always_crash(seed_tuple, params):
    os._exit(17)


def test_recovers_from_a_single_worker_death(tmp_path):
    flag = tmp_path / "crashed-once"
    seeds = trial_seeds(0, 6)
    results = map_trials(
        _crash_once, seeds, {"flag": str(flag)}, jobs=2
    )
    assert results == [t * 2 for _, t in seeds]
    assert flag.exists()


def test_deterministic_crasher_raises_a_clear_error():
    with pytest.raises(RuntimeError, match="twice in a row"):
        map_trials(_always_crash, trial_seeds(0, 4), jobs=2)


def test_pool_is_usable_after_a_failed_batch():
    with pytest.raises(RuntimeError):
        map_trials(_always_crash, trial_seeds(0, 4), jobs=2)
    # The poisoned executor was evicted, so the next call gets a fresh
    # pool instead of an instant BrokenProcessPool.
    assert map_trials(_ok, trial_seeds(0, 4), jobs=2) == [0, 2, 4, 6]


def test_serial_path_is_untouched():
    assert map_trials(_ok, trial_seeds(0, 3), jobs=1) == [0, 2, 4]


def test_mixed_batch_sizes_share_one_executor():
    with collecting(RunMetrics(experiment="mixed")) as metrics:
        for trials in (4, 3, 2):
            assert map_trials(_ok, trial_seeds(0, trials), jobs=4) == [
                2 * t for t in range(trials)
            ]
    assert list(pool._EXECUTORS) == [4]
    # The reported width is still the batch's, not the pool's.
    assert metrics.pool_jobs == [4, 3, 2]
