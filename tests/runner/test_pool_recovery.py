"""map_sweep survives worker deaths and keeps one pool per ``jobs``.

The trial functions live at module level so worker processes can import
them by reference; each is a pure function of ``(seed_tuple, params)``.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.runner import pool
from repro.runner.metrics import RunMetrics, collecting
from repro.runner.pool import map_sweep, map_trials, shutdown_pools, trial_seeds


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
    _assert_recovers(tmp_path, (6,))


def test_recovers_a_whole_sweep_from_a_single_worker_death(tmp_path):
    _assert_recovers(tmp_path, (3, 1, 4))


def _assert_recovers(tmp_path, sizes):
    """One worker dies mid-sweep; the retried sweep merges every trial once."""
    flag = tmp_path / "crashed-once"
    points = [
        (trial_seeds(index, trials), {"flag": str(flag)}, f"p{index}")
        for index, trials in enumerate(sizes)
    ]
    with collecting(RunMetrics(experiment="crash")) as metrics:
        results = map_sweep(_crash_once, points, jobs=2)
    assert results == [[t * 2 for t in range(trials)] for trials in sizes]
    assert flag.exists()
    assert metrics.trials == sum(sizes)
    assert metrics.pool_jobs == [2]


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


#: Opens a 1-worker pool, prints the worker's pid, then waits.
_HOLD_A_POOL = """
import os, sys
from repro.runner.pool import get_executor
print(get_executor(1).submit(os.getpid).result(), flush=True)
sys.stdin.read()
"""


def _alive(pid: int) -> bool:
    """Whether *pid* runs (a zombie nobody has reaped yet counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


def test_worker_exits_when_its_parent_is_killed():
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", _HOLD_A_POOL],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    worker = int(proc.stdout.readline())
    try:
        assert _alive(worker)
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while _alive(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(worker)
    finally:
        if _alive(worker):
            os.kill(worker, signal.SIGKILL)
        proc.kill()
        proc.stdin.close()
        proc.stdout.close()
