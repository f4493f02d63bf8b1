"""Trial-level fan-out for the experiment modules.

Every experiment sweep point is ``trials`` independent repetitions, each
fully determined by a seed tuple (the same ``[seed, t]`` sequence that
``trial_rngs`` feeds ``np.random.default_rng``).  :func:`map_trials`
runs a pure, module-level *trial function* over those seed tuples —
serially when ``jobs=1`` (no pool, no pickling, no overhead), or on a
shared :class:`~concurrent.futures.ProcessPoolExecutor` when ``jobs>1``
— and always returns the per-trial fragments **in seed order**, so the
merged table is identical regardless of worker completion order.

The trial function contract:

* it is a module-level callable ``fn(seed_tuple, params)`` (so worker
  processes can import it by reference);
* it derives *every* random draw from ``seed_tuple`` — no closure over
  generators, no module-level RNG state;
* ``params`` and the returned fragment are plain picklable data.

Observability rides the same rails: each trial runs under a fresh
:mod:`repro.obs.counters` registry (and, when the parent has a trace
sink installed, an in-memory span buffer), and the worker ships the
snapshot back with the fragment.  The parent merges counter payloads
into its active registry and the metrics collector — and re-emits
captured spans plus one synthetic ``trial`` span per trial — **in seed
order**, so ``--jobs N`` aggregates to exactly the totals of a serial
run.

Executors are created lazily, keyed by worker count, reused across
sweep points and experiments in the same process, and shut down at
interpreter exit.  A batch smaller than ``jobs`` still runs on the
``jobs``-worker executor, so mixed batch sizes share one pool.  A
worker death (``BrokenProcessPool``) evicts the poisoned executor,
rebuilds it, and retries the batch once before raising, so one crash
never disables the pool for the rest of the process.

A forked worker inherits every fd its parent had open, and the pool's
own plumbing is all pipes, so the initializer closes each inherited
socket: a server's listener (or its port would keep queueing
connections after the server closed it) and any open client
connection (or that client would never see EOF after the server
closed its end).
"""

from __future__ import annotations

import atexit
import functools
import os
import stat
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.obs import counters as obs_counters
from repro.obs import trace as obs_trace
from repro.runner.metrics import current_collector

__all__ = [
    "evict_executor",
    "get_executor",
    "map_trials",
    "shutdown_pools",
    "trial_seeds",
]

#: Live executors, keyed by worker count.
_EXECUTORS: dict[int, ProcessPoolExecutor] = {}


def trial_seeds(seed: int, trials: int) -> list[tuple[int, int]]:
    """The per-trial seed tuples matching ``trial_rngs(seed, trials)``."""
    return [(int(seed), t) for t in range(trials)]


def shutdown_pools() -> None:
    """Shut down every pooled executor (idempotent)."""
    while _EXECUTORS:
        _, executor = _EXECUTORS.popitem()
        executor.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pools)


def _close_inherited_sockets() -> None:
    """Pool initializer: close every socket fd >= 3 the worker inherited.

    fds 0-2 stay, even when one is a socket (stdin can be).  Under the
    spawn and forkserver start methods nothing is inherited, and
    ``/dev/fd`` then lists only the worker's own pipes.
    """
    for name in os.listdir("/dev/fd"):
        fd = int(name)
        try:
            if fd >= 3 and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:  # the listing's own descriptor, closed by now
            continue


def get_executor(jobs: int) -> ProcessPoolExecutor:
    """The persistent executor for *jobs* workers (created on first use).

    Executors are shared process-wide: the experiment runner and the
    solve service (:mod:`repro.service`) draw from the same cache, so a
    warm pool survives across callers and is shut down once at
    interpreter exit.  Callers that see a :class:`BrokenProcessPool`
    must call :func:`evict_executor` before retrying — the broken
    instance is poisoned permanently.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    executor = _EXECUTORS.get(jobs)
    if executor is None:
        executor = ProcessPoolExecutor(
            max_workers=jobs, initializer=_close_inherited_sockets
        )
        _EXECUTORS[jobs] = executor
    return executor


def evict_executor(jobs: int) -> None:
    """Drop (and best-effort shut down) the cached executor for *jobs*.

    A :class:`BrokenProcessPool` poisons its executor permanently;
    leaving it in the cache would fail every later ``map_trials`` call in
    the process, so the broken instance must be evicted and replaced.
    """
    executor = _EXECUTORS.pop(jobs, None)
    if executor is not None:
        executor.shutdown(wait=False, cancel_futures=True)


def _timed_call(
    trial_fn,
    seed_tuple,
    params,
    capture_spans: bool = False,
    label: str | None = None,
):
    """Worker-side wrapper: run one trial under a fresh obs capture.

    Returns ``(fragment, seconds, counters, spans)`` where *counters* is
    the trial's counter snapshot (``None`` when the trial emitted none)
    and *spans* the captured span records plus one synthetic ``trial``
    span whose duration is exactly *seconds* — the same number the
    metrics collector records, so a trace and its manifest always agree
    on per-trial time (``None`` unless *capture_spans*).
    """
    sink = obs_trace.MemorySink() if capture_spans else None
    t0 = time.time()
    start = time.perf_counter()
    with obs_counters.counting() as registry:
        if sink is not None:
            with obs_trace.tracing(sink):
                fragment = trial_fn(seed_tuple, params)
        else:
            fragment = trial_fn(seed_tuple, params)
    seconds = time.perf_counter() - start
    counters = registry.snapshot() or None
    spans = None
    if sink is not None:
        sink.emit(
            {
                "name": "trial",
                "t0": t0,
                "dur": seconds,
                "depth": 0,
                "pid": os.getpid(),
                "attrs": {
                    "label": label,
                    "seed": [int(part) for part in seed_tuple],
                },
            }
        )
        spans = sink.records
    return fragment, seconds, counters, spans


def map_trials(
    trial_fn: Callable,
    seeds: Iterable[Sequence[int]],
    params: dict | None = None,
    *,
    jobs: int = 1,
    label: str | None = None,
) -> list:
    """Run ``trial_fn(seed_tuple, params)`` for every seed tuple.

    Returns the fragments in the order of *seeds*, regardless of which
    worker finishes first.  ``jobs=1`` bypasses the pool entirely and
    runs in-process; ``jobs`` below 1 is an error.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seed_list = [tuple(int(part) for part in seed) for seed in seeds]
    collector = current_collector()
    registry = obs_counters.active()
    sink = obs_trace.active_sink()

    def merge(item) -> object:
        """Fold one trial's payloads into the parent-side consumers."""
        fragment, seconds, counters, spans = item
        if collector is not None:
            collector.record_trial(seconds, label=label, counters=counters)
        if registry is not None and counters:
            registry.merge(counters)
        if sink is not None and spans:
            for record in spans:
                sink.emit(record)
        return fragment

    if jobs == 1 or len(seed_list) <= 1:
        if collector is not None:
            collector.record_pool(1)
        return [
            merge(
                _timed_call(
                    trial_fn,
                    seed_tuple,
                    params,
                    capture_spans=sink is not None,
                    label=label,
                )
            )
            for seed_tuple in seed_list
        ]

    if collector is not None:
        collector.record_pool(min(jobs, len(seed_list)))
    call = functools.partial(
        _timed_call,
        trial_fn,
        params=params,
        capture_spans=sink is not None,
        label=label,
    )
    # A worker dying mid-batch (OOM-kill, segfault, os._exit in the trial
    # fn) breaks the whole pool.  Evict the poisoned executor, rebuild it,
    # and retry the batch once from scratch — trial fns are pure functions
    # of (seed_tuple, params), so a rerun is safe.  A second failure is a
    # deterministic crash in the trial fn itself: surface it clearly.
    for attempt in (1, 2):
        results = []
        try:
            # executor.map preserves input order: the deterministic merge.
            for item in get_executor(jobs).map(call, seed_list):
                results.append(item)
            break
        except BrokenProcessPool as exc:
            evict_executor(jobs)
            if attempt == 2:
                raise RuntimeError(
                    f"map_trials({getattr(trial_fn, '__name__', trial_fn)!r}) "
                    f"lost a worker process twice in a row; the trial "
                    f"function likely crashes the interpreter "
                    f"(exit/abort/OOM) deterministically"
                ) from exc
    return [merge(item) for item in results]
