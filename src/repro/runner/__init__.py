"""Parallel, cached experiment runner.

The substrate every paper-scale sweep goes through:

* :mod:`repro.runner.pool` — deterministic trial-level fan-out
  (``map_trials``) over a shared process pool, with a no-pool
  ``jobs=1`` path;
* :mod:`repro.runner.cache` — experiment tables in the package's one
  content-addressed store (:mod:`repro._store`) under ``results/.cache/``;
* :mod:`repro.runner.metrics` — wall-time / cache / worker counters
  surfaced in table notes and the ``--timings`` report.

:func:`run_experiment` ties the three together for the CLI: resolve the
cache key, return the stored table on a hit, otherwise execute the
experiment's ``run(..., jobs=N)`` under a metrics collector and store
the result.

The determinism contract (see ``docs/runner.md``): an experiment's
table cells depend only on ``(name, params, seed, code)`` — never on
``jobs``, worker scheduling, or cache state.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from repro.analysis.tables import ExperimentTable
from repro.obs.manifest import write_manifest
from repro.runner import cache
from repro.runner.cache import cache_key, code_fingerprint
from repro.runner.metrics import RunMetrics, collecting, current_collector
from repro.runner.pool import map_trials, shutdown_pools, trial_seeds

__all__ = [
    "RunMetrics",
    "cache",
    "cache_key",
    "code_fingerprint",
    "collecting",
    "current_collector",
    "map_trials",
    "run_experiment",
    "shutdown_pools",
    "trial_seeds",
]


def run_experiment(
    name: str,
    *,
    run_fn: Callable[..., ExperimentTable] | None = None,
    quick: bool = False,
    seed: int | None = None,
    jobs: int = 1,
    use_cache: bool = True,
) -> tuple[ExperimentTable, RunMetrics]:
    """Run one experiment through the cache + pool, with metrics.

    Returns ``(table, metrics)``.  The cache key deliberately excludes
    ``jobs``: serial and parallel runs produce (and share) the same
    entry.  The stored table never contains the runner note — that is
    appended after the cache round-trip so entries stay byte-stable.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if run_fn is None:
        from repro.experiments import ALL_EXPERIMENTS

        try:
            run_fn = ALL_EXPERIMENTS[name]
        except KeyError:
            raise KeyError(f"unknown experiment {name!r}") from None

    params: dict = {"quick": quick}
    if seed is not None:
        params["seed"] = seed

    metrics = RunMetrics(experiment=name, jobs=jobs)
    start = time.perf_counter()
    key = cache_key(name, params, seed=seed)

    if use_cache:
        table = cache.load(key)
        if table is not None:
            metrics.cache = "hit"
            metrics.wall_seconds = _elapsed(start)
            _write_run_manifest(metrics, key, params, seed)
            table.notes.append(metrics.summary_note())
            return table, metrics
        metrics.cache = "miss"
    else:
        metrics.cache = "off"

    with collecting(metrics):
        table = run_fn(jobs=jobs, **params)
    if use_cache:
        cache.store(key, table)
    metrics.wall_seconds = _elapsed(start)
    _write_run_manifest(metrics, key, params, seed)
    table.notes.append(metrics.summary_note())
    return table, metrics


def _elapsed(start: float) -> float:
    """Wall time since *start*, clamped strictly positive.

    Cache hits can resolve within a single clock tick on coarse
    ``perf_counter`` platforms; reports must still show a real duration.
    """
    return max(time.perf_counter() - start, 1e-9)


def _write_run_manifest(
    metrics: RunMetrics, key: str, params: dict, seed: int | None
) -> None:
    """Write the run manifest and record its path; never fail the run."""
    try:
        path = write_manifest(
            experiment=metrics.experiment,
            key=key,
            code=code_fingerprint(),
            params=params,
            seed=seed,
            cache=metrics.cache,
            jobs=metrics.jobs,
            wall_seconds=metrics.wall_seconds,
            trial_seconds=metrics.trial_seconds,
            counters=metrics.counters,
        )
    except OSError:
        return  # manifest dir unwritable: observability must not break runs
    metrics.manifest = str(path)
