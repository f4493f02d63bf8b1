"""Run-time instrumentation for the experiment runner.

A :class:`RunMetrics` collector travels with one ``run_experiment``
invocation and accumulates per-trial wall times, per-trial solver
counters (merged from the :mod:`repro.obs` payloads the pool ships
back), the worker count used for each fan-out, and the cache outcome.
Experiments do not thread the collector through their signatures:
:func:`repro.runner.pool.map_sweep` looks up the *active* collector
(installed with :func:`collecting`) and records into it, so the same
experiment code is instrumented when driven by the runner and free of
overhead when called directly.

Collectors nest: :func:`collecting` keeps a stack and ``map_sweep``
records into the **innermost** collector only, so an experiment driven
inside another instrumented scope never double-records its trials.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

__all__ = ["RunMetrics", "collecting", "current_collector"]


@dataclass
class RunMetrics:
    """Counters for one experiment run.

    Attributes
    ----------
    experiment:
        Experiment name (``fig_r1``).
    jobs:
        Worker count requested for the run (1 = in-process serial).
    cache:
        Cache outcome: ``"hit"``, ``"miss"``, or ``"off"``.
    wall_seconds:
        End-to-end wall time of the run (including cache I/O); always
        strictly positive, cache hits included.
    trial_seconds:
        ``(label, seconds)`` per executed trial, in merge order.
    pool_jobs:
        Worker count actually used, one entry per fan-out: one
        ``map_sweep`` call, which covers a whole experiment's sweep.
    counters:
        Aggregated solver counters (:mod:`repro.obs.counters` payloads
        merged in seed order; identical totals for any ``jobs``).
    manifest:
        Path of the run manifest written for this run, when one was.
    """

    experiment: str
    jobs: int = 1
    cache: str = "off"
    wall_seconds: float = 0.0
    trial_seconds: list[tuple[str, float]] = field(default_factory=list)
    pool_jobs: list[int] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    manifest: str | None = None

    def record_trial(
        self,
        seconds: float,
        label: str | None = None,
        counters: dict | None = None,
    ) -> None:
        """Record one trial's in-worker wall time (+ counter payload)."""
        self.trial_seconds.append((label or self.experiment, seconds))
        if counters:
            for name, value in counters.items():
                self.counters[name] = self.counters.get(name, 0) + value

    def record_pool(self, jobs: int) -> None:
        """Record the worker count one fan-out actually used."""
        self.pool_jobs.append(jobs)

    @property
    def trials(self) -> int:
        """Number of trials executed (0 on a cache hit)."""
        return len(self.trial_seconds)

    @property
    def trial_total_seconds(self) -> float:
        """Summed in-worker trial time (CPU-side work, all workers)."""
        return sum(dt for _, dt in self.trial_seconds)

    @property
    def max_workers(self) -> int:
        """The widest fan-out used (1 when everything ran serially)."""
        return max(self.pool_jobs, default=1)

    def summary_note(self) -> str:
        """One-line summary, appended to ``ExperimentTable.notes``."""
        return (
            f"runner: jobs={self.jobs} cache={self.cache} "
            f"trials={self.trials} wall={self.wall_seconds:.3f}s"
        )

    def summary_line(self) -> str:
        """The always-printed CLI one-liner for this run."""
        return (
            f"{self.experiment}: cache={self.cache} trials={self.trials} "
            f"wall={self.wall_seconds:.3f}s jobs={self.jobs}"
        )

    def as_dict(self) -> dict:
        """JSON-ready summary (the ``--log-json`` record)."""
        return {
            "experiment": self.experiment,
            "cache": self.cache,
            "jobs": self.jobs,
            "trials": self.trials,
            "wall_seconds": self.wall_seconds,
            "trial_total_seconds": self.trial_total_seconds,
            "workers": self.max_workers,
            "counters": dict(self.counters),
            "manifest": self.manifest,
        }

    def report(self) -> str:
        """The multi-line ``--timings`` report."""
        lines = [
            f"-- timings: {self.experiment} --",
            f"jobs requested   : {self.jobs}",
            f"workers used     : {self.max_workers}",
            f"cache            : {self.cache}",
            f"wall time        : {self.wall_seconds:.3f} s",
            f"trials executed  : {self.trials}",
        ]
        if self.trial_seconds:
            total = self.trial_total_seconds
            times = sorted(dt for _, dt in self.trial_seconds)
            lines += [
                f"trial time (sum) : {total:.3f} s",
                f"trial time (mean): {total / len(times):.4f} s",
                f"trial time (max) : {times[-1]:.4f} s",
            ]
            if self.wall_seconds > 0:
                lines.append(
                    f"parallel speedup : {total / self.wall_seconds:.2f}x "
                    "(trial-sum / wall)"
                )
        if self.manifest:
            lines.append(f"manifest         : {self.manifest}")
        return "\n".join(lines)


#: Stack of installed collectors; ``map_sweep`` records into the top.
_STACK: list[RunMetrics] = []


def current_collector() -> RunMetrics | None:
    """The collector installed by the innermost :func:`collecting`."""
    return _STACK[-1] if _STACK else None


@contextlib.contextmanager
def collecting(metrics: RunMetrics):
    """Install *metrics* as the active collector for the ``with`` body.

    Contexts nest; only the innermost collector records, so wrapping an
    already-instrumented run in another ``collecting`` scope does not
    double-record its trials.
    """
    _STACK.append(metrics)
    try:
        yield metrics
    finally:
        _STACK.pop()
