"""The fuzz driver behind ``repro verify``.

One *trial* = pick a strategy (round-robin so every adversarial family
gets equal budget), draw an instance from a per-trial deterministic RNG
(``default_rng([seed, trial])`` — trial ``k`` of seed ``S`` is the same
instance forever), and run the full differential cross-check.  A trial
that produces violations is shrunk with :mod:`repro.verify.shrink` and
written out as reproducer JSON that ``repro solve`` can replay.

The report separates *trials* (instances checked) from *violations*
(individual invariant breaks) so a single pathological instance that
trips five checkers still reads as one failing trial.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro._store import atomic_write_json
from repro.core.rejection import MultiprocRejectionProblem, RejectionProblem
from repro.hetero.assign import HeteroRejectionProblem
from repro.io import instance_to_dict, save_instance
from repro.obs import counters as obs_counters
from repro.obs.trace import span
from repro.verify.oracles import crosscheck
from repro.verify.shrink import shrink_hetero, shrink_multiproc, shrink_problem
from repro.verify.strategies import ALL_STRATEGIES, Strategy


@dataclass(frozen=True)
class VerifyFailure:
    """One failing trial: the (shrunk) instance plus its violations."""

    strategy: str
    trial: int
    violations: tuple[str, ...]
    reproducer: Path | None


@dataclass
class VerifyReport:
    """Outcome of a verification run."""

    seed: int
    trials: int = 0
    per_strategy: dict[str, int] = field(default_factory=dict)
    failures: list[VerifyFailure] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no trial produced a violation."""
        return not self.failures

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"verify: {self.trials} trials, seed {self.seed}, "
            f"{len(self.failures)} failing"
        ]
        for name in sorted(self.per_strategy):
            lines.append(f"  {name}: {self.per_strategy[name]} trials")
        for failure in self.failures:
            where = f" -> {failure.reproducer}" if failure.reproducer else ""
            lines.append(
                f"FAIL [{failure.strategy} trial {failure.trial}]{where}"
            )
            for violation in failure.violations:
                lines.append(f"    {violation}")
        return "\n".join(lines)


def _still_fails(problem) -> bool:
    """Shrink predicate: does the cross-check still find anything?"""
    try:
        return bool(crosscheck(problem))
    except Exception:  # noqa: BLE001 - crashing is still failing
        return True


def _write_reproducer(
    problem,
    out_dir: Path,
    *,
    strategy: str,
    seed: int,
    trial: int,
    violations: list,
) -> Path:
    """Save the instance JSON + a sidecar describing why it failed."""
    stem = f"verify-{strategy}-seed{seed}-trial{trial}"
    algorithm = "exhaustive"
    if isinstance(problem, MultiprocRejectionProblem):
        # Instance JSON carries the shared task set + platform; `m` and
        # the replay hint live in the sidecar (repro solve is uniproc).
        path = out_dir / f"{stem}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        uni = RejectionProblem(tasks=problem.tasks, energy_fn=problem.energy_fn)
        atomic_write_json(path, instance_to_dict(uni), indent=2)
        extra = {"m": problem.m}
    else:
        # Uniproc and hetero instances round-trip through repro.io
        # directly (the hetero schema carries the platform and mk spec).
        path = save_instance(problem, out_dir / f"{stem}.json")
        extra = {}
        if isinstance(problem, HeteroRejectionProblem):
            algorithm = "exhaustive_hetero"
    meta = {
        "strategy": strategy,
        "seed": seed,
        "trial": trial,
        "violations": [str(v) for v in violations],
        "replay": f"repro solve {path.name} --algorithm {algorithm}",
        **extra,
    }
    atomic_write_json(path.with_suffix(".meta.json"), meta, indent=2)
    return path


def run_verification(
    *,
    budget: int = 200,
    seed: int = 0,
    strategies: tuple[Strategy, ...] = ALL_STRATEGIES,
    out_dir: str | Path | None = None,
    shrink: bool = True,
    log: Callable[[str], None] | None = None,
) -> VerifyReport:
    """Run *budget* differential-testing trials and return the report.

    Parameters
    ----------
    budget:
        Number of instances to generate and cross-check.
    seed:
        Root seed; trial ``t`` uses ``default_rng([seed, t])`` so any
        failing trial can be regenerated in isolation.
    strategies:
        Adversarial families to rotate through (round-robin).
    out_dir:
        Where to write reproducer JSON for failing trials (skipped when
        None).
    shrink:
        Minimise failing instances before reporting (disable for speed
        when triaging a flood of failures).
    log:
        Optional sink for one progress line per failure.
    """
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget!r}")
    report = VerifyReport(seed=seed)
    out_path = Path(out_dir) if out_dir is not None else None
    parent_registry = obs_counters.active()
    with obs_counters.counting() as registry:
        for trial in range(budget):
            strategy = strategies[trial % len(strategies)]
            rng = np.random.default_rng([seed, trial])
            report.trials += 1
            report.per_strategy[strategy.name] = (
                report.per_strategy.get(strategy.name, 0) + 1
            )
            obs_counters.add(f"verify.{strategy.name}.trials")
            with span("verify.trial", strategy=strategy.name, trial=trial):
                problem = strategy.build(rng)
                try:
                    violations = crosscheck(problem, rng=rng)
                except Exception as exc:  # noqa: BLE001 - harness must not die
                    violations = [f"harness: crosscheck crashed: {exc!r}"]
            if not violations:
                continue
            obs_counters.add("verify.findings")
            obs_counters.add(
                f"verify.{strategy.name}.violations", len(violations)
            )
            _handle_failure(
                report,
                problem,
                violations,
                strategy=strategy,
                seed=seed,
                trial=trial,
                out_path=out_path,
                shrink=shrink,
                log=log,
            )
    report.counters = registry.snapshot()
    if parent_registry is not None:
        parent_registry.merge(report.counters)
    return report


def _handle_failure(
    report: VerifyReport,
    problem,
    violations: list,
    *,
    strategy: Strategy,
    seed: int,
    trial: int,
    out_path: Path | None,
    shrink: bool,
    log: Callable[[str], None] | None,
) -> None:
    """Shrink, persist, and record one failing trial."""
    if shrink:
        with span("verify.shrink", strategy=strategy.name, trial=trial):
            if isinstance(problem, HeteroRejectionProblem):
                problem = shrink_hetero(problem, _still_fails)
            elif isinstance(problem, MultiprocRejectionProblem):
                problem = shrink_multiproc(problem, _still_fails)
            else:
                problem = shrink_problem(problem, _still_fails)
            try:
                final = crosscheck(problem)
            except Exception as exc:  # noqa: BLE001
                final = [
                    f"harness: crosscheck crashed on shrunk instance: {exc!r}"
                ]
        if final:
            violations = final
    reproducer = None
    if out_path is not None:
        reproducer = _write_reproducer(
            problem,
            out_path,
            strategy=strategy.name,
            seed=seed,
            trial=trial,
            violations=violations,
        )
    failure = VerifyFailure(
        strategy=strategy.name,
        trial=trial,
        violations=tuple(str(v) for v in violations),
        reproducer=reproducer,
    )
    report.failures.append(failure)
    if log is not None:
        log(
            f"FAIL [{strategy.name} trial {trial}]: "
            f"{failure.violations[0]}"
        )
