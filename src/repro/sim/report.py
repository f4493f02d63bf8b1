"""Provenance, running and rendering for simulation runs (``repro sim``).

:func:`sim_params` is the dict that identifies a run, and
:func:`simulate` is the one function that runs it, for ``repro sim`` and
for ``bench-serve --replay`` alike.

Mirrors what ``repro run`` does for the offline experiments: the
simulation's outcome becomes an :class:`~repro.analysis.tables.ExperimentTable`
for the terminal (or ``--json``), and every run writes a manifest
through the same :func:`repro.obs.manifest.write_manifest` path the
experiment runner uses — content-addressed by the full parameter set,
with per-completed-request "trials" so ``repro stats <manifest>`` works
on simulation manifests unchanged.

Determinism: ``wall_seconds`` records the *simulated* makespan, not the
host's wall clock, and the trial list is the (deterministic) completed
jobs with their simulated response times — so two runs with the same
seed produce byte-identical manifests except for the ``created``
timestamp that :func:`write_manifest` stamps.
"""

from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path
from typing import Any

from repro.analysis.tables import ExperimentTable
from repro.runner.cache import cache_key, code_fingerprint
from repro.sim.engine import ArrivalSimulator, SimReport
from repro.sim.workload import Arrival, make_arrivals

__all__ = ["sim_params", "sim_table", "simulate", "write_sim_manifest"]


def sim_table(report: SimReport, *, family: str, seed: int) -> ExperimentTable:
    """The per-run summary table (one row per admission outcome)."""
    table = ExperimentTable(
        name=f"sim_{family}",
        title=(
            f"Arrival simulation: family={family} seed={seed} "
            f"cores={report.cores}"
        ),
        columns=("outcome", "count", "rate", "penalty_cost", "units"),
        notes=[
            f"makespan={report.makespan:.6f}s busy={report.busy_time:.6f}s "
            f"idle={report.idle_time:.6f}s",
            f"energy: active={report.energy_active:.6f}J "
            f"idle={report.energy_idle:.6f}J "
            f"switch={report.energy_switch:.6f}J "
            f"total={report.total_energy:.6f}J "
            f"({report.context_switches} context switches)",
            f"deadline misses among admitted jobs: {len(report.misses)}",
            f"decision digest: {report.decision_digest()}",
        ],
    )
    offered = report.offered or 1
    by_outcome: dict[str, list] = {"completed": [], "rejected": [], "shed": []}
    for record in report.records:
        by_outcome[record.outcome].append(record)
    for outcome in ("completed", "rejected", "shed"):
        records = by_outcome[outcome]
        penalty = (
            0.0
            if outcome == "completed"
            else float(
                sum(r.weight * r.units / report.capacity_units for r in records)
            )
        )
        table.add_row(
            outcome,
            len(records),
            len(records) / offered,
            penalty,
            float(sum(r.units for r in records)),
        )
    return table


def sim_params(
    *,
    family: str,
    count: int,
    seed: int,
    cores: int,
    policy: str,
    capacity_units: float,
    rate_units_per_s: float,
    speed: float,
    context_switch_s: float,
    context_switch_j: float,
    cores_spec: str | None = None,
    theta: float = 1.0,
    reserve: bool = False,
    deadline_check: bool = True,
    mk_m: int = 1,
    mk_k: int = 2,
) -> dict[str, Any]:
    """The canonical parameter dict identifying one simulation run.

    It is everything :func:`simulate` needs to rebuild the run.
    ``cores_spec`` names a heterogeneous core set ('lp:2,hp:1') and the
    (m,k) window is recorded only for the ``mk`` policy; both are only
    included when used, so homogeneous manifests keep their shape.
    """
    params = {
        "family": family,
        "count": count,
        "cores": cores,
        "policy": policy,
        "capacity_units": capacity_units,
        "rate_units_per_s": rate_units_per_s,
        "speed": speed,
        "context_switch_s": context_switch_s,
        "context_switch_j": context_switch_j,
        "seed": seed,
    }
    if cores_spec is not None:
        params["cores_spec"] = cores_spec
    params["theta"] = theta
    params["reserve"] = reserve
    params["deadline_check"] = deadline_check
    if policy == "mk":
        params["mk_m"] = mk_m
        params["mk_k"] = mk_k
    return params


def simulate(
    params: Mapping[str, Any],
) -> tuple[tuple[Arrival, ...], SimReport]:
    """Build and run the simulation a :func:`sim_params` dict describes.

    ``repro sim`` runs the dict it records in its manifest and trace
    header, and ``bench-serve --replay`` rebuilds the run from that
    header, so a trace always names the run it came from.  Keys an
    older header lacks take the :func:`sim_params` defaults.  Raises
    ``KeyError`` for a missing required key and ``ValueError`` for a
    value the simulator refuses.
    """
    from repro.core.rejection.online import policy_from_spec
    from repro.hetero.platform import parse_cores_spec

    arrivals = make_arrivals(params["family"], params["count"], params["seed"])
    policy = policy_from_spec(
        params["policy"],
        theta=params.get("theta", 1.0),
        reserve=params.get("reserve", False),
        mk_m=params.get("mk_m", 1),
        mk_k=params.get("mk_k", 2),
    )
    cores_spec = params.get("cores_spec")
    report = ArrivalSimulator(
        arrivals,
        cores=params["cores"],
        policy=policy,
        capacity_units=params["capacity_units"],
        rate_units_per_s=params["rate_units_per_s"],
        speed=params.get("speed", 1.0),
        context_switch_s=params.get("context_switch_s", 0.0),
        context_switch_j=params.get("context_switch_j", 0.0),
        deadline_check=params.get("deadline_check", True),
        platform=parse_cores_spec(cores_spec) if cores_spec else None,
    ).run()
    return arrivals, report


def write_sim_manifest(
    report: SimReport,
    *,
    family: str,
    seed: int,
    params: dict[str, Any],
    manifest_dir: Path | None = None,
) -> Path:
    """Write the run manifest; returns its path.

    The manifest's "trials" are the completed requests with their
    simulated response times, so ``repro stats`` digests a simulation
    manifest exactly like an experiment manifest.
    """
    from repro.obs.manifest import write_manifest

    experiment = f"sim_{family}"
    code = code_fingerprint()
    key = cache_key(experiment, params, seed=seed, code_version=code)
    trial_seconds = [
        (r.req_id, r.response_s)
        for r in report.records
        if r.outcome == "completed"
    ]
    counters = {
        "sim.offered": report.offered,
        "sim.admitted": report.admitted,
        "sim.rejected": report.rejected,
        "sim.shed": report.shed,
        "sim.completed": report.completed,
        "sim.deadline_misses": len(report.misses),
        "sim.context_switches": report.context_switches,
        "sim.penalty_cost": report.penalty_cost,
        "sim.energy_total_j": report.total_energy,
        "sim.makespan_s": report.makespan,
    }
    return write_manifest(
        experiment=experiment,
        key=key,
        code=code,
        params=params,
        seed=seed,
        cache="none",
        jobs=1,
        wall_seconds=report.makespan,
        trial_seconds=trial_seconds,
        counters=counters,
        manifest_dir=manifest_dir,
    )
