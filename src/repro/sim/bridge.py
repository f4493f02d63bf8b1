"""Trace-replay bridge: the simulator's arrivals as live server load.

The point of the simulator is falsifiable: its rejection decisions must
be reproducible against the *real* ``repro serve`` admission controller,
not just against a second run of itself.  This module closes that loop:

* :func:`arrival_body` materialises one arrival as a complete ``POST
  /solve`` JSON body — a real, solvable instance whose task count is
  the arrival's ``n``, so the server's
  :func:`repro.service.models.estimate_cost` charges *exactly* the same
  work units the simulator charged.  Bodies derive from the arrival's
  ``instance_seed`` via ``random.Random`` (no NumPy), so a trace is
  reproducible from the arrival stream alone;
* :func:`write_trace` / :func:`load_trace` move traces as JSONL — one
  header line of metadata, then one :func:`trace_line` per arrival
  carrying the timestamp, the body, and the simulator's verdict;
* ``repro bench-serve --replay <trace>`` (see
  :func:`repro.service.loadgen.run_replay`) fires the trace at a live
  server in arrival order and collects per-request verdicts;
* :func:`paired_summary` renders the simulated and served outcomes side
  by side — offered / accepted / rejected counts, rejection rate,
  penalty cost priced identically on both sides
  (``weight × units / capacity``), and energy: measured joules for the
  simulator, the same power model's busy-time pricing applied to the
  served acceptance set for the server (a model-priced proxy, labelled
  as such).

Determinism contract: the trace file is a pure function of
``(family, count, seed)`` plus the admission configuration; replaying
the same trace in ``sequential`` mode presents the server with the same
request sequence in the same order the simulator saw.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any

from repro.analysis.tables import ExperimentTable
from repro.energy import ContinuousEnergyFunction
from repro.power import xscale_power_model
from repro.sim.engine import Decision, SimReport
from repro.sim.workload import Arrival
from repro.tasks.model import FrameTask, FrameTaskSet

__all__ = [
    "TRACE_FORMAT",
    "arrival_body",
    "load_trace",
    "paired_summary",
    "trace_line",
    "write_trace",
]

TRACE_FORMAT = "repro-sim-trace/1"


def arrival_body(arrival: Arrival) -> dict[str, Any]:
    """The ``POST /solve`` body for one arrival (NumPy-free, seeded).

    The instance is a real frame-based rejection problem: ``n`` tasks
    whose total load is drawn in the same 0.8–2.2 band the loadgen
    uses, priced through the standard XScale curve.  Only ``n``,
    ``algorithm`` and ``eps`` affect the server's admission cost, so the
    simulator and the server agree on every arrival's work units by
    construction.
    """
    from repro.core.rejection import RejectionProblem
    from repro.io import instance_to_dict

    rng = random.Random(arrival.instance_seed)
    energy_fn = ContinuousEnergyFunction(xscale_power_model(), deadline=1.0)
    load = rng.uniform(0.8, 2.2)
    raw = [rng.uniform(0.5, 1.5) for _ in range(arrival.n)]
    scale = load * energy_fn.max_workload / sum(raw)
    tasks = FrameTaskSet(
        FrameTask(
            name=f"t{i}",
            cycles=raw[i] * scale,
            penalty=round(rng.uniform(0.05, 0.5), 9),
        )
        for i in range(arrival.n)
    )
    problem = RejectionProblem(tasks=tasks, energy_fn=energy_fn)
    return {
        "instance": instance_to_dict(problem),
        "algorithm": arrival.algorithm,
        "eps": arrival.eps,
        "weight": arrival.weight,
        "deadline_s": arrival.deadline_s,
    }


def trace_line(arrival: Arrival, decision: Decision) -> str:
    """One arrival's trace line (JSON, no newline) with its verdict.

    :func:`write_trace` writes these, and ``bench-serve --replay``
    rebuilds them from a re-simulation to refuse an edited trace.
    """
    return json.dumps(
        {
            "i": arrival.index,
            "t": arrival.time,
            "req_id": arrival.req_id,
            "units": arrival.units,
            "weight": arrival.weight,
            "deadline_s": arrival.deadline_s,
            "admitted": decision.admitted,
            "reason": decision.reason,
            "shed": list(decision.shed),
            "body": arrival_body(arrival),
        },
        sort_keys=True,
    )


def write_trace(
    path: Path | str,
    arrivals: tuple[Arrival, ...],
    report: SimReport,
    *,
    meta: dict[str, Any] | None = None,
) -> Path:
    """Write the replayable JSONL trace for a finished simulation."""
    if len(report.decisions) != len(arrivals):
        raise ValueError(
            f"report carries {len(report.decisions)} decisions for "
            f"{len(arrivals)} arrivals"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "format": TRACE_FORMAT,
        "count": len(arrivals),
        "capacity_units": report.capacity_units,
        "rate_units_per_s": report.rate_units_per_s,
        "decision_digest": report.decision_digest(),
    }
    header.update(meta or {})
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for arrival, decision in zip(arrivals, report.decisions):
            fh.write(trace_line(arrival, decision) + "\n")
    return path


def load_trace(path: Path | str) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read a trace file back as ``(header, entries)``; validates format."""
    with open(path) as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trace file")
    header = json.loads(lines[0])
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(
            f"{path}: not a {TRACE_FORMAT} trace "
            f"(format={header.get('format')!r})"
        )
    entries = [json.loads(line) for line in lines[1:]]
    if len(entries) != header.get("count", len(entries)):
        raise ValueError(
            f"{path}: header says {header.get('count')} entries, "
            f"found {len(entries)}"
        )
    return header, entries


def _penalty_cost(entries: list[dict[str, Any]], capacity: float) -> float:
    """Σ weight × units / capacity over the given entries."""
    return sum(e["weight"] * e["units"] / capacity for e in entries)


def paired_summary(
    report: SimReport,
    entries: list[dict[str, Any]],
    served: list[tuple[str, int, str]],
    *,
    speed: float | None = None,
    served_samples: list[tuple[bool, float | None]] | None = None,
    served_window_s: float | None = None,
) -> ExperimentTable:
    """Simulated vs. served outcomes for the same trace, side by side.

    Parameters
    ----------
    report:
        The simulator's :class:`SimReport` for the trace.
    entries:
        The trace entries (:func:`load_trace`); supplies units/weights.
    served:
        Per-request server outcomes in trace order:
        ``(req_id, http_status, reason)`` with ``reason`` the server's
        rejection reason (``"admitted"`` for 200s).
    speed:
        Speed used to price served busy time; defaults to the report's.
    served_samples:
        Optional client-observed SLO samples in the shared
        ``(ok, latency_s | None)`` schema of
        :mod:`repro.obs.runtime.slo` (e.g. ``PassStats.slo_samples``
        from the replay).  When given, the table's notes gain one
        "SLO drift" row per objective comparing the simulator's
        attainment (:meth:`SimReport.slo_summary`) with the served one.
    served_window_s:
        Evaluation window for *served_samples*; defaults to the replay
        wall time being unknown, so pass the loadgen's ``elapsed_s``.
    """
    if len(served) != len(entries):
        raise ValueError(
            f"{len(served)} served outcomes for {len(entries)} trace entries"
        )
    by_id = {e["req_id"]: e for e in entries}
    cap = report.capacity_units
    model = xscale_power_model(s_max=1.0)
    s = model.clamp_speed(speed if speed is not None else report.speed)

    served_rejected = [
        by_id[rid] for rid, status, _ in served if status == 429
    ]
    served_ok = [by_id[rid] for rid, status, _ in served if status == 200]
    served_other = len(served) - len(served_rejected) - len(served_ok)
    # Model-priced proxy: the energy the simulator's cores would burn
    # executing the served acceptance set (busy time at P(s)).
    served_busy = sum(e["units"] for e in served_ok) / (
        report.rate_units_per_s * s
    )
    served_energy = model.power(s) * served_busy

    sim_rejected = [
        by_id[d.req_id]
        for d in report.decisions
        if not d.admitted or d.req_id in _shed_ids(report)
    ]

    matched = sum(
        1
        for (rid, status, _), d in zip(served, report.decisions)
        if rid == d.req_id
        and (status == 200) == (d.admitted and rid not in _shed_ids(report))
    )

    table = ExperimentTable(
        name="sim_replay",
        title="Simulated vs. served rejection on the same arrival trace",
        columns=(
            "stream",
            "offered",
            "accepted",
            "rejected",
            "reject_rate",
            "penalty_cost",
            "energy_j",
        ),
        notes=[
            "penalty_cost = sum(weight x units / capacity) over rejected "
            "arrivals, priced identically on both rows",
            "sim energy is the engine's measured joules; served energy is "
            "the same power model applied to the served acceptance set "
            "(model-priced proxy)",
            f"decisions matched: {matched}/{len(served)}",
        ],
    )
    if served_samples is not None:
        from repro.obs.runtime.slo import summarize_slo

        window = max(served_window_s or 0.0, 1e-9)
        served_slo = {
            r.objective.name: r
            for r in summarize_slo(served_samples, window_s=window)
        }
        for sim_res in report.slo_summary():
            srv = served_slo.get(sim_res.objective.name)
            if srv is None:  # pragma: no cover - objective sets match
                continue
            table.notes.append(
                f"SLO drift {sim_res.objective.name}: "
                f"sim={sim_res.attainment * 100:.3f}% "
                f"served={srv.attainment * 100:.3f}% "
                f"delta={(srv.attainment - sim_res.attainment) * 100:+.3f}pp"
            )
    table.add_row(
        "sim",
        report.offered,
        report.completed,
        report.rejected + report.shed,
        report.rejection_rate,
        report.penalty_cost,
        report.total_energy,
    )
    table.add_row(
        "served",
        len(served),
        len(served_ok),
        len(served_rejected) + served_other,
        (len(served_rejected) + served_other) / len(served) if served else 0.0,
        _penalty_cost(served_rejected, cap),
        served_energy,
    )
    assert abs(_penalty_cost(sim_rejected, cap) - report.penalty_cost) < 1e-6
    return table


def _shed_ids(report: SimReport) -> frozenset[str]:
    return frozenset(
        victim for d in report.decisions for victim in d.shed
    )
