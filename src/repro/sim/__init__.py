"""Discrete-event arrival simulation with online rejection.

The live-traffic counterpart of the frame-based experiments: seeded
aperiodic/periodic arrival streams (:mod:`repro.sim.workload`) run
against per-core EDF queues with preemption and context-switch costs
(:mod:`repro.sim.engine`, built on :mod:`repro.sched.edf`), with an
accept/reject verdict at every arrival instant from the *same*
:class:`~repro.service.admission.AdmissionController` +
:class:`~repro.core.rejection.online.OnlinePolicy` pair that backs
``repro serve`` — a simulated rejection and a served 429 are one
decision, not two implementations.  :mod:`repro.sim.bridge` exports a
simulation's arrivals as a replayable request trace for
``repro bench-serve --replay`` and renders the paired
simulated-vs-served comparison; :mod:`repro.sim.report` writes tables
and run manifests like ``repro run`` does.  Entirely NumPy-free.
"""

from repro.sim.bridge import (
    TRACE_FORMAT,
    arrival_body,
    load_trace,
    paired_summary,
    write_trace,
)
from repro.sim.engine import (
    ArrivalRecord,
    ArrivalSimulator,
    Decision,
    SimReport,
)
from repro.sim.report import (
    sim_params,
    sim_table,
    simulate,
    write_sim_manifest,
)
from repro.sim.workload import ARRIVAL_FAMILIES, Arrival, make_arrivals

__all__ = [
    "ARRIVAL_FAMILIES",
    "Arrival",
    "ArrivalRecord",
    "ArrivalSimulator",
    "Decision",
    "SimReport",
    "TRACE_FORMAT",
    "arrival_body",
    "load_trace",
    "make_arrivals",
    "paired_summary",
    "sim_params",
    "sim_table",
    "simulate",
    "write_sim_manifest",
]
