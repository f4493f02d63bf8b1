"""Admission control for the solve service.

The controller treats the serving system exactly like the paper treats
a frame: the worker pool has a measured capacity (operations the pool
absorbs while staying responsive), every request is a
:class:`~repro.tasks.model.FrameTask` whose cycles are its estimated
work and whose penalty is its client weight, and an
:class:`~repro.core.rejection.online.OnlinePolicy` decides — in arrival
order, irrevocably — whether admitting the request is worth more than
rejecting it.  ``429 Too Many Requests`` *is* task rejection.

Workloads are normalised so the pool capacity is ``1.0`` and priced
through the same XScale energy curve the experiments use
(:func:`~repro.power.polynomial.xscale_power_model`): a request's
admission cost is its *marginal energy* at the current backlog, which is
tiny on an idle pool and steep near saturation — precisely the convex
pressure the paper's threshold rule expects.  A request's penalty is
``weight × capacity_fraction`` so that, under
:class:`~repro.core.rejection.online.ThresholdPolicy` with ``θ = 1``,
default-weight traffic stops being admitted once the backlog passes the
curve's break-even point instead of queueing without bound.

When a request does not fit at all, the controller applies the paper's
*penalty-density* shedding (the ordering behind
:func:`~repro.core.rejection.greedy.greedy_density`): queued — not yet
dispatched — requests with strictly lower density than the newcomer are
evicted cheapest-density-first until it fits, but only when the evicted
penalty is less than the newcomer's.

Sharded serving adds one more gate: with a *budget* ledger attached
(:mod:`repro.service.shard.budget`), every admission leases the
request's units from the fleet-wide budget and every release returns
them, so N shards together never admit more than one paper-faithful
global capacity — a refused lease is a deterministic 429 with reason
``"budget"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._validation import fits
from repro.core.rejection.online import AcceptIfFeasible, OnlinePolicy
from repro.energy import ContinuousEnergyFunction
from repro.obs import counters as obs_counters
from repro.power import xscale_power_model
from repro.tasks.model import FrameTask

__all__ = ["AdmissionController", "AdmissionDecision"]


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict for one arrival.

    Attributes
    ----------
    admitted:
        Whether the request may enter the dispatch queue.
    reason:
        ``"admitted"``, or why not: ``"policy"`` (the online policy
        declined), ``"capacity"`` (does not fit and shedding could not
        profitably make room), ``"deadline"`` (estimated work cannot
        finish inside the client's budget even on an idle pool),
        ``"budget"`` (the fleet-wide capacity ledger refused the lease
        — other shards hold the remaining global headroom).
    shed:
        Request ids evicted from the queue to make room (penalty-density
        order); the server must fail their futures with 429.
    """

    admitted: bool
    reason: str
    shed: tuple[str, ...] = ()


@dataclass
class _Entry:
    task: FrameTask
    queued: bool = field(default=True)


class AdmissionController:
    """Online admission over the pool's measured capacity.

    Parameters
    ----------
    policy:
        Any :class:`OnlinePolicy`; defaults to
        :class:`AcceptIfFeasible` (admit whatever fits).
    capacity_units:
        Backlog the pool tolerates, in the same abstract operation units
        as :func:`repro.service.models.estimate_cost`.
    rate_units_per_s:
        Measured single-request service rate, used for the per-request
        deadline check; ``None`` disables that check.
    budget:
        Optional fleet-wide capacity ledger (anything with the
        ``lease``/``release``/``exchange`` contract of
        :class:`repro.service.shard.budget.GlobalBudget`).  Admitted
        units are leased under *shard_id* and returned on release/shed.
    shard_id:
        This controller's identity in the budget ledger.
    counters:
        Optional :class:`repro.obs.counters.Counters` sink for the
        ``service.admission.*`` counters; defaults to the ambient
        registry (in-process fleets pass their own so per-shard
        counters stay attributed).
    """

    def __init__(
        self,
        policy: OnlinePolicy | None = None,
        *,
        capacity_units: float,
        rate_units_per_s: float | None = None,
        budget=None,
        shard_id: str = "0",
        counters: obs_counters.Counters | None = None,
    ) -> None:
        if not capacity_units > 0:
            raise ValueError(
                f"capacity_units must be > 0, got {capacity_units!r}"
            )
        self.policy = policy if policy is not None else AcceptIfFeasible()
        self.capacity_units = float(capacity_units)
        self.rate_units_per_s = (
            float(rate_units_per_s) if rate_units_per_s else None
        )
        self.budget = budget
        self.shard_id = str(shard_id)
        self._counters = counters
        # Capacity normalised to 1.0: deadline=1 and s_max=1 make
        # max_workload exactly 1, so backlog fractions are workloads.
        self._energy_fn = ContinuousEnergyFunction(
            xscale_power_model(s_max=1.0), deadline=1.0
        )
        self._entries: dict[str, _Entry] = {}
        self._workload = 0.0  # admitted, unfinished (capacity fraction)
        self.admitted_total = 0
        self.rejected_total = 0
        self.shed_total = 0
        self.completed_units = 0.0  # released work, in operation units

    def _emit(self, prefix: str, **values: float) -> None:
        if self._counters is not None:
            for key, value in values.items():
                self._counters.add(f"{prefix}.{key}", value)
        else:
            obs_counters.emit(prefix, **values)

    def _bump(self, name: str) -> None:
        if self._counters is not None:
            self._counters.add(name)
        else:
            obs_counters.add(name)

    # -- accounting -----------------------------------------------------

    @property
    def inflight_units(self) -> float:
        """Admitted-but-unfinished work, in operation units."""
        return self._workload * self.capacity_units

    @property
    def utilisation(self) -> float:
        """Backlog as a fraction of capacity (0 = idle, 1 = saturated)."""
        return self._workload

    def _task_for(self, req_id: str, units: float, weight: float) -> FrameTask:
        frac = units / self.capacity_units
        return FrameTask(name=req_id, cycles=frac, penalty=weight * frac)

    # -- the online decision --------------------------------------------

    def offer(
        self,
        req_id: str,
        units: float,
        weight: float,
        deadline_s: float | None = None,
    ) -> AdmissionDecision:
        """Decide for one arrival; admitted requests start *queued*."""
        if req_id in self._entries:
            raise ValueError(f"request {req_id!r} already admitted")
        if (
            deadline_s is not None
            and self.rate_units_per_s is not None
            and units > self.rate_units_per_s * deadline_s
        ):
            return self._reject("deadline")
        task = self._task_for(req_id, units, weight)
        if fits(self._workload + task.cycles, 1.0):
            if self.policy.admit(task, self._workload, self._energy_fn):
                if self.budget is not None and not self.budget.lease(
                    self.shard_id, task.cycles * self.capacity_units
                ):
                    return self._reject("budget")
                return self._admit(task)
            return self._reject("policy")
        victims = self._shed_plan(task)
        if victims is None:
            return self._reject("capacity")
        freed = sum(self._entries[v].task.cycles for v in victims)
        if not self.policy.admit(task, self._workload - freed, self._energy_fn):
            return self._reject("policy")
        if self.budget is not None and not self.budget.exchange(
            self.shard_id,
            freed * self.capacity_units,
            task.cycles * self.capacity_units,
        ):
            # The exchange rolled back; the victims stay queued.
            return self._reject("budget")
        for victim in victims:
            del self._entries[victim]
        self._workload = max(self._workload - freed, 0.0)
        self.shed_total += len(victims)
        decision = self._admit(task, shed=tuple(victims))
        self._emit("service.admission", shed=len(victims))
        return decision

    def _admit(
        self, task: FrameTask, shed: tuple[str, ...] = ()
    ) -> AdmissionDecision:
        self._entries[task.name] = _Entry(task=task)
        self._workload += task.cycles
        self.admitted_total += 1
        self._emit("service.admission", offered=1, admitted=1)
        return AdmissionDecision(admitted=True, reason="admitted", shed=shed)

    def _reject(self, reason: str) -> AdmissionDecision:
        self.rejected_total += 1
        self._emit("service.admission", offered=1, rejected=1)
        self._bump(f"service.admission.rejected_{reason}")
        return AdmissionDecision(admitted=False, reason=reason)

    def _shed_plan(self, task: FrameTask) -> list[str] | None:
        """Queued victims (density-ascending) that make *task* fit.

        Returns ``None`` when no profitable plan exists: only strictly
        lower-density queued requests may be evicted, and the evicted
        penalty must stay below the newcomer's (otherwise rejecting the
        newcomer is the cheaper decision — the same comparison the
        paper's density greedy makes).
        """
        candidates = sorted(
            (e.task for e in self._entries.values() if e.queued),
            key=lambda t: (t.penalty_density, t.name),
        )
        victims: list[str] = []
        freed = 0.0
        lost_penalty = 0.0
        for victim in candidates:
            if victim.penalty_density >= task.penalty_density:
                break
            victims.append(victim.name)
            freed += victim.cycles
            lost_penalty += victim.penalty
            if lost_penalty >= task.penalty:
                return None
            if fits(self._workload - freed + task.cycles, 1.0):
                return victims
        return None

    # -- lifecycle ------------------------------------------------------

    def dispatched(self, req_id: str) -> None:
        """Mark a request as running: it can no longer be shed."""
        entry = self._entries.get(req_id)
        if entry is not None:
            entry.queued = False

    def release(self, req_id: str) -> None:
        """A request finished (or was dropped): free its capacity.

        Released work accumulates in :attr:`completed_units` — the raw
        total behind the telemetry layer's energy-rate proxy (shed
        requests never reach ``release``, so only work the pool
        actually performed is priced).
        """
        entry = self._entries.pop(req_id, None)
        if entry is not None:
            units = entry.task.cycles * self.capacity_units
            self._workload = max(self._workload - entry.task.cycles, 0.0)
            self.completed_units += units
            if self.budget is not None:
                self.budget.release(self.shard_id, units)

    def stats(self) -> dict:
        """JSON-ready snapshot for ``/metrics``."""
        out = {
            "policy": self.policy.name,
            "capacity_units": self.capacity_units,
            "rate_units_per_s": self.rate_units_per_s,
            "inflight_units": self.inflight_units,
            "utilisation": self.utilisation,
            "admitted": self.admitted_total,
            "rejected": self.rejected_total,
            "shed": self.shed_total,
            "completed_units": self.completed_units,
        }
        if self.budget is not None:
            out["shard"] = self.shard_id
            out["budget"] = self.budget.stats()
        return out
