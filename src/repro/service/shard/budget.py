"""The fleet-wide admission capacity ledger.

Nélis et al.'s global-vs-partitioned capacity analysis maps directly
onto sharded serving: N per-shard admission controllers each enforcing
a *private* capacity behave like a partitioned scheduler — a saturated
shard rejects work the fleet could still absorb, and a quiet fleet can
over-admit N× the intended load.  The paper's single-policy semantics
need one *global* budget that every shard leases from at admission
time and releases on completion, so the fleet admits exactly what one
big controller with the summed capacity would.

:class:`GlobalBudget` is that ledger: in memory and lock-protected,
shared by every shard of one :class:`~repro.service.shard.fleet
.LocalFleet` (the Hypothesis property test pins that leases never
exceed the budget under any interleaving of its ops).
"""

from __future__ import annotations

import threading

from repro._validation import fits, require_positive

__all__ = ["GlobalBudget"]


class GlobalBudget:
    """In-memory capacity ledger: shards lease units, never over budget.

    All mutation methods are atomic under one lock; ``lease`` refuses
    (returns ``False``) rather than blocks, so a shard's admission path
    turns a refusal into a deterministic 429 with reason ``"budget"``.
    """

    def __init__(self, budget_units: float) -> None:
        require_positive("budget_units", budget_units)
        self.budget_units = float(budget_units)
        self._lock = threading.Lock()
        self._held: dict[str, float] = {}
        self.leases = 0
        self.refusals = 0

    # -- the ledger ops -------------------------------------------------

    def lease(self, shard: str, units: float) -> bool:
        """Reserve *units* for *shard*; ``False`` if it would overdraw."""
        if units < 0:
            raise ValueError(f"units must be >= 0, got {units!r}")
        with self._lock:
            return self._lease_locked(shard, units)

    def release(self, shard: str, units: float) -> None:
        """Return *units* of *shard*'s leases (clamped to what it holds)."""
        if units < 0:
            raise ValueError(f"units must be >= 0, got {units!r}")
        with self._lock:
            self._release_locked(shard, units)

    def exchange(
        self, shard: str, release_units: float, acquire_units: float
    ) -> bool:
        """Atomically release then lease (the shed path).

        The admission controller evicts queued victims to make room for
        a denser newcomer; their capacity must come back and the
        newcomer's go out in one step, or a concurrent shard could
        grab the freed room in between.  On refusal the release is
        rolled back — the caller has not evicted anything yet.
        """
        with self._lock:
            held_before = self._held.get(shard, 0.0)
            self._release_locked(shard, release_units)
            if self._lease_locked(shard, acquire_units):
                return True
            if held_before:
                self._held[shard] = held_before
            else:
                self._held.pop(shard, None)
            return False

    # -- locked primitives ----------------------------------------------

    def _lease_locked(self, shard: str, units: float) -> bool:
        total = sum(self._held.values())
        if not fits(total + units, self.budget_units):
            self.refusals += 1
            return False
        self._held[str(shard)] = self._held.get(str(shard), 0.0) + units
        self.leases += 1
        return True

    def _release_locked(self, shard: str, units: float) -> None:
        shard = str(shard)
        held = self._held.get(shard, 0.0)
        remaining = max(held - units, 0.0)
        if remaining:
            self._held[shard] = remaining
        else:
            self._held.pop(shard, None)

    # -- inspection -----------------------------------------------------

    @property
    def leased_units(self) -> float:
        """Total units currently leased across all shards."""
        with self._lock:
            return sum(self._held.values())

    def held(self, shard: str) -> float:
        """Units currently leased by one shard."""
        with self._lock:
            return self._held.get(str(shard), 0.0)

    def stats(self) -> dict:
        """JSON-ready snapshot for ``/metrics``."""
        with self._lock:
            held = dict(sorted(self._held.items()))
        return {
            "budget_units": self.budget_units,
            "leased_units": sum(held.values()),
            "held": held,
            "leases": self.leases,
            "refusals": self.refusals,
        }

