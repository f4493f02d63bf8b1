"""The fleet-wide admission capacity ledger.

Nélis et al.'s global-vs-partitioned capacity analysis maps directly
onto sharded serving: N per-shard admission controllers each enforcing
a *private* capacity behave like a partitioned scheduler — a saturated
shard rejects work the fleet could still absorb, and a quiet fleet can
over-admit N× the intended load.  The paper's single-policy semantics
need one *global* budget that every shard leases from at admission
time and releases on completion, so the fleet admits exactly what one
big controller with the summed capacity would.

Two implementations share one interface:

:class:`GlobalBudget`
    An in-memory, lock-protected ledger for in-process fleets (tests,
    the saturation bench) and for a router-held ledger.

:class:`FileBudget`
    The same ledger persisted as one JSON state file guarded by an
    ``fcntl`` file lock (with an ``O_EXCL`` lockfile fallback where
    ``fcntl`` is unavailable), so N independent ``repro serve``
    processes coordinate through the filesystem.  State writes are
    atomic (:func:`repro._store.atomic_write_json`) and a corrupt state
    file is treated as an empty ledger.

Crash recovery: a shard that died holding leases would otherwise leak
its capacity forever.  :meth:`forfeit` drops *every* lease a shard
holds in one atomic step; a restarting shard calls it before serving,
so a recovering shard can always lease again (the Hypothesis property
test pins both invariants: leases never exceed the budget, and forfeit
always unblocks the shard that crashed).
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from pathlib import Path

from repro._store import atomic_write_json
from repro._validation import fits, require_positive

try:  # POSIX file locks; the lockfile fallback covers the rest.
    import fcntl
except ImportError:  # pragma: no cover - non-posix platform
    fcntl = None

__all__ = ["FileBudget", "GlobalBudget"]

#: State-file schema version (bump to invalidate old ledgers).
BUDGET_FORMAT = 1


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

    def forfeit(self, shard: str) -> float:
        """Drop every lease *shard* holds (crash recovery); returns them."""
        with self._lock:
            return self._held.pop(shard, 0.0)

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


class FileBudget:
    """The same ledger shared across processes through one state file.

    Every operation takes the file lock, reads the JSON state, mutates,
    and writes it back atomically — slow compared to the in-memory
    ledger, but admission decisions happen once per request, not per
    packet, and the state is a handful of floats.

    Parameters
    ----------
    path:
        The JSON state file (created on first use; parent directories
        too).
    budget_units:
        The authoritative fleet budget.  The constructor argument wins
        over whatever an existing state file says — a fleet restart
        with a new ``--capacity`` must not be haunted by the old one.
    reset:
        Start from an empty ledger (the fleet parent passes ``True``
        once at startup; shards attach with ``False``).
    """

    _LOCK_TIMEOUT_S = 30.0

    def __init__(
        self, path: Path | str, budget_units: float, *, reset: bool = False
    ) -> None:
        require_positive("budget_units", budget_units)
        self.path = Path(path)
        self.budget_units = float(budget_units)
        self.leases = 0
        self.refusals = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if reset:
            with self._locked():
                self._write({})

    # -- file plumbing --------------------------------------------------

    @contextlib.contextmanager
    def _locked(self):
        lock_path = self.path.with_name(self.path.name + ".lock")
        if fcntl is not None:
            with open(lock_path, "a+") as handle:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            return
        # Portable fallback: an O_EXCL sentinel with a staleness bound.
        deadline = time.monotonic() + self._LOCK_TIMEOUT_S
        sentinel = self.path.with_name(self.path.name + ".sentinel")
        while True:  # pragma: no cover - non-posix platform
            try:
                fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                break
            except FileExistsError:
                if time.monotonic() > deadline:
                    with contextlib.suppress(OSError):
                        sentinel.unlink()  # assume the holder died
                    deadline = time.monotonic() + self._LOCK_TIMEOUT_S
                time.sleep(0.005)
        try:  # pragma: no cover - non-posix platform
            yield
        finally:
            with contextlib.suppress(OSError):
                sentinel.unlink()

    def _read(self) -> dict[str, float]:
        """The held-units map; corruption reads as an empty ledger."""
        try:
            state = json.loads(self.path.read_text())
            if state["format"] != BUDGET_FORMAT:
                return {}
            return {
                str(shard): float(units)
                for shard, units in state["held"].items()
            }
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return {}

    def _write(self, held: dict[str, float]) -> None:
        state = {
            "format": BUDGET_FORMAT,
            "budget_units": self.budget_units,
            "held": {s: u for s, u in sorted(held.items()) if u > 0},
        }
        atomic_write_json(self.path, state)

    # -- the ledger ops (same contract as GlobalBudget) -----------------

    def lease(self, shard: str, units: float) -> bool:
        if units < 0:
            raise ValueError(f"units must be >= 0, got {units!r}")
        with self._locked():
            held = self._read()
            if not fits(sum(held.values()) + units, self.budget_units):
                self.refusals += 1
                return False
            held[str(shard)] = held.get(str(shard), 0.0) + units
            self._write(held)
        self.leases += 1
        return True

    def release(self, shard: str, units: float) -> None:
        if units < 0:
            raise ValueError(f"units must be >= 0, got {units!r}")
        with self._locked():
            held = self._read()
            shard = str(shard)
            remaining = max(held.get(shard, 0.0) - units, 0.0)
            if remaining:
                held[shard] = remaining
            else:
                held.pop(shard, None)
            self._write(held)

    def exchange(
        self, shard: str, release_units: float, acquire_units: float
    ) -> bool:
        with self._locked():
            held = self._read()
            shard = str(shard)
            trial = dict(held)
            reduced = max(trial.get(shard, 0.0) - release_units, 0.0)
            trial[shard] = reduced
            if not fits(
                sum(trial.values()) + acquire_units, self.budget_units
            ):
                self.refusals += 1
                return False
            trial[shard] = reduced + acquire_units
            self._write(trial)
        self.leases += 1
        return True

    def forfeit(self, shard: str) -> float:
        with self._locked():
            held = self._read()
            units = held.pop(str(shard), 0.0)
            self._write(held)
        return units

    # -- inspection -----------------------------------------------------

    @property
    def leased_units(self) -> float:
        with self._locked():
            return sum(self._read().values())

    def held(self, shard: str) -> float:
        with self._locked():
            return self._read().get(str(shard), 0.0)

    def stats(self) -> dict:
        with self._locked():
            held = dict(sorted(self._read().items()))
        return {
            "budget_units": self.budget_units,
            "leased_units": sum(held.values()),
            "held": held,
            "leases": self.leases,
            "refusals": self.refusals,
            "path": str(self.path),
        }
