"""Yao–Demers–Shenker (FOCS'95) optimal continuous speed schedule.

Input: aperiodic jobs, each with arrival ``a``, deadline ``d`` and cycles
``c``; a processor with a continuous, unbounded speed range and convex
power.  YDS repeatedly finds the *critical interval* — the window
``[t1, t2]`` maximising the intensity ``Σ c / (t2 − t1)`` over jobs fully
contained in it — schedules those jobs there at the critical intensity
(EDF order inside the window), removes them, and collapses the window out
of the timeline.  The result minimises ``∫ P(s(t)) dt`` for every convex
``P`` simultaneously.

Role in this library: an independent optimality oracle for the
speed-assignment layer (frame-based inputs must reduce to the single
common speed ``W/D``) and the standard slack-analysis tool.
"""

from __future__ import annotations

import heapq as _heapq
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro._validation import require_nonnegative, require_positive
from repro.power.base import PowerModel

#: Horizon-relative length below which a mapped slice is rounding noise.
_SLIVER_RTOL = 1e-13


@dataclass(frozen=True)
class Job:
    """An aperiodic job for YDS scheduling."""

    name: str
    arrival: float
    deadline: float
    cycles: float

    def __post_init__(self) -> None:
        require_nonnegative("arrival", self.arrival)
        require_positive("cycles", self.cycles)
        if self.deadline <= self.arrival:
            raise ValueError(
                f"job {self.name!r}: deadline {self.deadline} must exceed "
                f"arrival {self.arrival}"
            )


@dataclass(frozen=True)
class ScheduledSlice:
    """One constant-speed execution slice of the YDS schedule."""

    job: str
    start: float
    end: float
    speed: float


@dataclass(frozen=True)
class YdsSchedule:
    """The full optimal schedule.

    Attributes
    ----------
    slices:
        Execution slices in time order (gaps are idle time).
    intensities:
        The critical intensities in the order discovered
        (non-increasing — a structural YDS invariant the tests check).
    """

    slices: tuple[ScheduledSlice, ...]
    intensities: tuple[float, ...]

    @property
    def max_speed(self) -> float:
        """The peak speed used (the first critical intensity)."""
        return max((s.speed for s in self.slices), default=0.0)

    def energy(self, power_model: PowerModel) -> float:
        """Energy of the schedule under *power_model* (dynamic power)."""
        return sum(
            power_model.dynamic_power(s.speed) * (s.end - s.start)
            for s in self.slices
        )

    def feasible(self, jobs: Sequence[Job], *, tol: float = 1e-9) -> bool:
        """Check every job runs within [arrival, deadline] and completes."""
        done: dict[str, float] = {}
        window = {j.name: (j.arrival, j.deadline) for j in jobs}
        for s in self.slices:
            a, d = window[s.job]
            if s.start < a - tol or s.end > d + tol:
                return False
            done[s.job] = done.get(s.job, 0.0) + (s.end - s.start) * s.speed
        return all(
            math.isclose(done.get(j.name, 0.0), j.cycles, rel_tol=1e-9, abs_tol=tol)
            for j in jobs
        )


def _critical_interval(jobs: list[Job]) -> tuple[float, float, float]:
    """(t1, t2, intensity) of the maximum-intensity interval.

    Candidate endpoints are arrivals (left) and deadlines (right); the
    intensity counts jobs with ``[a, d] ⊆ [t1, t2]``.
    """
    starts = sorted({j.arrival for j in jobs})
    ends = sorted({j.deadline for j in jobs})
    best = (0.0, 1.0, -math.inf)
    for t1 in starts:
        for t2 in ends:
            if t2 <= t1:
                continue
            load = sum(
                j.cycles for j in jobs if j.arrival >= t1 and j.deadline <= t2
            )
            if load <= 0.0:
                continue
            intensity = load / (t2 - t1)
            if intensity > best[2]:
                best = (t1, t2, intensity)
    return best


def yds_schedule(jobs: Iterable[Job]) -> YdsSchedule:
    """Compute the YDS-optimal schedule for *jobs*.

    O(n³)-ish reference implementation (the critical interval is found by
    scanning all arrival/deadline pairs) — fine for the oracle role; the
    library never puts it on a hot path.
    """
    remaining = list(jobs)
    if not remaining:
        return YdsSchedule(slices=(), intensities=())
    names = [j.name for j in remaining]
    if len(set(names)) != len(names):
        raise ValueError("job names must be unique")

    original_windows = {j.name: (j.arrival, j.deadline) for j in remaining}
    # Mapping collapsed instants back through the carves rounds by a few
    # ulps of the horizon, so the tolerance scales with it; pieces shorter
    # than that are rounding noise, not execution.
    sliver = _SLIVER_RTOL * max(1.0, max(j.deadline for j in remaining))
    slices: list[ScheduledSlice] = []
    intensities: list[float] = []

    # Work on a copy whose time axis gets collapsed after each round.
    # `carved` holds, in ORIGINAL coordinates, the (disjoint, sorted)
    # intervals already claimed by earlier rounds; collapsed coordinates
    # are original coordinates with those intervals removed.
    carved: list[tuple[float, float]] = []

    def to_original(t: float) -> float:
        """Map a collapsed-time instant back to original time."""
        shift = t
        for a, b in carved:
            if a <= shift + 1e-15:
                shift += b - a
            else:
                break
        return shift

    def original_pieces(s: float, e: float) -> list[tuple[float, float]]:
        """Original-time image of the collapsed interval [s, e].

        The image is [to(s), to(e)] minus the carved gaps inside it — a
        collapsed interval can straddle windows claimed by earlier
        (higher-intensity) rounds, so it maps to multiple pieces.
        """
        lo, hi = to_original(s), to_original(e)
        pieces: list[tuple[float, float]] = []
        cursor = lo
        for a, b in carved:
            if b <= cursor + sliver or a >= hi - sliver:
                continue
            if a > cursor + sliver:
                pieces.append((cursor, a))
            cursor = max(cursor, b)
        if cursor < hi - sliver:
            pieces.append((cursor, hi))
        return pieces

    while remaining:
        t1, t2, intensity = _critical_interval(remaining)
        if intensity <= 0:  # pragma: no cover - jobs always have cycles
            break
        intensities.append(intensity)
        inside = [
            j for j in remaining if j.arrival >= t1 and j.deadline <= t2
        ]
        # Preemptive EDF inside the window at the critical intensity:
        # the window is exactly saturated, so EDF fits every job within
        # its own [arrival, deadline] (the YDS feasibility argument).
        pending = sorted(inside, key=lambda j: (j.arrival, j.deadline, j.name))
        left = {j.name: j.cycles for j in inside}
        ready: list[tuple[float, str]] = []
        clock = t1
        idx = 0
        while ready or idx < len(pending):
            while idx < len(pending) and pending[idx].arrival <= clock + 1e-15:
                _heapq.heappush(
                    ready, (pending[idx].deadline, pending[idx].name)
                )
                idx += 1
            if not ready:
                clock = pending[idx].arrival
                continue
            _, name = ready[0]
            finish = clock + left[name] / intensity
            next_arrival = (
                pending[idx].arrival if idx < len(pending) else math.inf
            )
            until = min(finish, next_arrival)
            if until > clock + 1e-15:
                for piece_start, piece_end in original_pieces(clock, until):
                    slices.append(
                        ScheduledSlice(
                            job=name,
                            start=piece_start,
                            end=piece_end,
                            speed=intensity,
                        )
                    )
            left[name] -= (until - clock) * intensity
            clock = until
            if left[name] <= 1e-12:
                _heapq.heappop(ready)
        # Remove the scheduled jobs and collapse [t1, t2] out of time.
        scheduled = {j.name for j in inside}
        length = t2 - t1
        new_remaining: list[Job] = []
        for j in remaining:
            if j.name in scheduled:
                continue
            a, d = j.arrival, j.deadline
            a = a - length if a >= t2 else min(a, t1)
            d = d - length if d >= t2 else min(d, t1)
            new_remaining.append(
                Job(name=j.name, arrival=a, deadline=d, cycles=j.cycles)
            )
        remaining = new_remaining
        # Claim this round's window: its original image may be several
        # pieces (when it straddles earlier carves); keep `carved`
        # disjoint and sorted so the mapping stays correct.
        carved.extend(original_pieces(t1, t2))
        carved.sort()

    slices.sort(key=lambda s: s.start)

    # EDF inside a window can only shift slices, never break windows, but
    # be defensive: validate against the original job windows.
    for s in slices:
        a, d = original_windows[s.job]
        if s.start < a - 1e-6 or s.end > d + 1e-6:  # pragma: no cover
            raise AssertionError(
                f"YDS slice for {s.job} escaped its window: "
                f"[{s.start}, {s.end}] vs [{a}, {d}]"
            )
    return YdsSchedule(slices=tuple(slices), intensities=tuple(intensities))
