"""Frozen per-row oracles for the kernels' sweep ops.

Before the DP and Pareto sweeps moved inside the kernel, the reference
kernel exposed one op per row: ``dp_relax_min``/``dp_relax_max`` relaxed
one DP row by one task and ``frontier_step`` extended a frontier by one
task.  The solvers looped over the tasks.  These are verbatim copies of
those reference loops (the relaxations over the whole row, the frontier
step checking every state's accept), driven task by task as the solvers
drove them.  The sweep ops must return the same bits on every kernel.
"""

from __future__ import annotations

import math

from repro._validation import fits


def dp_relax_min(row, shift, addend):
    size = len(row)
    out = [0.0] * size
    take = bytearray(size)
    for j in range(min(shift, size)):
        out[j] = row[j] + addend
    for j in range(shift, size):
        reject = row[j] + addend
        accept = row[j - shift]
        if accept < reject:
            out[j] = accept
            take[j] = 1
        else:
            out[j] = reject
    return out, take


def dp_relax_max(row, shift, addend):
    size = len(row)
    out = list(row[: min(shift, size)])
    out += [0.0] * (size - len(out))
    take = bytearray(size)
    for j in range(shift, size):
        keep = row[j]
        reject = row[j - shift] + addend
        if reject > keep:
            out[j] = reject
            take[j] = 1
        else:
            out[j] = keep
    return out, take


def dp_sweep(kind, shifts, addends, width):
    """``(row, take rows)`` of the per-row loop; *kind* is "min" or "max"."""
    relax = dp_relax_min if kind == "min" else dp_relax_max
    row = [math.inf if kind == "min" else -math.inf] * width
    row[0] = 0.0
    table = []
    for shift, addend in zip(shifts, addends):
        row, take = relax(row, shift, addend)
        table.append([bool(t) for t in take])
    return row, table


def frontier_step(workloads, penalties, cycles, penalty, capacity):
    """``(workloads, penalties, sources, accepted, candidates)``."""
    candidates = [
        (w, p + penalty, i, False)
        for i, (w, p) in enumerate(zip(workloads, penalties))
    ]
    for i, (w, p) in enumerate(zip(workloads, penalties)):
        grown = w + cycles
        if fits(grown, capacity):
            candidates.append((grown, p, i, True))
    candidates.sort(key=lambda c: (c[0], c[1]))  # stable: reject first
    out_w, out_p, out_src, out_acc = [], [], [], []
    for w, p, src, acc in candidates:
        if out_p and p >= out_p[-1]:
            continue
        out_w.append(w)
        out_p.append(p)
        out_src.append(src)
        out_acc.append(acc)
    return out_w, out_p, out_src, out_acc, len(candidates)


def frontier_sweep(cycles, penalties, capacity, limit=math.inf):
    """The per-step loop the solvers ran, stopping where they raised.

    Returns ``(workloads, penalties, steps, states, peak)`` with
    ``steps`` a list of ``(sources, accepted)`` per task processed.
    """
    workloads, pens = [0.0], [0.0]
    steps = []
    states = peak = 1
    for c, rho in zip(cycles, penalties):
        workloads, pens, sources, accepted, candidates = frontier_step(
            workloads, pens, c, rho, capacity
        )
        steps.append((sources, accepted))
        states += candidates
        peak = max(peak, len(workloads))
        if len(workloads) > limit:
            break
    return workloads, pens, steps, states, peak


def decoded_steps(frontier):
    """A kernel :class:`~repro.kernels.Frontier`'s steps as the oracle's
    ``(sources, accepted)`` lists."""
    out = []
    for kept, size in frontier.steps:
        kept = [int(k) for k in kept]
        out.append(
            ([k - size if k >= size else k for k in kept], [k >= size for k in kept])
        )
    return out
