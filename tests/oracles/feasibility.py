"""Test oracle: the full-rescan feasibility drain and LPT placement.

:func:`repro.workloads.synthetic._repair_feasibility` keeps loads,
headroom, overload flags and peak ratios per machine and updates only
the two machines each move touches.  :func:`repair_feasibility` is the
reference it must match: every move rescans the whole fleet, so it
needs no argument that the maintained arrays stay current.  Both use
the same elementwise arithmetic and first-index tie-breaks, so the
assignments must be bitwise equal.  The function bodies are the
generator's before the drain became incremental; the drain's unused
``rng`` parameter is dropped.
"""

from __future__ import annotations

import numpy as np


def lpt_placement(demands: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Longest-processing-time greedy minimizing post-insert peak utilization."""
    n = demands.shape[0]
    loads = np.zeros_like(capacity)
    assign = np.empty(n, dtype=np.int64)
    for j in np.argsort(-demands.sum(axis=1)):
        util_after = ((loads + demands[j]) / capacity).max(axis=1)
        i = int(np.argmin(util_after))
        assign[j] = i
        loads[i] += demands[j]
    return assign


def repair_feasibility(
    assign: np.ndarray, demands: np.ndarray, capacity: np.ndarray
) -> np.ndarray:
    """Drain overloaded machines one move at a time.

    Repeatedly takes the most-overloaded machine and moves its largest
    relocatable shard to the machine where the resulting peak utilization
    is lowest.  Every move strictly reduces the total overload mass (the
    target always stays within capacity), so the loop terminates.  If a
    machine gets stuck with no relocatable shard, falls back to a fully
    balanced LPT placement — preserving feasibility over placement skew.
    """
    assign = assign.copy()
    loads = np.zeros_like(capacity)
    np.add.at(loads, assign, demands)

    for _ in range(4 * demands.shape[0]):
        over = np.flatnonzero(np.any(loads > capacity + 1e-9, axis=1))
        if over.size == 0:
            return assign
        # Vectorized most-overloaded pick (bitwise the same arithmetic as
        # a per-machine Python fold — this runs once per move, and fleet
        # instances need tens of thousands of moves).
        i = over[np.argmax((loads[over] / capacity[over]).max(axis=1))]
        members = np.flatnonzero(assign == i)
        moved = False
        for j in members[np.argsort(-demands[members].sum(axis=1))]:
            headroom = capacity - loads
            fit = np.flatnonzero(np.all(headroom >= demands[j] - 1e-12, axis=1))
            fit = fit[fit != i]
            if fit.size == 0:
                continue
            util_after = ((loads[fit] + demands[j]) / capacity[fit]).max(axis=1)
            target = fit[np.argmin(util_after)]
            loads[i] -= demands[j]
            loads[target] += demands[j]
            assign[j] = target
            moved = True
            break
        if not moved:
            break
    # Stuck (or out of iterations): balanced fallback.
    assign = lpt_placement(demands, capacity)
    loads = np.zeros_like(capacity)
    np.add.at(loads, assign, demands)
    if np.any(loads > capacity + 1e-9):
        raise ValueError("instance too tight even for balanced placement")
    return assign
