"""Test oracle: greedy best-fit insertion, rescored from the state.

:func:`repro.algorithms.repair.greedy_best_fit` scores a whole row of
machines per shard with vector ops on a private scaled-utilization
array, resyncs only the column of the machine it just filled, and reads
sibling hosts from the state's replica index.  :func:`greedy_exact` is
the reference it must match: for every shard, largest demand sum first
(ties keep the removal order), it rescores every machine one at a time
from ``state.loads_by_dim()`` with the same scaled-space expressions —
``demand * inv_cap + loads_t * inv_cap`` per dimension, their max, plus
``_OVERFLOW_PENALTY`` when a dimension exceeds ``(cap + 1e-12) *
inv_cap`` — skips blocked machines and the machines hosting a sibling
(found by scanning the assignment), and falls back to the least-loaded
open machine when nothing is left.  It shares no code with the
operator, so the placements must be bitwise equal.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster import ClusterState

_OVERFLOW_PENALTY = 1e3


def _sibling_hosts(state: ClusterState, shard_id: int) -> set[int]:
    group = state.shards[shard_id].replica_of
    if group < 0:
        return set()
    assign = state.assignment_view()
    return {
        int(assign[k])
        for k, shard in enumerate(state.shards)
        if k != shard_id and shard.replica_of == group and assign[k] >= 0
    }


def _least_loaded_open(state: ClusterState, demand: np.ndarray) -> int:
    loads, cap, blocked = state.loads, state.capacity, state.blocked_mask
    best, best_peak = -1, np.inf
    for i in range(state.num_machines):
        if blocked[i]:
            continue
        peak = max((loads[i, k] + demand[k]) / cap[i, k] for k in range(demand.size))
        if peak < best_peak:
            best, best_peak = i, peak
    return best


def greedy_exact(state: ClusterState, removed: Sequence[int]) -> None:
    """Place *removed* (all unassigned in *state*) one shard at a time,
    each on the first machine with the smallest score."""
    mass = state.demand[np.asarray(removed, dtype=np.int64)].sum(axis=1)
    order = [removed[r] for r in sorted(range(len(removed)), key=lambda r: -mass[r])]
    inv_cap = state.inv_capacity_by_dim()
    thr = (state.capacity_by_dim() + 1e-12) * inv_cap
    blocked = state.blocked_mask
    for shard_id in order:
        demand = state.demand[shard_id]
        loads_t = state.loads_by_dim()
        siblings = _sibling_hosts(state, shard_id)
        best, best_score = -1, np.inf
        for i in range(state.num_machines):
            if blocked[i] or i in siblings:
                continue
            terms = [
                demand[k] * inv_cap[k, i] + loads_t[k, i] * inv_cap[k, i]
                for k in range(demand.size)
            ]
            score = max(terms)
            if any(t > thr[k, i] for k, t in enumerate(terms)):
                score += _OVERFLOW_PENALTY
            if score < best_score:
                best, best_score = i, score
        if best < 0:
            best = _least_loaded_open(state, demand)
        state.assign_shard(int(shard_id), best)
