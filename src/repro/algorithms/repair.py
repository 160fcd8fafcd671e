"""Repair operator for the LNS.

A repair operator reinserts the shards a destroy operator removed.
:func:`greedy_best_fit` is the one SRA uses: it inserts the removed
shards largest demand first, each on its best-scoring machine.
Inserting shard *j* on machine *i* is scored by the machine's peak
utilization after insertion, with a large penalty when the insertion
overflows capacity (so overflow is used only when nothing fits, and the
objective's overload penalty then drives the search away from it).
Blocked machines (SRA's designated-return machines) score ``inf`` and
are never chosen, as are machines hosting a replica sibling of the
shard being scored.

Implementation notes (this is the hottest code in the library — see the
"Delta evaluation contract" section of docs/ARCHITECTURE.md):

* Scoring works in *scaled utilization space* on the state's (d, m)
  structure-of-arrays mirrors (:meth:`ClusterState.loads_by_dim` and
  friends): it keeps ``util[k] = loads_t[k] * inv_cap[k]`` per
  dimension and scores an insertion as ``demand * inv_cap + util``, so
  each shard costs a handful of contiguous row-wise fused ops with no
  divisions.  Overflow is detected in the same scaled space against
  pre-scaled thresholds; when thresholds are uniform across dimensions
  (homogeneous machines — the common fleet case) a one-comparison fast
  path detects overflow from the final max-score directly.
* One (m,) score row is computed per shard against the current
  utilization; after an insertion only the chosen machine's ``util``
  column is resynced, with the same expression, so every row is
  bitwise what a rescan of ``loads_by_dim()`` gives (the oracle
  ``tests/oracles/greedy.py``).
* The delta engine running this operator matches the copy-based
  reference engine (``tests/oracles/copy_engine.py``) bitwise, pinned
  by the fixed-seed engine tests and the parity properties in
  tests/test_kernel_parity.py.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.cluster import ClusterState

__all__ = [
    "RepairOperator",
    "greedy_best_fit",
    "DEFAULT_REPAIR_OPS",
]

#: Score penalty for a placement that overflows capacity.
_OVERFLOW_PENALTY = 1e3


class RepairOperator(Protocol):
    """Signature of a repair operator."""

    __name__: str

    def __call__(
        self,
        state: ClusterState,
        rng: np.random.Generator,
        removed: Sequence[int],
    ) -> None: ...


def greedy_best_fit(
    state: ClusterState, rng: np.random.Generator, removed: Sequence[int]
) -> None:
    """Insert removed shards, largest demand first, on best-scoring machines.

    Shards with equal demand sums keep their removal order.  Each shard
    goes to the first machine with the smallest score; when every
    machine scores ``inf`` (all blocked or hosting a sibling — replication
    factor near the machine count), it goes to the least-loaded open
    machine and the objective's replica penalty drives repair next round.
    """
    if not removed:
        return
    shards = np.asarray(removed, dtype=np.int64)
    order = shards[np.argsort(-state.demand[shards].sum(axis=1), kind="stable")]
    demand = state.demand[order]  # (q, d)
    inv_cap = state.inv_capacity_by_dim()  # (d, m), shared
    # Overflow thresholds in scaled space: load + demand > cap + tol
    # becomes (load + demand)·inv > (cap + tol)·inv since inv > 0.
    thr = (state.capacity_by_dim() + 1e-12) * inv_cap  # (d, m)
    # Homogeneous machines give one threshold per machine across all
    # dimensions; then overflow(i) == max-score(i) > thr_row[i] (float
    # max is exact), a one-pass detection.
    thr_row = np.ascontiguousarray(thr[0])
    thr_uniform = bool((thr == thr_row).all())
    loads_t = state.loads_by_dim()  # live (d, m) mirror
    util = loads_t * inv_cap  # (d, m), private
    blocked = np.flatnonzero(state.blocked_mask)
    replicated = bool(state.replica_groups)
    work = np.empty_like(util)
    row = np.empty(state.num_machines)
    for shard_id, dem in zip(order.tolist(), demand):
        np.multiply(dem[:, None], inv_cap, out=work)
        work += util
        scores: np.ndarray = work.max(axis=0, out=row)
        over = scores > thr_row if thr_uniform else (work > thr).any(axis=0)
        np.add(scores, _OVERFLOW_PENALTY, out=scores, where=over)
        if blocked.size:
            scores[blocked] = np.inf
        if replicated:
            hosts = state.replica_peer_machines(shard_id)
            if hosts.size:
                scores[hosts] = np.inf
        machine = int(scores.argmin())
        if scores[machine] == np.inf:
            peak = ((state.loads + dem) / state.capacity).max(axis=1)
            peak[state.blocked_mask] = np.inf
            machine = int(np.argmin(peak))
        state.assign_shard(shard_id, machine)
        util[:, machine] = loads_t[:, machine] * inv_cap[:, machine]


#: Default operator portfolio of SRA.
DEFAULT_REPAIR_OPS: tuple[RepairOperator, ...] = (greedy_best_fit,)
