"""Destroy operators for the LNS.

A destroy operator removes a set of shards from the working state (they
become unassigned); the paired repair operator reinserts them.  Each
operator encodes one intuition about where the current assignment is
wrong:

* :func:`random_removal` — diversification.
* :func:`worst_machine_removal` — the peak machine is by definition part
  of the problem; rip shards off it.
* :func:`shaw_removal` — related shards (similar demand shape) are likely
  to be mutually exchangeable; removing a related group lets the repair
  re-pack them jointly.
* :func:`vacancy_removal` — empty the in-service machine that is closest
  to vacant, minting a returnable machine (the operator that implements
  the exchange semantics inside the search; ablated in E10).
* :class:`BudgetLocalityBias` — wrapper installed by SRA when a bounded
  :class:`~repro.algorithms.budget.MigrationBudget` is configured: at
  the budget boundary, removal is redirected to already-moved shards so
  the search explores *within* budget instead of generating candidates
  the best filter must veto.

Every operator has the uniform signature
``op(state, rng, quantity) -> list[int]`` and leaves removed shards
unassigned in *state*.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.algorithms.budget import MigrationBudget
from repro.cluster import ClusterState

__all__ = [
    "DestroyOperator",
    "random_removal",
    "worst_machine_removal",
    "shaw_removal",
    "vacancy_removal",
    "exchange_swap_removal",
    "BudgetLocalityBias",
    "DEFAULT_DESTROY_OPS",
]


class DestroyOperator(Protocol):
    """Signature of a destroy operator."""

    __name__: str

    def __call__(
        self, state: ClusterState, rng: np.random.Generator, quantity: int
    ) -> list[int]: ...


def _remove(state: ClusterState, shard_ids: np.ndarray | list[int]) -> list[int]:
    out = [int(j) for j in shard_ids]
    state.unassign_many(out)
    return out


def random_removal(
    state: ClusterState, rng: np.random.Generator, quantity: int
) -> list[int]:
    """Remove *quantity* uniformly random assigned shards."""
    assigned = np.flatnonzero(state.assignment_view() >= 0)
    if assigned.size == 0:
        return []
    take = min(quantity, assigned.size)
    return _remove(state, rng.choice(assigned, size=take, replace=False))


def worst_machine_removal(
    state: ClusterState, rng: np.random.Generator, quantity: int
) -> list[int]:
    """Remove the largest shards from the highest-peak machines.

    Equivalent to walking machines in decreasing peak utilization and
    taking each one's largest shards until *quantity* are collected, but
    implemented as one top-K selection over the peak cache plus one
    lexsort over the shards of the selected machines — no per-machine
    Python loop, so the cost scales with the shards actually examined
    rather than the fleet size.
    """
    peaks = state.machine_peak_utilization()
    counts = state.shard_counts()
    m = state.num_machines
    # Grow K until the K hottest machines hold enough shards (almost
    # always the first try: quantity is capped and hot machines are full).
    k = min(4, m)
    while True:
        if k < m:
            top = np.argpartition(-peaks, k - 1)[:k]
        else:
            top = np.arange(m)
        if int(counts[top].sum()) >= quantity or k == m:
            break
        k = min(4 * k, m)
    # Rank selected machines by peak; unselected machines rank last.
    top = top[np.argsort(-peaks[top], kind="stable")]
    rank = np.full(m, m, dtype=np.int64)
    rank[top] = np.arange(top.size)
    assign = state.assignment_view()
    shard_rank = np.where(assign >= 0, rank[np.maximum(assign, 0)], m)
    sel = np.flatnonzero(shard_rank < m)
    if sel.size == 0:
        return []
    mass = state.demand[sel].sum(axis=1)
    # Primary key: machine rank (hotter first); secondary: largest shards.
    order = np.lexsort((-mass, shard_rank[sel]))
    return _remove(state, sel[order[:quantity]])


def shaw_removal(
    state: ClusterState, rng: np.random.Generator, quantity: int
) -> list[int]:
    """Remove a seed shard and its most similar peers (Shaw relatedness).

    Similarity is the L1 distance between normalized demand vectors;
    related shards are interchangeable in a packing, so re-inserting them
    together lets the repair shuffle them across machines.
    """
    assigned = np.flatnonzero(state.assignment_view() >= 0)
    if assigned.size == 0:
        return []
    seed = int(rng.choice(assigned))
    norm = state.normalized_demand()
    base = norm if assigned.size == state.num_shards else norm[assigned]
    dist = np.abs(base - norm[seed]).sum(axis=1)
    take = min(quantity, assigned.size)
    if take < assigned.size:
        # Select the `take` nearest, then order just those by distance —
        # O(n + take log take) instead of a full sort.
        part = np.argpartition(dist, take - 1)[:take]
        nearest = assigned[part[np.argsort(dist[part], kind="stable")]]
    else:
        nearest = assigned[np.argsort(dist, kind="stable")]
    return _remove(state, nearest)


def vacancy_removal(
    state: ClusterState, rng: np.random.Generator, quantity: int
) -> list[int]:
    """Empty the non-vacant machine with the least total demand.

    All of its shards are removed (up to *quantity*; if the machine holds
    more, its smallest shards stay, which still usually leads the repair
    to finish the job next round).  Prefers in-service machines over
    borrowed ones: emptying an in-service machine is what enables the
    exchange to return it.
    """
    occupied = np.flatnonzero(state.shard_counts() > 0)
    if occupied.size == 0:
        return []
    # Prefer in-service machines, then least loaded (L1 of utilization).
    load_score = (state.loads[occupied] / state.capacity[occupied]).sum(axis=1)
    is_exchange = state.exchange_mask[occupied]
    order = np.lexsort((load_score, is_exchange))
    target = int(occupied[order[0]])
    members = state.machine_shards(target)
    # Largest first so a partial removal still drains most of the load.
    members = members[np.argsort(-state.demand[members].sum(axis=1))]
    return _remove(state, members[:quantity])


def exchange_swap_removal(
    state: ClusterState, rng: np.random.Generator, quantity: int
) -> list[int]:
    """Swap which machine is *designated for return*.

    SRA keeps ``R`` machines blocked (empty, to be handed back).  This
    operator unblocks a random blocked machine and blocks the open
    machine with the least load instead, removing all of that machine's
    shards so the repair can re-pack them — the move that lets the search
    *exchange* a fresh borrowed machine for a drained in-service one.

    No-op (empty removal) when nothing is blocked.  ``quantity`` is
    ignored: correctness requires removing every shard of the newly
    blocked machine.
    """
    blocked = np.flatnonzero(state.blocked_mask & ~state.offline_mask)
    if blocked.size == 0:
        return []
    open_machines = np.flatnonzero(~state.blocked_mask)
    # Candidate to close: open machine with least utilization mass
    # (cheapest to drain).  Vacant open machines are ideal.
    score = (state.loads[open_machines] / state.capacity[open_machines]).sum(axis=1)
    close = int(open_machines[np.argmin(score)])
    release = int(rng.choice(blocked))
    if close == release:
        return []
    members = _remove(state, state.machine_shards(close))
    state.unblock_machine(release)
    state.block_machine(close)
    return members


class BudgetLocalityBias:
    """Move-budget locality wrapper around a destroy operator.

    While the working state's placement delta from *reference* is still
    inside *budget*, the wrapped operator runs with its ``quantity``
    capped at the moves the budget has left (``max_moves`` minus the
    shards already off *reference*): the removed shards are the only
    ones the repair can move, so a quantity-respecting operator and a
    repair never take the delta past ``max_moves``.
    :func:`exchange_swap_removal` ignores ``quantity``, so its removals
    are not capped.  At or beyond the boundary
    (:meth:`MigrationBudget.exhausted` over the moved-shard count and
    their summed index sizes) removal is redirected to the
    *already-moved* shards, drawn uniformly by the same rng: a moved
    shard's reinsertion can only keep or shrink the move set, so the
    search walks the budget boundary — swapping which shards spend the
    budget — instead of bouncing off the best-filter veto.

    The byte side of the boundary check uses raw moved-shard sizes (no
    staging hops); the authoritative byte cap is enforced by the best
    filter against the scheduled plan.
    """

    def __init__(
        self,
        base: DestroyOperator,
        reference: np.ndarray,
        sizes: np.ndarray,
        budget: MigrationBudget,
    ) -> None:
        self.base = base
        self.reference = np.asarray(reference, dtype=np.int64)
        self.sizes = np.asarray(sizes, dtype=np.float64)
        self.budget = budget
        self.__name__ = f"budget[{base.__name__}]"

    def __call__(
        self, state: ClusterState, rng: np.random.Generator, quantity: int
    ) -> list[int]:
        moved = np.flatnonzero(state.assignment_view() != self.reference)
        if moved.size == 0 or not self.budget.exhausted(
            int(moved.size), float(self.sizes[moved].sum())
        ):
            if self.budget.max_moves is not None:
                quantity = min(quantity, self.budget.max_moves - int(moved.size))
            return self.base(state, rng, quantity)
        take = min(quantity, int(moved.size))
        return _remove(state, rng.choice(moved, size=take, replace=False))


#: Default operator portfolio of SRA.
DEFAULT_DESTROY_OPS: tuple[DestroyOperator, ...] = (
    random_removal,
    worst_machine_removal,
    shaw_removal,
    vacancy_removal,
    exchange_swap_removal,
)
