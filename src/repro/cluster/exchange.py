"""Exchange-pool accounting.

The resource-exchange contract of the paper: the operator lends the
rebalancer ``B`` initially vacant machines; after rebalancing, the
rebalancer must hand back ``R`` vacant machines (default ``R = B``) — not
necessarily the ones it borrowed.  :class:`ExchangeLedger` records the
borrow, validates the return against a finished :class:`ClusterState`, and
selects which concrete machines to return.

Two return policies are supported:

``"count"`` (default)
    Any ``R`` vacant machines satisfy the contract.  This is the weakest
    reading of "return some vacant machines as compensation".
``"capacity"``
    The summed capacity of the returned machines must dominate the summed
    capacity of the borrowed machines in every dimension — the exchange
    is resource-neutral for the pool, not merely machine-count-neutral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence, get_args

import numpy as np

from repro._validation import check_in
from repro.cluster.machine import Machine
from repro.cluster.resources import dominates
from repro.cluster.state import ClusterState

__all__ = [
    "ExchangeLedger",
    "ExchangeViolation",
    "ExchangeSettlement",
    "settle_fleet",
]

ReturnPolicy = Literal["count", "capacity"]


class ExchangeViolation(ValueError):
    """Raised when a final state cannot satisfy the vacancy-return contract."""


@dataclass
class ExchangeLedger:
    """Borrow/return bookkeeping for one rebalancing episode.

    Attributes
    ----------
    borrowed_ids:
        Machine ids (in the *augmented* cluster) of the borrowed machines.
    required_returns:
        Number of vacant machines that must be returned, ``R``.
    policy:
        Return policy, see module docstring.
    """

    borrowed_ids: tuple[int, ...] = ()
    required_returns: int = 0
    policy: ReturnPolicy = "count"
    _borrowed_capacity: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def borrow(
        state: ClusterState,
        machines: Sequence[Machine],
        *,
        required_returns: int | None = None,
        policy: ReturnPolicy = "count",
    ) -> tuple[ClusterState, "ExchangeLedger"]:
        """Augment *state* with borrowed *machines* and open a ledger.

        Returns the augmented state (new object; the input is untouched)
        and the ledger tracking the debt.  ``required_returns`` defaults
        to the number of borrowed machines.
        """
        check_in("policy", policy, get_args(ReturnPolicy))
        if required_returns is None:
            required_returns = len(machines)
        if required_returns < 0:
            raise ValueError(f"required_returns must be >= 0, got {required_returns}")
        if required_returns > state.num_machines + len(machines):
            raise ValueError("cannot owe more returns than machines exist")
        augmented = state.with_extra_machines(machines) if machines else state.copy()
        start = state.num_machines
        ids = tuple(range(start, start + len(machines)))
        cap = (
            np.stack([m.capacity for m in machines]).sum(axis=0)
            if machines
            else np.zeros(state.dims)
        )
        ledger = ExchangeLedger(
            borrowed_ids=ids,
            required_returns=required_returns,
            policy=policy,
            _borrowed_capacity=cap,
        )
        return augmented, ledger

    @property
    def num_borrowed(self) -> int:
        return len(self.borrowed_ids)

    def borrowed_capacity(self) -> np.ndarray:
        """Summed capacity vector of the borrowed machines."""
        if self._borrowed_capacity is None:
            raise ValueError("ledger was not opened via ExchangeLedger.borrow")
        return self._borrowed_capacity

    # ------------------------------------------------------------ validation
    def candidate_returns(self, state: ClusterState) -> np.ndarray:
        """Vacant machines eligible to be returned, best first.

        Preference order: vacant borrowed machines first (returning the
        loaner's own machines is always acceptable), then vacant in-service
        machines by descending capacity (so a ``capacity`` policy is
        satisfied with the fewest machines).
        """
        vacant = state.vacant_machines()
        vacant = vacant[~state.offline_mask[vacant]]  # dead machines can't be returned
        if vacant.size == 0:
            return vacant
        borrowed = np.isin(vacant, np.asarray(self.borrowed_ids, dtype=np.int64))
        caps = state.capacity[vacant].sum(axis=1)
        # Sort: borrowed first, then by capacity descending.
        order = np.lexsort((-caps, ~borrowed))
        return vacant[order]

    def select_returns(self, state: ClusterState) -> np.ndarray:
        """Choose the machines to return, or raise :class:`ExchangeViolation`.

        For the ``count`` policy this is the first ``R`` candidates.  For
        the ``capacity`` policy, candidates are accumulated (largest first
        among in-service machines) until the borrowed capacity is covered;
        at least ``R`` machines are always returned.
        """
        candidates = self.candidate_returns(state)
        if candidates.size < self.required_returns:
            raise ExchangeViolation(
                f"need {self.required_returns} vacant machines to return, "
                f"only {candidates.size} are vacant"
            )
        if self.policy == "count":
            return candidates[: self.required_returns]
        # capacity policy
        target = self.borrowed_capacity()
        chosen: list[int] = []
        total = np.zeros_like(target)
        for mid in candidates:
            if len(chosen) >= self.required_returns and dominates(total, target):
                break
            chosen.append(int(mid))
            total += state.capacity[mid]
        if len(chosen) < self.required_returns or not dominates(total, target):
            raise ExchangeViolation(
                "vacant machines cannot cover borrowed capacity "
                f"(have {total}, owe {target})"
            )
        return np.asarray(chosen, dtype=np.int64)

    def is_satisfiable(self, state: ClusterState) -> bool:
        """True when :meth:`select_returns` would succeed on *state*."""
        try:
            self.select_returns(state)
        except ExchangeViolation:
            return False
        return True

    def settle(self, state: ClusterState) -> "ExchangeSettlement":
        """Validate and close the ledger against a finished state."""
        returned = self.select_returns(state)
        gone = set(returned.tolist())
        kept = [mid for mid in self.borrowed_ids if mid not in gone]
        return ExchangeSettlement(
            returned_ids=tuple(int(r) for r in returned),
            retained_borrowed_ids=tuple(kept),
            returned_capacity=state.capacity[returned].sum(axis=0)
            if returned.size
            else np.zeros(state.dims),
        )


@dataclass(frozen=True)
class ExchangeSettlement:
    """Outcome of closing an :class:`ExchangeLedger`.

    ``retained_borrowed_ids`` lists borrowed machines that stay in service
    (an equal number of formerly in-service machines was emptied and
    returned instead) — the "exchange" the paper is named for.
    """

    returned_ids: tuple[int, ...]
    retained_borrowed_ids: tuple[int, ...]
    returned_capacity: np.ndarray


def settle_fleet(
    final: ClusterState, ledger: ExchangeLedger
) -> tuple[ClusterState, ExchangeSettlement, list[Machine]]:
    """Close the episode: drop the returned machines from the fleet; the
    kept machines keep their masks, and loads and caches are rebuilt.

    Returns the post-settlement cluster (returned machines removed,
    remaining machines re-indexed densely, assignment preserved), the
    settlement, and the returned machine descriptions (what goes back
    into the pool).  The kept machines keep their exchange, blocked and
    offline masks, so a dead machine stays dead after the episode, and
    the cluster's loads and caches are rebuilt from the remapped
    assignment (:meth:`ClusterState.without_machines`).
    """
    settlement = ledger.settle(final)
    returned = [final.machines[mid] for mid in settlement.returned_ids]
    return final.without_machines(settlement.returned_ids), settlement, returned
