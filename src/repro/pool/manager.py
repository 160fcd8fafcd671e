"""The shared exchange-machine pool and the exchange episode.

The paper's operational model implies an entity that owns the vacant
machines: clusters borrow from a **shared pool**, rebalance, and hand
back compensation machines.  :class:`MachinePool` is that entity — a
machine inventory with its loan accounting — and
:func:`exchange_episode` is the one place an exchange is settled:

1. borrow the lent machines into the cluster and run the rebalancer,
2. infeasible: the loan goes straight back, the cluster is unchanged,
3. feasible: settle — returned machines (possibly *different* machines)
   re-enter the inventory, the cluster keeps the rest,
4. one :class:`PoolEpisode` audit row lands on ``pool.history``.

Because returned machines may differ from lent ones, the pool's
*composition* evolves over episodes even though its *size* does not —
the long-run effect of the paper's exchange, measured in E17.

A continuous controller instead keeps a *standing* loan: a
:class:`PoolSizingPolicy` decides per control round how many machines
to borrow or release, and the pool's hold clock and ``machine_rounds``
integrate the loan over rounds (E21).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro._validation import check_non_negative
from repro.algorithms import RebalanceResult, Rebalancer
from repro.cluster import ClusterState, ExchangeLedger, Machine, settle_fleet
from repro.cluster.exchange import ReturnPolicy

__all__ = [
    "MachinePool",
    "PoolDecision",
    "PoolEpisode",
    "PoolSizingPolicy",
    "exchange_episode",
]


@dataclass(frozen=True)
class PoolDecision:
    """One control round's borrow/release verdict.

    At most one side is nonzero: a round either grows the fleet from
    the pool, shrinks it back, or holds.  ``reason`` is a short audit
    tag (``"overload"``, ``"release"``, ``"hold"``, ``"held"``,
    ``"idle"``) for episode records.
    """

    borrow: int = 0
    release: int = 0
    reason: str = "idle"


@dataclass(frozen=True)
class PoolSizingPolicy:
    """How many vacant pool machines to borrow or return per round.

    Replaces the fixed borrow-``B``-return-``B`` episode semantics with
    a continuous loan: machines borrowed under pressure *stay in the
    fleet* across rounds (``required_returns=0`` on the borrow) and are
    handed back — possibly as drained in-service machines, the exchange
    the paper is named for — once the pressure subsides.

    Hysteresis is twofold, so the loan doesn't thrash:

    * a **peak band**: borrow only above ``borrow_above``, release only
      below ``release_below`` (the gap is the dead zone);
    * a **hold time**: a changed loan must sit ``min_hold_rounds``
      control rounds before any release.

    Attributes
    ----------
    borrow_above:
        Peak utilization above which the fleet borrows.
    release_below:
        Peak utilization below which held machines may be released;
        must be strictly below ``borrow_above``.
    overload_gain:
        Machines requested per unit of peak overshoot beyond
        ``borrow_above`` (always at least 1 when over).
    max_borrow_per_round / max_release_per_round:
        Per-round caps on loan growth/shrink.
    min_hold_rounds:
        Control rounds a loan is held before it may shrink.
    """

    borrow_above: float = 0.9
    release_below: float = 0.8
    overload_gain: float = 20.0
    max_borrow_per_round: int = 2
    max_release_per_round: int = 2
    min_hold_rounds: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.release_below < self.borrow_above:
            raise ValueError(
                "need 0 < release_below < borrow_above, got "
                f"{self.release_below} / {self.borrow_above}"
            )
        if self.overload_gain <= 0:
            raise ValueError(f"overload_gain must be > 0, got {self.overload_gain}")
        if self.max_borrow_per_round < 0 or self.max_release_per_round < 0:
            raise ValueError("per-round borrow/release caps must be >= 0")
        if self.min_hold_rounds < 0:
            raise ValueError(f"min_hold_rounds must be >= 0, got {self.min_hold_rounds}")

    def decide(
        self, *, peak: float, on_loan: int, available: int, rounds_held: int
    ) -> PoolDecision:
        """Pure decision for one round (no state; see MachinePool.decide)."""
        if peak > self.borrow_above:
            want = max(1, int(np.ceil((peak - self.borrow_above) * self.overload_gain)))
            borrow = min(want, self.max_borrow_per_round, available)
            if borrow > 0:
                return PoolDecision(borrow=borrow, reason="overload")
            return PoolDecision(reason="hold")
        if peak < self.release_below and on_loan > 0:
            if rounds_held < self.min_hold_rounds:
                return PoolDecision(reason="held")
            release = min(on_loan, self.max_release_per_round)
            return PoolDecision(release=release, reason="release")
        return PoolDecision(reason="idle" if on_loan == 0 else "hold")


@dataclass(frozen=True)
class PoolEpisode:
    """Audit record of one exchange episode against a pool.

    ``label`` names the episode: the cluster for one-shot callers, the
    :class:`PoolDecision` reason for a pool-sized controller.  An
    infeasible episode returns everything it was lent.
    """

    label: str
    lent: int
    returned: int
    exchanged: int
    feasible: bool
    peak_before: float
    peak_after: float
    pool_size_after: int
    pool_capacity_after: tuple[float, ...] = field(default_factory=tuple)


class MachinePool:
    """An inventory of vacant machines available for exchange.

    Machines are held as descriptions (ids are re-stamped when lent into
    a cluster).  The pool refuses to lend more than it holds and records
    every episode for auditability; the standing loan is counted from
    those records.  ``sizing`` is the policy a pool-sized controller
    consults once per control round through :meth:`tick` and
    :meth:`decide`.
    """

    def __init__(
        self,
        machines: list[Machine] | None = None,
        sizing: PoolSizingPolicy | None = None,
    ) -> None:
        self._machines: list[Machine] = list(machines or [])
        self.sizing = sizing or PoolSizingPolicy()
        #: Control rounds since the loan last changed (the hold clock).
        self.rounds_held = 0
        #: Standing loan integrated over control rounds — the cost figure
        #: pool-sizing studies compare against fixed-budget borrowing.
        self.machine_rounds = 0
        #: One audit row per exchange episode.
        self.history: list[PoolEpisode] = []

    @property
    def size(self) -> int:
        return len(self._machines)

    @property
    def on_loan(self) -> int:
        """Machines lent minus machines returned, over all episodes."""
        return sum(ep.lent - ep.returned for ep in self.history)

    def total_capacity(self) -> np.ndarray:
        """Summed capacity of the inventory (zeros when empty)."""
        if not self._machines:
            return np.zeros(0)
        return np.stack([m.capacity for m in self._machines]).sum(axis=0)

    def inventory(self) -> list[Machine]:
        """Copy of the current inventory."""
        return list(self._machines)

    # ------------------------------------------------------------- lending
    def lend(self, count: int) -> list[Machine]:
        """Remove *count* machines from the inventory (largest first)."""
        check_non_negative("count", count)
        if count > self.size:
            raise ValueError(f"pool holds {self.size} machines, cannot lend {count}")
        # Lend the largest machines first — they are the most useful as
        # staging hosts and packing targets.
        self._machines.sort(key=lambda m: -float(m.capacity.sum()))
        lent = self._machines[:count]
        self._machines = self._machines[count:]
        return [
            Machine(
                id=k,
                capacity=m.capacity.copy(),
                schema=m.schema,
                cls=m.cls,
                exchange=True,
            )
            for k, m in enumerate(lent)
        ]

    def accept(self, machines: Sequence[Machine]) -> None:
        """Add returned machines to the inventory."""
        for m in machines:
            self._machines.append(
                Machine(
                    id=self.size,
                    capacity=m.capacity.copy(),
                    schema=m.schema,
                    cls=m.cls,
                    exchange=False,
                )
            )

    # ------------------------------------------------------- control rounds
    def tick(self) -> None:
        """Once per control round: advance the hold clock and integrate
        the standing loan into ``machine_rounds``."""
        self.rounds_held += 1
        self.machine_rounds += self.on_loan

    def decide(self, peak: float) -> PoolDecision:
        """The sizing policy's verdict on the standing loan at *peak*."""
        return self.sizing.decide(
            peak=peak,
            on_loan=self.on_loan,
            available=self.size,
            rounds_held=self.rounds_held,
        )

    def record(self, episode: PoolEpisode) -> None:
        """Append an audit row; a net loan change restarts the hold clock."""
        if episode.lent != episode.returned:
            self.rounds_held = 0
        self.history.append(episode)


def exchange_episode(
    state: ClusterState,
    rebalancer: Rebalancer,
    lent: Sequence[Machine],
    *,
    pool: MachinePool | None = None,
    required_returns: int | None = None,
    policy: ReturnPolicy = "count",
    label: str = "cluster",
) -> tuple[ClusterState, RebalanceResult]:
    """One exchange episode: borrow *lent*, solve, settle or hand back.

    ``required_returns`` vacancies are owed at settlement (default: as
    many as were lent).  Returns the post-settlement cluster and the raw
    algorithm result.  On a feasible episode the returned machines —
    lent ones or drained in-service ones — go into *pool*; on an
    infeasible one *lent* goes back into *pool* and a copy of the input
    state is returned.  With a pool, one :class:`PoolEpisode` row is
    recorded on ``pool.history``.
    """
    grown, ledger = ExchangeLedger.borrow(
        state, lent, required_returns=required_returns, policy=policy
    )
    result = rebalancer.rebalance(grown, ledger)
    if result.feasible:
        final = grown.copy()
        final.apply_assignment(result.target_assignment)
        settled, settlement, returned = settle_fleet(final, ledger)
        exchanged = len(settlement.retained_borrowed_ids)
    else:
        settled, returned, exchanged = state.copy(), list(lent), 0
    if pool is not None:
        pool.accept(returned)
        pool.record(
            PoolEpisode(
                label=label,
                lent=len(lent),
                returned=len(returned),
                exchanged=exchanged,
                feasible=result.feasible,
                peak_before=state.peak_utilization(),
                peak_after=settled.peak_utilization(),
                pool_size_after=pool.size,
                pool_capacity_after=tuple(pool.total_capacity()),
            )
        )
    return settled, result
