"""Multi-hop staging through spare headroom.

When the wave packer strands moves, the residual instance contains a
**capacity deadlock**: every remaining destination is full until some
other remaining move frees it.  The stranded moves
(``Schedule.stranded``) are the witness of that deadlock.  The classical
fix is to route one stranded shard through a third machine with spare
headroom (two hops instead of one).  Borrowed exchange machines, being
vacant, are the ideal staging hosts; this module is where
their value for *feasibility* (not just balance) materializes, and is
measured by experiment E7.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cluster import ClusterState
from repro.migration.moves import Move, diff_moves
from repro.migration.scheduler import Schedule, WavePacker

__all__ = ["MAX_HOPS_PER_SHARD", "StagingPlanner", "PlanResult"]

#: Times one shard may be rerouted through a staging host in one plan.
MAX_HOPS_PER_SHARD = 2


@dataclass
class PlanResult:
    """A complete migration plan.

    Attributes
    ----------
    schedule:
        The wave schedule actually executed (staging hops included).
    staged_shards:
        Shards that needed an intermediate hop.
    feasible:
        Whether every required move was scheduled.
    direct_feasible:
        Whether the plan would have been feasible *without* staging —
        the paper's "stringent resource environment" indicator.
    """

    schedule: Schedule
    staged_shards: tuple[int, ...] = ()
    direct_feasible: bool = True

    @property
    def feasible(self) -> bool:
        return self.schedule.feasible

    @property
    def num_hops(self) -> int:
        return sum(1 for mv in self.schedule.all_moves() if mv.is_staged_hop)


class StagingPlanner:
    """Plan a transient-feasible migration, staging through spare headroom.

    Each shard may be staged at most ``MAX_HOPS_PER_SHARD`` times.
    """

    # ------------------------------------------------------------------ API
    def plan(
        self,
        state: ClusterState,
        target_assignment: np.ndarray,
        *,
        moves: Sequence[Move] | None = None,
    ) -> PlanResult:
        """Produce a feasible schedule from *state* to *target_assignment*.

        Waves are packed directly until no move can start.  At each such
        deadlock one stranded shard is rerouted through the machine with
        the most headroom (borrowed exchange machines first) and packing
        resumes — the schedule IS the simulated execution, never
        re-derived, since greedy wave packing is order-sensitive.  When no
        stranded move can be staged (hop budget spent or no host fits),
        the result is the direct schedule, stranded at its first deadlock.
        The input state is never mutated.

        *moves* is ``diff_moves(state, target_assignment)`` when the caller
        has already diffed the target; it is computed here otherwise.
        """
        if moves is None:
            moves = diff_moves(state, target_assignment)
        packer = WavePacker(state, moves)
        if packer.pack():
            return self._publish(packer.to_schedule(), direct_feasible=True)

        direct_waves = len(packer.waves)
        direct_stranded = packer.pending
        hops_used: dict[int, int] = {}
        while self._stage_one(packer, hops_used):
            if packer.pack():
                return self._publish(
                    packer.to_schedule(),
                    staged_shards=tuple(sorted(hops_used)),
                    direct_feasible=False,
                )
        return self._publish(
            packer.to_schedule(direct_waves, direct_stranded), direct_feasible=False
        )

    @staticmethod
    def _publish(
        schedule: Schedule,
        *,
        direct_feasible: bool,
        staged_shards: tuple[int, ...] = (),
    ) -> PlanResult:
        """Wrap the executed schedule, exposing its transient peak to the registry."""
        metrics = obs.current().metrics
        if metrics.enabled:
            metrics.gauge("migration.peak_transient_utilization").set(
                schedule.peak_transient_utilization
            )
            metrics.counter("migration.plans").inc()
        return PlanResult(
            schedule=schedule,
            staged_shards=staged_shards,
            direct_feasible=direct_feasible,
        )

    # ------------------------------------------------------------- internal
    def _stage_one(self, packer: WavePacker, hops_used: dict[int, int]) -> bool:
        """Reroute the first stageable stranded move through a staging host.

        Splices the two hops into ``packer.pending`` in the move's place.
        Returns False when no stranded move has hops left and a host.
        """
        table = packer.table
        pending = packer.pending
        shards = table.shard[pending]
        ready = np.flatnonzero(packer.location[shards] == table.src[pending])
        for k in ready.tolist():
            row = int(pending[k])
            shard = int(table.shard[row])
            if hops_used.get(shard, 0) >= MAX_HOPS_PER_SHARD:
                continue
            host = self._staging_host(packer, row)
            if host is None:
                continue
            packer.table = table.with_hops(row, host)
            hops = np.arange(len(table), len(table) + 2)
            packer.pending = np.concatenate((pending[:k], hops, pending[k + 1 :]))
            hops_used[shard] = hops_used.get(shard, 0) + 1
            tracer = obs.current().tracer
            if tracer.enabled:
                tracer.event(
                    "migration.staging_hop",
                    shard=shard,
                    via=int(host),
                    src=int(table.src[row]),
                    dst=int(table.dst[row]),
                )
            return True
        return False

    @staticmethod
    def _staging_host(packer: WavePacker, row: int) -> int | None:
        """Best machine able to temporarily hold move *row*'s shard, or None.

        Borrowed (exchange) machines are preferred, then the most slack.
        Offline (failed) machines and machines hosting a sibling replica
        are never used as staging hosts; blocked designated-return
        machines remain legitimate hosts (they are only handed back once
        the migration completes).
        """
        state = packer.state
        table = packer.table
        shard = int(table.shard[row])
        headroom = state.capacity - packer.loads
        fits = np.all(headroom >= state.demand[shard] - 1e-12, axis=1)
        fits[table.src[row]] = False
        fits[table.dst[row]] = False
        fits[state.offline_mask] = False
        sibling_hosts = packer.location[state.replica_peers(shard)]
        fits[sibling_hosts[(sibling_hosts >= 0) & (sibling_hosts < fits.size)]] = False
        candidates = np.flatnonzero(fits)
        if candidates.size == 0:
            return None
        slack = headroom[candidates].min(axis=1)
        order = np.lexsort((-slack, ~state.exchange_mask[candidates]))
        return int(candidates[order[0]])
