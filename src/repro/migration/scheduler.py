"""Wave scheduling of shard moves under the transient resource constraint.

The scheduler orders a set of moves into **waves**.  All moves in a wave
run concurrently; while a move is in flight its shard's demand is held on
*both* the source and the destination machine.  A move may start in a wave
only if, counting every in-flight copy, no machine exceeds capacity.
Sources release their copy when the wave completes.

When no remaining move can start, the residual move set is **capacity
deadlocked** (machines must mutually free space for each other).
:class:`WavePacker` is the one greedy wave loop: :class:`WaveScheduler`
packs once and reports the stranded moves, while
:mod:`repro.migration.staging` breaks each deadlock by routing a shard
through a machine with spare headroom — exactly the role borrowed exchange
machines play in the paper — and resumes the same packer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.cluster import ClusterState
from repro.migration.moves import Move

__all__ = ["ATOL", "Schedule", "WavePacker", "WaveScheduler"]

#: Capacity-comparison tolerance of the transient constraint.
ATOL = 1e-9


@dataclass
class Schedule:
    """Result of wave scheduling.

    Attributes
    ----------
    waves:
        Ordered list of concurrent move batches.
    stranded:
        Moves that could not be scheduled (empty iff ``feasible``).
    peak_transient_utilization:
        Highest machine utilization observed at any point during the
        migration, in-flight copies included.
    """

    waves: list[list[Move]] = field(default_factory=list)
    stranded: list[Move] = field(default_factory=list)
    peak_transient_utilization: float = 0.0

    @property
    def feasible(self) -> bool:
        return not self.stranded

    @property
    def num_waves(self) -> int:
        return len(self.waves)

    @property
    def num_moves(self) -> int:
        return sum(len(w) for w in self.waves)

    def all_moves(self) -> list[Move]:
        """Scheduled moves in execution order."""
        return [mv for wave in self.waves for mv in wave]

    def total_bytes(self) -> float:
        """Bytes copied by the scheduled moves (staging hops included)."""
        return float(sum(mv.bytes for mv in self.all_moves()))


class WavePacker:
    """Greedy transient-feasible wave packing, resumable after a deadlock.

    :meth:`pack` builds waves from the current loads and shard locations
    until every pending move has run or none can start.  A caller may then
    rewrite :attr:`pending` (:class:`~repro.migration.staging.StagingPlanner`
    splices staging hops into it) and call :meth:`pack` again; packing
    resumes from the same loads, locations and waves.  The input state is
    never mutated.

    Moves must reference shards that currently sit on their ``src`` (as
    produced by ``diff_moves`` or a staging hop sequence — hop chains are
    handled because later hops only become startable after the earlier hop
    retires).
    """

    def __init__(self, state: ClusterState, moves: list[Move]) -> None:
        self.state = state
        self.loads = state.loads.copy()
        # Shard location tracking so multi-hop chains schedule correctly.
        self.location = state.assignment.copy()
        # Within a wave, large moves try to start first: draining heavy
        # shards early frees the most space for later waves.
        self.pending: list[Move] = sorted(moves, key=lambda mv: -mv.bytes)
        self.waves: list[list[Move]] = []
        # peaks[k] is the running transient peak over the first k waves.
        # peaks[0] is the fleet's current peak, not 0.0 — "no migration"
        # still leaves machines loaded.
        self.peaks = [
            float(np.max(self.loads / state.capacity)) if self.loads.size else 0.0
        ]

    def pack(self) -> bool:
        """Pack waves until every pending move has run (True) or none can start."""
        state = self.state
        loads = self.loads
        location = self.location
        capacity = state.capacity
        demand = state.demand
        has_replicas = bool(state.replica_groups)
        while self.pending:
            wave: list[Move] = []
            in_flight = np.zeros_like(loads)
            started: set[int] = set()  # shards moving this wave
            for mv in self.pending:
                if mv.shard_id in started:
                    continue  # one hop per shard per wave
                if location[mv.shard_id] != mv.src:
                    continue  # earlier hop not completed yet
                if has_replicas and self._replica_blocked(mv.shard_id, mv.dst):
                    continue  # a sibling currently lives on the destination
                extra = demand[mv.shard_id]
                if np.all(
                    loads[mv.dst] + in_flight[mv.dst] + extra <= capacity[mv.dst] + ATOL
                ):
                    in_flight[mv.dst] += extra
                    wave.append(mv)
                    started.add(mv.shard_id)
            if not wave:
                return False
            self.peaks.append(
                max(self.peaks[-1], float(np.max((loads + in_flight) / capacity)))
            )
            # Retire the wave: release sources, land destinations.
            for mv in wave:
                loads[mv.src] -= demand[mv.shard_id]
                loads[mv.dst] += demand[mv.shard_id]
                location[mv.shard_id] = mv.dst
            self.waves.append(wave)
            done = {id(mv) for mv in wave}
            self.pending = [mv for mv in self.pending if id(mv) not in done]
        return True

    def to_schedule(
        self, num_waves: int | None = None, stranded: list[Move] | None = None
    ) -> Schedule:
        """The first *num_waves* packed waves as a :class:`Schedule`.

        Each returned wave is traced once as a ``migration.wave`` event, so
        call this once per result.
        """
        n = len(self.waves) if num_waves is None else num_waves
        schedule = Schedule(
            waves=self.waves[:n],
            stranded=list(stranded or []),
            peak_transient_utilization=self.peaks[n],
        )
        tracer = obs.current().tracer
        if tracer.enabled:
            for k, wave in enumerate(schedule.waves):
                tracer.event(
                    "migration.wave",
                    wave=k,
                    moves=len(wave),
                    bytes=float(sum(mv.bytes for mv in wave)),
                    transient_peak=self.peaks[k + 1],
                )
        return schedule

    def _replica_blocked(self, shard_id: int, dst: int) -> bool:
        """True when a sibling replica currently occupies *dst*.

        Transient anti-affinity: even a copy in flight must not share a
        machine with a sibling, or a single machine failure during the
        migration would take out two replicas of one logical shard.
        """
        peers = self.state.replica_peers(shard_id)
        return bool(peers.size and np.any(self.location[peers] == dst))


class WaveScheduler:
    """Direct (unstaged) transient-feasible wave construction."""

    def schedule(self, state: ClusterState, moves: list[Move]) -> Schedule:
        """Schedule *moves* starting from *state*'s current placement.

        Moves that cannot start once no wave makes progress are reported
        as ``stranded``.  The input state is not mutated.
        """
        packer = WavePacker(state, moves)
        packer.pack()
        return packer.to_schedule(stranded=packer.pending)
