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

from collections.abc import Sequence

import numpy as np

from repro import obs
from repro.cluster import ClusterState
from repro.migration.moves import Move, MoveTable

__all__ = ["ATOL", "Schedule", "WavePacker", "WaveScheduler"]

#: Capacity-comparison tolerance of the transient constraint.
ATOL = 1e-9

#: A rank round costs about as much as four moves of the in-order loop
#: (measured on a 2-vCPU Xeon at 5 to 1,400 ready moves per wave).
_MOVES_PER_ROUND = 4


def _has_repeats(values: np.ndarray) -> bool:
    ordered = np.sort(values)
    return bool(np.any(ordered[1:] == ordered[:-1]))


class Schedule:
    """Result of wave scheduling: rows of a :class:`MoveTable`.

    Attributes
    ----------
    table:
        The moves the schedule draws on.
    wave_rows:
        Ordered concurrent batches, each the table rows of one wave.
    stranded_rows:
        Table rows of the moves that could not be scheduled (empty iff
        ``feasible``).
    peak_transient_utilization:
        Highest machine utilization observed at any point during the
        migration, in-flight copies included.

    ``waves``, ``stranded`` and :meth:`all_moves` are read-only views
    that build their :class:`Move` objects on first read; the counts and
    :meth:`total_bytes` never build them.
    """

    def __init__(
        self,
        table: MoveTable,
        wave_rows: list[np.ndarray],
        stranded_rows: np.ndarray,
        peak_transient_utilization: float,
    ) -> None:
        self.table = table
        self.wave_rows = wave_rows
        self.stranded_rows = stranded_rows
        self.peak_transient_utilization = peak_transient_utilization
        self._waves: list[list[Move]] | None = None
        self._stranded: list[Move] | None = None

    @property
    def waves(self) -> list[list[Move]]:
        """Ordered list of concurrent move batches."""
        if self._waves is None:
            self._waves = [self.table.moves(rows) for rows in self.wave_rows]
        return self._waves

    @property
    def stranded(self) -> list[Move]:
        """Moves that could not be scheduled."""
        if self._stranded is None:
            self._stranded = self.table.moves(self.stranded_rows)
        return self._stranded

    @property
    def feasible(self) -> bool:
        return self.stranded_rows.size == 0

    @property
    def num_waves(self) -> int:
        return len(self.wave_rows)

    @property
    def num_moves(self) -> int:
        return sum(rows.size for rows in self.wave_rows)

    def all_moves(self) -> list[Move]:
        """Scheduled moves in execution order."""
        return [mv for wave in self.waves for mv in wave]

    def total_bytes(self) -> float:
        """Bytes copied by the scheduled moves (staging hops included)."""
        if not self.wave_rows:
            return 0.0
        return self.table.total_bytes(np.concatenate(self.wave_rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return (
            self.waves == other.waves
            and self.stranded == other.stranded
            and self.peak_transient_utilization == other.peak_transient_utilization
        )

    def __repr__(self) -> str:
        return (
            f"Schedule(waves={self.num_waves}, moves={self.num_moves}, "
            f"feasible={self.feasible}, "
            f"peak_transient_utilization={self.peak_transient_utilization!r})"
        )


class WavePacker:
    """Greedy transient-feasible wave packing, resumable after a deadlock.

    :meth:`pack` builds waves from the current loads and shard locations
    until every pending move has run or none can start.  A caller may then
    rewrite :attr:`table` and :attr:`pending` (:class:`~repro.migration.
    staging.StagingPlanner` splices staging hops into them) and call
    :meth:`pack` again; packing resumes from the same loads, locations and
    waves.  The input state is never mutated.

    Moves are rows of :attr:`table`; :attr:`pending` holds the rows still
    to run, in packing order, and each of :attr:`waves` the rows of one
    wave.  Moves must reference shards that currently sit on their ``src``
    (as produced by ``diff_moves`` or a staging hop sequence — hop chains
    are handled because later hops only become startable after the
    earlier hop retires).
    """

    def __init__(self, state: ClusterState, moves: Sequence[Move]) -> None:
        self.state = state
        self.table = MoveTable.of(moves)
        self.loads = state.loads.copy()
        # Shard location tracking so multi-hop chains schedule correctly.
        self.location = state.assignment.copy()
        # Within a wave, large moves try to start first: draining heavy
        # shards early frees the most space for later waves.  The stable
        # sort keeps equal-sized moves in input order.
        self.pending: np.ndarray = np.argsort(-self.table.bytes, kind="stable")
        self.waves: list[np.ndarray] = []
        # peaks[k] is the running transient peak over the first k waves.
        # peaks[0] is the fleet's current peak, not 0.0 — "no migration"
        # still leaves machines loaded.
        self.peaks = [
            float(np.max(self.loads / state.capacity)) if self.loads.size else 0.0
        ]

    def pack(self) -> bool:
        """Pack waves until every pending move has run (True) or none can start.

        A wave takes the pending moves in order, skipping a move whose
        shard is not at its source yet or already moves this wave, and
        starts each one whose destination still holds it beside the
        copies already starting there.  Loads and locations change only
        when a wave retires, so the fit decisions of different
        destinations are independent: :meth:`_wave_by_rank` makes them
        for all destinations at once, adding each destination's
        in-flight copies in pending order (the same float sums as one
        move at a time).  :meth:`_wave_in_order` is the one-move-at-a-time
        loop, kept for the waves a per-destination pass cannot decide: a
        shard with two startable moves (only the first that fits starts)
        and fleets with replica groups (a per-move anti-affinity check).
        It also packs waves whose rounds would decide fewer than
        :data:`_MOVES_PER_ROUND` moves each, where the loop is cheaper.
        """
        state = self.state
        loads = self.loads
        location = self.location
        capacity = state.capacity
        demand = state.demand
        in_order = bool(state.replica_groups)
        while self.pending.size:
            table = self.table
            pending = self.pending
            shards = table.shard[pending]
            ready = np.flatnonzero(location[shards] == table.src[pending])
            # A move that does not fit its destination with nothing else in
            # flight fits no busier one (in-flight copies only add), so one
            # vector test drops it before either loop sees it.
            dst = table.dst[pending[ready]]
            idle_fit = loads[dst] + demand[shards[ready]] <= capacity[dst] + ATOL
            fits = np.all(idle_fit, axis=1)
            ready, dst = ready[fits], dst[fits]
            if ready.size == 0:
                return False
            if (
                in_order
                or ready.size < _MOVES_PER_ROUND * int(np.bincount(dst).max())
                or _has_repeats(shards[ready])
            ):
                started, in_flight = self._wave_in_order(ready)
            else:
                started, in_flight = self._wave_by_rank(ready)
            if started.size == 0:
                return False
            self.peaks.append(
                max(self.peaks[-1], float(np.max((loads + in_flight) / capacity)))
            )
            # Retire the wave: release sources, land destinations, in wave
            # order (np.add.at applies repeated indices one by one).
            rows = pending[started]
            moved = table.shard[rows]
            d = demand[moved]
            np.add.at(
                loads,
                np.column_stack((table.src[rows], table.dst[rows])).ravel(),
                np.stack((-d, d), axis=1).reshape(-1, d.shape[1]),
            )
            location[moved] = table.dst[rows]
            self.waves.append(rows)
            keep = np.ones(pending.size, dtype=bool)
            keep[started] = False
            self.pending = pending[keep]
        return True

    def _wave_by_rank(self, ready: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions in :attr:`pending` that start this wave, and the in-flight loads.

        *ready* holds the positions of the startable moves, no shard
        twice.  Round ``r`` decides every destination's ``r``-th ready
        move together.
        """
        table = self.table
        in_flight = np.zeros_like(self.loads)
        n = ready.size
        rows = self.pending[ready]
        dst = table.dst[rows]
        # rank: ready moves before this one (in pending order) with its
        # destination.  Moves are regrouped by rank, one slice per round.
        by_dst = np.argsort(dst, kind="stable")
        sorted_dst = dst[by_dst]
        new_dst = np.ones(n, dtype=bool)
        np.not_equal(sorted_dst[1:], sorted_dst[:-1], out=new_dst[1:])
        position = np.arange(n)
        rank = position - np.maximum.accumulate(np.where(new_dst, position, 0))
        by_rank = by_dst[np.argsort(rank, kind="stable")]
        bounds = np.concatenate(([0], np.cumsum(np.bincount(rank))))
        dst = dst[by_rank]
        extra = self.state.demand[table.shard[rows[by_rank]]]
        base = self.loads[dst]
        limit = self.state.capacity[dst] + ATOL
        started = np.zeros(n, dtype=bool)
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist(), strict=True):
            d = dst[a:b]
            fits = np.all(base[a:b] + in_flight[d] + extra[a:b] <= limit[a:b], axis=1)
            in_flight[d[fits]] += extra[a:b][fits]
            started[a:b] = fits
        in_pending_order = np.zeros(n, dtype=bool)
        in_pending_order[by_rank] = started
        return ready[in_pending_order], in_flight

    def _wave_in_order(self, ready: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_wave_by_rank`, one move at a time in pending order."""
        table = self.table
        loads = self.loads
        capacity = self.state.capacity
        demand = self.state.demand
        has_replicas = bool(self.state.replica_groups)
        in_flight = np.zeros_like(loads)
        started: list[int] = []
        moving: set[int] = set()  # shards moving this wave
        for pos in ready.tolist():
            row = self.pending[pos]
            shard, dst = int(table.shard[row]), int(table.dst[row])
            if shard in moving:
                continue  # one hop per shard per wave
            if has_replicas and self._replica_blocked(shard, dst):
                continue  # a sibling currently lives on the destination
            extra = demand[shard]
            if np.all(loads[dst] + in_flight[dst] + extra <= capacity[dst] + ATOL):
                in_flight[dst] += extra
                started.append(pos)
                moving.add(shard)
        return np.array(started, dtype=np.int64), in_flight

    def to_schedule(
        self, num_waves: int | None = None, stranded: np.ndarray | None = None
    ) -> Schedule:
        """The first *num_waves* packed waves as a :class:`Schedule`.

        *stranded* holds table rows.  Each returned wave is traced once as
        a ``migration.wave`` event, so call this once per result.
        """
        n = len(self.waves) if num_waves is None else num_waves
        schedule = Schedule(
            self.table,
            self.waves[:n],
            np.empty(0, dtype=np.int64) if stranded is None else stranded,
            self.peaks[n],
        )
        tracer = obs.current().tracer
        if tracer.enabled:
            for k, rows in enumerate(self.waves[:n]):
                tracer.event(
                    "migration.wave",
                    wave=k,
                    moves=int(rows.size),
                    bytes=self.table.total_bytes(rows),
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

    def schedule(self, state: ClusterState, moves: Sequence[Move]) -> Schedule:
        """Schedule *moves* starting from *state*'s current placement.

        Moves that cannot start once no wave makes progress are reported
        as ``stranded``.  The input state is not mutated.
        """
        packer = WavePacker(state, moves)
        packer.pack()
        return packer.to_schedule(stranded=packer.pending)
