"""Mutable cluster placement state.

:class:`ClusterState` is the data structure every algorithm in the library
manipulates.  It couples an immutable description of the fleet (machine
capacities, shard demands) with the one piece of mutable state — the
assignment array ``assign[j] = machine index`` — and keeps the per-machine
load matrix incrementally up to date so that a single shard move costs
O(d) rather than O(n·d).

Hot-path contract (relied on by the LNS inner loop; see the "Delta
evaluation contract" section of docs/ARCHITECTURE.md):

* the loads live in one C-contiguous ``(d, m)`` array, the layout the
  vectorized score kernels consume (:meth:`loads_by_dim`; see
  docs/ARCHITECTURE.md, "SoA memory layout"); ``loads`` is its ``(m, d)``
  transpose, a view of the same memory;
* ``move``/``unassign``/``assign_shard`` update the loads in O(d);
* incrementally maintained caches: per-machine shard counts
  (:meth:`shard_counts`, O(1) per move), the vacant in-service machine
  count (:attr:`num_vacant_in_service`), the unassigned-shard count
  (:meth:`is_fully_assigned` is O(1)), per-machine peak utilization
  (:meth:`machine_peak_utilization`, lazily refreshed for dirty rows
  only), and the replica anti-affinity conflict count
  (:attr:`replica_conflict_count`);
* every array accessor (``capacity``, ``demand``, ``loads``, the masks,
  :meth:`assignment_view`, :meth:`shard_counts`,
  :meth:`machine_peak_utilization`, the ``*_by_dim()`` methods, …) is
  read-only: a write raises ``ValueError``.  The live arrays show
  through cached read-only views, so reading costs nothing and a write
  through any alias fails loudly instead of desynchronizing the caches
  below.  :meth:`capacity_by_dim` / :meth:`inv_capacity_by_dim` are
  ``(d, m)`` mirrors of the immutable capacities;
* ``copy()`` is a cheap structural copy (arrays copied, descriptions
  shared);
* ``with state.transaction():`` brackets a transaction: the block
  opens on a snapshot of the mutable arrays, so every
  ``move``/``assign_shard``/``unassign``/``unassign_many``/
  ``block_machine``/``unblock_machine`` inside it is undoable.
  ``commit()`` inside the block keeps the mutations; any other exit,
  an exception included, restores the state — including every cache
  above — **bitwise** to its entry image.  The
  ``begin()``/``commit()``/``rollback()`` primitives underneath stay
  public, but code outside this module opens transactions only through
  ``transaction()`` (lint rule REP003).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.cluster.machine import Machine
from repro.cluster.resources import ResourceSchema, safe_ratio
from repro.cluster.shard import Shard

__all__ = ["ClusterState", "UNASSIGNED"]

#: Sentinel value in the assignment array for a shard not currently placed
#: (only ever observed transiently, inside destroy/repair cycles).
UNASSIGNED: int = -1

#: The arrays fixed for a state's lifetime (the last three computed
#: lazily).  Each is frozen where it is made, so copies share one
#: read-only object.
_FROZEN_ATTRS = (
    "_capacity", "_demand", "_sizes", "_exchange_mask", "_norm_demand", "_cap_t", "_inv_cap_t"
)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """*arr* itself, made read-only: a write through it raises ``ValueError``."""
    arr.flags.writeable = False
    return arr


def _summed_loads(hosts: np.ndarray, demand: np.ndarray, m: int) -> np.ndarray:
    """(d, m) per-machine sums of *demand* rows, row ``j`` landing on
    machine ``hosts[j]``.

    One ``np.bincount`` per dimension.  It adds the weights in row order
    starting from 0.0, so the sums are bitwise what ``np.add.at`` over
    the rows gives.
    """
    # A float output: bincount returns int zeros when *hosts* is empty.
    out = np.empty((demand.shape[1], m))
    for k in range(demand.shape[1]):
        out[k] = np.bincount(hosts, weights=demand[:, k], minlength=m)
    return out


def _check_fleet(machines: Sequence[Machine], shards: Sequence[Shard]) -> None:
    """Raise unless both lists are non-empty with dense ids ``0..k-1``."""
    if not machines:
        raise ValueError("ClusterState requires at least one machine")
    if not shards:
        raise ValueError("ClusterState requires at least one shard")
    if [mach.id for mach in machines] != list(range(len(machines))):
        raise ValueError("machine ids must be dense 0..m-1 in order")
    if [sh.id for sh in shards] != list(range(len(shards))):
        raise ValueError("shard ids must be dense 0..n-1 in order")


def _checked_assignment(assignment: Sequence[int] | np.ndarray, n: int, m: int) -> np.ndarray:
    """A private int64 copy of *assignment*, checked to place *n* shards
    on machines ``0..m-1`` (or leave them :data:`UNASSIGNED`)."""
    arr = np.array(assignment, dtype=np.int64)
    if arr.shape != (n,):
        raise ValueError(f"assignment must have shape ({n},), got {arr.shape}")
    bad = (arr != UNASSIGNED) & ((arr < 0) | (arr >= m))
    if np.any(bad):
        raise ValueError(f"assignment references unknown machines at shards {np.flatnonzero(bad)}")
    return arr


def _replica_tables(shards: Sequence[Shard]) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Each shard's logical id (``-1`` if unreplicated), and logical id
    -> member shard ids for the replicated ones."""
    groups: dict[int, list[int]] = {}
    for sh in shards:
        if sh.replica_of >= 0:
            groups.setdefault(sh.replica_of, []).append(sh.id)
    return (
        np.array([sh.replica_of for sh in shards], dtype=np.int64),
        {g: np.asarray(members, dtype=np.int64) for g, members in groups.items()},
    )


class _Frame:
    """One open transaction: a snapshot of the mutable arrays.

    ``begin()`` stores bitwise copies of the arrays, O(n + m·d) with
    memcpy constants, and rollback is a few ``np.copyto`` calls.  The
    replica-host counters are the exception: each ``(group, machine)``
    counter *first touched* inside the frame records its value at
    ``begin()``.  Rollback restores saved values rather than replaying
    inverse arithmetic (``(x + b) - b`` is not always ``x`` in floating
    point), so the state comes back bitwise.
    """

    __slots__ = (
        "assign",
        "loads_t",
        "counts",
        "peak",
        "peak_dirty",
        "peak_any_dirty",
        "blocked",
        "replica_hosts",
        "num_unassigned",
        "num_vacant",
        "conflicts",
    )

    def __init__(self, state: "ClusterState") -> None:
        self.assign = state._assign.copy()
        self.loads_t = state._loads_t.copy()
        self.counts = state._counts.copy()
        self.peak = state._peak.copy()
        self.peak_dirty = state._peak_dirty.copy()
        self.peak_any_dirty = state._peak_any_dirty
        self.blocked = state._blocked.copy()
        # Replica host counters are saved per touched (group, machine)
        # pair: they live in nested dicts whose full copy would be
        # O(groups) even for a tiny transaction.
        self.replica_hosts: dict[tuple[int, int], int] = {}
        self.num_unassigned = state._num_unassigned
        self.num_vacant = state._num_vacant
        self.conflicts = state._replica_conflicts


class ClusterState:
    """Machines + shards + a (partial) assignment, with O(d) move updates.

    Parameters
    ----------
    machines:
        Machine descriptions with dense ids ``0..m-1``.
    shards:
        Shard descriptions with dense ids ``0..n-1``.
    assignment:
        Initial assignment: ``assignment[j]`` is the machine id hosting
        shard ``j`` (or :data:`UNASSIGNED`).  Defaults to all unassigned.

    Notes
    -----
    The constructor does **not** require the assignment to respect
    capacities — overloaded clusters are a legitimate input (that is what
    the rebalancer is for).  Use :meth:`is_within_capacity` to test.
    """

    def __init__(
        self,
        machines: Sequence[Machine],
        shards: Sequence[Shard],
        assignment: Sequence[int] | np.ndarray | None = None,
    ) -> None:
        _check_fleet(machines, shards)
        schema = machines[0].schema
        for mach in machines:
            if mach.schema != schema:
                raise ValueError("all machines must share one resource schema")
        for sh in shards:
            if sh.schema != schema:
                raise ValueError("all shards must share the machines' resource schema")

        self._schema = schema
        self._machines: tuple[Machine, ...] = tuple(machines)
        self._shards: tuple[Shard, ...] = tuple(shards)
        self._capacity = _frozen(np.stack([mach.capacity for mach in machines]))  # (m, d)
        self._demand = _frozen(np.stack([sh.demand for sh in shards]))  # (n, d)
        self._sizes = _frozen(np.array([sh.size_bytes for sh in shards], dtype=np.float64))
        self._exchange_mask = _frozen(np.array([mach.exchange for mach in machines], dtype=bool))
        self._norm_demand: np.ndarray | None = None  # lazy, shared by copies
        # Lazy (d, m) SoA mirrors of the immutable capacity matrix, shared
        # by copies like _norm_demand.
        self._cap_t: np.ndarray | None = None
        self._inv_cap_t: np.ndarray | None = None

        n = len(shards)
        if assignment is None:
            self._assign = np.full(n, UNASSIGNED, dtype=np.int64)
        else:
            self._assign = _checked_assignment(assignment, n, len(machines))
        self._blocked = np.zeros(len(machines), dtype=bool)
        self._offline = np.zeros(len(machines), dtype=bool)
        # Replica groups: logical shard id -> member shard ids (only for
        # shards declaring replica_of >= 0).  Anti-affinity (no two
        # members on one machine) is enforced by the algorithms, checked
        # via replica_conflicts().
        self._replica_of, self._replica_groups = _replica_tables(shards)
        self._frame: _Frame | None = None
        self._rebuild_caches()

    # -------------------------------------------------------------- caches
    def _rebuild_caches(self) -> None:
        """Recompute every incrementally-maintained cache from scratch."""
        m = len(self._machines)
        placed = self._assign != UNASSIGNED
        hosts = self._assign[placed]
        # The one load array, (d, m) C-contiguous; ``loads`` is its
        # transpose (see loads_by_dim).
        self._loads_t = _summed_loads(hosts, self._demand[placed], m)
        self._counts = np.bincount(hosts, minlength=m).astype(np.int64, copy=False)
        self._num_unassigned = int(np.sum(~placed))
        self._num_vacant = int(np.sum((self._counts == 0) & ~self._offline))
        self._peak = (self._loads_t.T / self._capacity).max(axis=1)
        self._peak_dirty = np.zeros(m, dtype=bool)
        self._peak_any_dirty = False
        # Replica host counters: group -> {machine -> member count}, and
        # the number of (machine, group) pairs hosting > 1 member.
        self._replica_hosts: dict[int, dict[int, int]] = {}
        self._replica_conflicts = 0
        for g, members in self._replica_groups.items():
            hosts: dict[int, int] = {}
            for j in members:
                mach = int(self._assign[j])
                if mach != UNASSIGNED:
                    cnt = hosts.get(mach, 0) + 1
                    hosts[mach] = cnt
                    if cnt == 2:
                        self._replica_conflicts += 1
            self._replica_hosts[g] = hosts
        self._publish_views()

    def _publish_views(self) -> None:
        """Cache the read-only view of each mutable array that the
        accessors hand out.

        The state writes its arrays in place (rollback included), so a
        view keeps showing the live data and reading it costs one
        attribute load.  Called wherever the arrays are (re)bound.
        """
        self._assign_view = _frozen(self._assign.view())
        self._loads_view = _frozen(self._loads_t.T)
        self._loads_t_view = _frozen(self._loads_t.view())
        self._counts_view = _frozen(self._counts.view())
        self._peak_view = _frozen(self._peak.view())
        self._blocked_view = _frozen(self._blocked.view())
        self._offline_view = _frozen(self._offline.view())

    def __getstate__(self) -> dict[str, object]:
        """Pickle without the cached ``*_view`` attributes: numpy pickles
        a view as an independent copy, which would stop following the
        array it mirrors."""
        return {k: v for k, v in self.__dict__.items() if not k.endswith("_view")}

    def __setstate__(self, state: dict[str, object]) -> None:
        """Restore a pickled state, freezing its fixed arrays again and
        rebuilding the views over its own arrays."""
        self.__dict__.update(state)
        for name in _FROZEN_ATTRS:
            arr = getattr(self, name)
            if arr is not None:
                _frozen(arr)
        self._publish_views()

    def _refreshed_peaks(self) -> np.ndarray:
        """The live per-machine peak-utilization cache, refreshed lazily.

        Peak rows are marked dirty by mutations and recomputed here in
        one vectorized pass — bitwise identical to a from-scratch
        ``(loads / capacity).max(axis=1)`` because machine capacities are
        validated strictly positive.  Returns the private array itself,
        for reads inside this module.
        """
        if self._peak_any_dirty:
            idx = np.flatnonzero(self._peak_dirty)
            self._peak[idx] = (self._loads_view[idx] / self._capacity[idx]).max(axis=1)
            self._peak_dirty[idx] = False
            self._peak_any_dirty = False
        return self._peak

    # ---------------------------------------------------------------- sizes
    @property
    def schema(self) -> ResourceSchema:
        """Resource schema shared by all machines and shards."""
        return self._schema

    @property
    def num_machines(self) -> int:
        return len(self._machines)

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def dims(self) -> int:
        return self._schema.dims

    @property
    def machines(self) -> tuple[Machine, ...]:
        return self._machines

    @property
    def shards(self) -> tuple[Shard, ...]:
        return self._shards

    # --------------------------------------------------------------- arrays
    @property
    def capacity(self) -> np.ndarray:
        """(m, d) capacity matrix.  Read-only: a write raises ``ValueError``."""
        return self._capacity

    @property
    def demand(self) -> np.ndarray:
        """(n, d) demand matrix.  Read-only: a write raises ``ValueError``."""
        return self._demand

    @property
    def sizes(self) -> np.ndarray:
        """(n,) migration byte sizes.  Read-only: a write raises ``ValueError``."""
        return self._sizes

    @property
    def loads(self) -> np.ndarray:
        """(m, d) current load matrix, maintained incrementally: the
        transpose of :meth:`loads_by_dim`, sharing its memory.
        Read-only: a write raises ``ValueError``."""
        return self._loads_view

    @property
    def exchange_mask(self) -> np.ndarray:
        """(m,) bool mask of machines borrowed from the exchange pool.
        Read-only: a write raises ``ValueError``."""
        return self._exchange_mask

    @property
    def assignment(self) -> np.ndarray:
        """Copy of the (n,) assignment array."""
        return self._assign.copy()

    def assignment_view(self) -> np.ndarray:
        """The live assignment array.  Read-only: a write raises
        ``ValueError``."""
        return self._assign_view

    def normalized_demand(self) -> np.ndarray:
        """(n, d) demand scaled to [0, 1] per dimension (cached; demand is
        immutable so the matrix is computed once and shared by copies).
        Read-only: a write raises ``ValueError``."""
        if self._norm_demand is None:
            self._norm_demand = _frozen(
                self._demand / np.maximum(self._demand.max(axis=0, keepdims=True), 1e-12)
            )
        return self._norm_demand

    def loads_by_dim(self) -> np.ndarray:
        """The live (d, m) C-contiguous load array.  Read-only: a write
        raises ``ValueError``.

        Row ``k`` is the per-machine load in dimension ``k``; ``loads``
        is the transpose of the same array.  This is the
        structure-of-arrays layout the vectorized score kernels stream
        over: one contiguous row per resource dimension.
        """
        return self._loads_t_view

    def capacity_by_dim(self) -> np.ndarray:
        """(d, m) C-contiguous capacity mirror (lazy; shared by copies).
        Read-only: a write raises ``ValueError``."""
        if self._cap_t is None:
            self._cap_t = _frozen(np.ascontiguousarray(self._capacity.T))
        return self._cap_t

    def inv_capacity_by_dim(self) -> np.ndarray:
        """(d, m) elementwise ``1.0 / capacity`` mirror (lazy; shared by
        copies).  Read-only: a write raises ``ValueError``.  Capacities
        are validated strictly positive, so every entry is finite."""
        if self._inv_cap_t is None:
            self._inv_cap_t = _frozen(1.0 / self.capacity_by_dim())
        return self._inv_cap_t

    # --------------------------------------------------------- transactions
    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Run the ``with`` body in a transaction; roll it back unless the
        body commits.

        The frame is a :meth:`begin` frame.  Calling :meth:`commit` in
        the body keeps its mutations.  Any other exit — falling off the
        end, ``return``/``break``, or an exception, which propagates —
        rolls the state back bitwise to its entry image.  A nested
        ``transaction()`` raises ``RuntimeError`` and leaves the outer
        frame open, so the outer block still rolls back.
        """
        self.begin()
        try:
            yield
        finally:
            if self._frame is not None:
                self.rollback()

    def begin(self) -> None:
        """Open a transaction; every mutation until :meth:`commit` /
        :meth:`rollback` is undoable.

        The primitive under :meth:`transaction`, which is how callers
        outside this module open one: its ``finally`` guarantees that
        the frame is closed on every path (lint rule REP003 flags any
        other ``.begin()`` call).

        The frame copies the mutable arrays up front, O(n + m·d) with
        memcpy constants; the mutators record only the replica-host
        counters they touch.

        Transactions do not nest, and :meth:`apply_assignment`,
        :meth:`set_offline` and :meth:`copy` are forbidden while one is
        open.
        """
        if self._frame is not None:
            raise RuntimeError("transaction already open (nested begin())")
        self._frame = _Frame(self)

    @property
    def in_transaction(self) -> bool:
        """True while a :meth:`begin` frame is open."""
        return self._frame is not None

    def commit(self) -> None:
        """Keep every mutation since :meth:`begin`; drop the snapshot."""
        if self._frame is None:
            raise RuntimeError("commit() without begin()")
        self._frame = None

    def rollback(self) -> None:
        """Restore the state bitwise to its :meth:`begin` image."""
        fr = self._frame
        if fr is None:
            raise RuntimeError("rollback() without begin()")
        self._frame = None
        np.copyto(self._assign, fr.assign)
        np.copyto(self._loads_t, fr.loads_t)
        np.copyto(self._counts, fr.counts)
        np.copyto(self._peak, fr.peak)
        np.copyto(self._peak_dirty, fr.peak_dirty)
        self._peak_any_dirty = fr.peak_any_dirty
        np.copyto(self._blocked, fr.blocked)
        for (g, mach), cnt in fr.replica_hosts.items():
            hosts = self._replica_hosts[g]
            if cnt == 0:
                hosts.pop(mach, None)
            else:
                hosts[mach] = cnt
        self._num_unassigned = fr.num_unassigned
        self._num_vacant = fr.num_vacant
        self._replica_conflicts = fr.conflicts

    # ------------------------------------------------------------ mutation
    def _check_shard(self, shard_id: int) -> None:
        """Raise ``ValueError`` unless *shard_id* names a shard (a
        negative id would otherwise wrap around the arrays)."""
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"unknown shard {shard_id}")

    def _check_machine(self, machine_id: int) -> None:
        """Raise ``ValueError`` unless *machine_id* names a machine."""
        if not 0 <= machine_id < self.num_machines:
            raise ValueError(f"unknown machine {machine_id}")

    def machine_of(self, shard_id: int) -> int:
        """Machine currently hosting *shard_id* (or :data:`UNASSIGNED`)."""
        self._check_shard(shard_id)
        return int(self._assign[shard_id])

    def _host_leave(self, shard_id: int, machine_id: int) -> None:
        """Replica bookkeeping for a member leaving *machine_id*."""
        group = int(self._replica_of[shard_id])
        if group < 0:
            return
        hosts = self._replica_hosts[group]
        fr = self._frame
        if fr is not None:
            key = (group, machine_id)
            if key not in fr.replica_hosts:
                fr.replica_hosts[key] = hosts.get(machine_id, 0)
        cnt = hosts[machine_id] - 1
        if cnt:
            hosts[machine_id] = cnt
            if cnt == 1:
                self._replica_conflicts -= 1
        else:
            del hosts[machine_id]

    def _host_enter(self, shard_id: int, machine_id: int) -> None:
        """Replica bookkeeping for a member landing on *machine_id*."""
        group = int(self._replica_of[shard_id])
        if group < 0:
            return
        hosts = self._replica_hosts[group]
        fr = self._frame
        if fr is not None:
            key = (group, machine_id)
            if key not in fr.replica_hosts:
                fr.replica_hosts[key] = hosts.get(machine_id, 0)
        cnt = hosts.get(machine_id, 0) + 1
        hosts[machine_id] = cnt
        if cnt == 2:
            self._replica_conflicts += 1

    def unassign(self, shard_id: int) -> int:
        """Remove a shard from its machine; return the former machine id."""
        # The id checks of the two hot mutators are inlined.
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"unknown shard {shard_id}")
        src = int(self._assign[shard_id])
        if src == UNASSIGNED:
            return UNASSIGNED
        self._loads_t[:, src] -= self._demand[shard_id]
        self._assign[shard_id] = UNASSIGNED
        self._num_unassigned += 1
        cnt = int(self._counts[src]) - 1
        self._counts[src] = cnt
        if cnt == 0 and not self._offline[src]:
            self._num_vacant += 1
        if not self._peak_dirty[src]:
            self._peak_dirty[src] = True
            self._peak_any_dirty = True
        if self._replica_groups:
            self._host_leave(shard_id, src)
        return src

    def unassign_many(self, shard_ids: Sequence[int] | np.ndarray) -> None:
        """Remove many shards at once (vectorized load/count updates).

        Equivalent to calling :meth:`unassign` in sequence — including
        bitwise-identical load arithmetic, since ``np.subtract.at``
        applies the per-shard subtractions in the order given — but with
        one NumPy dispatch instead of one per shard.  Raises
        ``ValueError`` for an unknown or repeated shard id.
        """
        ids = np.asarray(shard_ids, dtype=np.int64)
        if ids.size == 0:
            return
        if ids.min() < 0 or ids.max() >= self.num_shards:
            bad = ids[(ids < 0) | (ids >= self.num_shards)]
            raise ValueError(f"unknown shards {bad.tolist()}")
        srcs = self._assign[ids]
        placed = srcs != UNASSIGNED
        if not np.all(placed):
            ids = ids[placed]
            srcs = srcs[placed]
            if ids.size == 0:
                return
        if ids.size > 1:
            s = np.sort(ids)
            if bool(np.any(s[1:] == s[:-1])):
                raise ValueError("unassign_many: duplicate shard ids")
        np.subtract.at(self._loads_t.T, srcs, self._demand[ids])
        self._assign[ids] = UNASSIGNED
        self._num_unassigned += int(ids.size)
        touched, per = np.unique(srcs, return_counts=True)
        self._counts[touched] -= per
        self._num_vacant += int(
            np.sum((self._counts[touched] == 0) & ~self._offline[touched])
        )
        self._peak_dirty[touched] = True
        self._peak_any_dirty = True
        if self._replica_groups:
            for j, s in zip(ids.tolist(), srcs.tolist(), strict=True):
                self._host_leave(int(j), int(s))

    def assign_shard(self, shard_id: int, machine_id: int) -> None:
        """Place an unassigned shard on *machine_id* (O(d)).

        Raises ``ValueError`` for an unknown shard or machine id, a
        placed shard, or a blocked machine (see :meth:`block_machine`).
        """
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"unknown shard {shard_id}")
        if self._assign[shard_id] != UNASSIGNED:
            raise ValueError(
                f"shard {shard_id} is already on machine {self._assign[shard_id]}; "
                "use move() or unassign() first"
            )
        if not 0 <= machine_id < self.num_machines:
            raise ValueError(f"unknown machine {machine_id}")
        if self._blocked[machine_id]:
            raise ValueError(f"machine {machine_id} is blocked for placement")
        self._assign[shard_id] = machine_id
        self._loads_t[:, machine_id] += self._demand[shard_id]
        self._num_unassigned -= 1
        cnt = int(self._counts[machine_id]) + 1
        self._counts[machine_id] = cnt
        if cnt == 1 and not self._offline[machine_id]:
            self._num_vacant -= 1
        if not self._peak_dirty[machine_id]:
            self._peak_dirty[machine_id] = True
            self._peak_any_dirty = True
        if self._replica_groups:
            self._host_enter(shard_id, machine_id)

    def move(self, shard_id: int, dst: int) -> int:
        """Move a shard to machine *dst*; return its former machine (O(d)).

        Raises ``ValueError`` for an unknown shard or machine id or a
        blocked *dst*, before anything changes.
        """
        self._check_machine(dst)
        if self._blocked[dst]:
            raise ValueError(f"machine {dst} is blocked for placement")
        src = self.unassign(shard_id)
        self.assign_shard(shard_id, dst)
        return src

    def apply_assignment(self, assignment: np.ndarray) -> None:
        """Replace the whole assignment (recomputes loads once, O(n·d))."""
        if self._frame is not None:
            raise RuntimeError("apply_assignment() inside an open transaction")
        self._assign = _checked_assignment(assignment, self.num_shards, self.num_machines)
        self._rebuild_caches()

    # -------------------------------------------------------------- queries
    def utilization(self) -> np.ndarray:
        """(m, d) load / capacity."""
        return safe_ratio(self._loads_view, self._capacity)

    def machine_peak_utilization(self) -> np.ndarray:
        """(m,) worst-dimension utilization per machine: the live cache,
        refreshed.  Read-only: a write raises ``ValueError``."""
        self._refreshed_peaks()
        return self._peak_view

    def peak_utilization(self) -> float:
        """Cluster-wide peak utilization (the primary imbalance measure)."""
        return float(self._refreshed_peaks().max())

    def headroom(self) -> np.ndarray:
        """(m, d) remaining capacity (may be negative when overloaded)."""
        return self._capacity - self._loads_view

    def assignment_drift(self, reference: np.ndarray) -> tuple[int, float]:
        """Size of the placement delta against *reference*.

        Returns ``(moves, bytes)``: the number of shards whose current
        machine differs from *reference* (unassigned counts as moved)
        and their summed index sizes — the quantities a
        :class:`~repro.algorithms.budget.MigrationBudget` bounds.  Note
        the byte figure is the raw index volume; a staged migration plan
        may transfer more (staging hops).
        """
        ref = np.asarray(reference, dtype=np.int64)
        if ref.shape != (self.num_shards,):
            raise ValueError(
                f"reference must have shape ({self.num_shards},), got {ref.shape}"
            )
        moved = self._assign != ref
        return int(np.count_nonzero(moved)), float(self.sizes[moved].sum())

    def machine_shards(self, machine_id: int) -> np.ndarray:
        """Shard ids currently hosted by *machine_id* (ascending)."""
        self._check_machine(machine_id)
        return np.flatnonzero(self._assign == machine_id)

    def shard_counts(self) -> np.ndarray:
        """(m,) number of shards per machine: the live cache.  Read-only:
        a write raises ``ValueError``."""
        return self._counts_view

    def vacant_machines(self) -> np.ndarray:
        """Ids of machines hosting no shard."""
        return np.flatnonzero(self._counts == 0)

    @property
    def num_vacant_in_service(self) -> int:
        """Number of machines hosting no shard and not offline (cached)."""
        return self._num_vacant

    def unassigned_shards(self) -> np.ndarray:
        """Ids of shards with no machine (transient during destroy/repair)."""
        return np.flatnonzero(self._assign == UNASSIGNED)

    def is_fully_assigned(self) -> bool:
        """True when every shard has a machine (cached, O(1))."""
        return self._num_unassigned == 0

    def is_within_capacity(self, *, atol: float = 1e-9) -> bool:
        """True when no machine exceeds capacity in any dimension."""
        return bool(np.all(self._loads_view <= self._capacity + atol))

    def overloaded_machines(self, *, atol: float = 1e-9) -> np.ndarray:
        """Ids of machines exceeding capacity in some dimension."""
        return np.flatnonzero(np.any(self._loads_view > self._capacity + atol, axis=1))

    def fits(self, shard_id: int, machine_id: int, *, atol: float = 1e-9) -> bool:
        """Would *shard_id* fit on *machine_id* right now (ignoring its
        current placement if it is already there)?"""
        self._check_shard(shard_id)
        self._check_machine(machine_id)
        extra = self._demand[shard_id]
        load = self._loads_view[machine_id]
        if self._assign[shard_id] == machine_id:
            return bool(np.all(load <= self._capacity[machine_id] + atol))
        return bool(np.all(load + extra <= self._capacity[machine_id] + atol))

    def total_demand(self) -> np.ndarray:
        """(d,) summed demand across all shards."""
        return self._demand.sum(axis=0)

    def total_capacity(self) -> np.ndarray:
        """(d,) summed capacity across all machines."""
        return self._capacity.sum(axis=0)

    def mean_utilization(self) -> np.ndarray:
        """(d,) total demand / total capacity — the tightness of the instance."""
        return safe_ratio(self.total_demand(), self.total_capacity())

    # ------------------------------------------------------------- replicas
    @property
    def replica_groups(self) -> dict[int, np.ndarray]:
        """Logical shard id → member shard ids (replicated shards only)."""
        return self._replica_groups

    def replica_peers(self, shard_id: int) -> np.ndarray:
        """Sibling shard ids of *shard_id* (empty for unreplicated shards)."""
        self._check_shard(shard_id)
        group = int(self._replica_of[shard_id])
        if group < 0:
            return np.empty(0, dtype=np.int64)
        members = self._replica_groups[group]
        return members[members != shard_id]

    def replica_peer_machines(self, shard_id: int) -> np.ndarray:
        """Machines currently hosting siblings of *shard_id*."""
        peers = self.replica_peers(shard_id)
        if peers.size == 0:
            return peers
        hosts = self._assign[peers]
        return np.unique(hosts[hosts != UNASSIGNED])

    def replica_conflicts(self) -> list[tuple[int, int]]:
        """(machine, logical shard) pairs hosting more than one replica."""
        out: list[tuple[int, int]] = []
        for group, hosts in self._replica_hosts.items():
            out.extend(
                (mach, group) for mach, cnt in sorted(hosts.items()) if cnt > 1
            )
        return out

    @property
    def replica_conflict_count(self) -> int:
        """Number of (machine, logical shard) anti-affinity violations
        (cached; equals ``len(replica_conflicts())``)."""
        return self._replica_conflicts

    def has_replica_conflicts(self) -> bool:
        """True when any machine hosts two replicas of one logical shard."""
        return self._replica_conflicts > 0

    # ------------------------------------------------------------- blocking
    @property
    def blocked_mask(self) -> np.ndarray:
        """(m,) bool mask of machines blocked for placement.

        Blocking is how SRA pins its *designated-return* machines: a
        blocked machine accepts no new shard, so it stays vacant by
        construction and can be handed back when the episode settles.
        Read-only: a write raises ``ValueError``.
        """
        return self._blocked_view

    def block_machine(self, machine_id: int) -> None:
        """Forbid placements on *machine_id* (it must currently be vacant)."""
        self._check_machine(machine_id)
        if self._counts[machine_id] > 0:
            raise ValueError(f"cannot block machine {machine_id}: it hosts shards")
        self._blocked[machine_id] = True

    def unblock_machine(self, machine_id: int) -> None:
        """Allow placements on *machine_id* again (not possible for
        offline machines — a dead machine stays dead)."""
        self._check_machine(machine_id)
        if self._offline[machine_id]:
            raise ValueError(f"machine {machine_id} is offline and cannot be unblocked")
        self._blocked[machine_id] = False

    @property
    def offline_mask(self) -> np.ndarray:
        """(m,) bool mask of machines that have failed / left the fleet.

        Offline implies blocked-for-placement, but unlike a blocked
        designated-return machine an offline machine can never be
        unblocked, used as a staging host, swapped by the exchange
        operator, or returned as exchange compensation.  Read-only: a
        write raises ``ValueError``.
        """
        return self._offline_view

    def set_offline(self, machine_id: int) -> None:
        """Mark a (vacant) machine as permanently out of service."""
        if self._frame is not None:
            raise RuntimeError("set_offline() inside an open transaction")
        self._check_machine(machine_id)
        if self._counts[machine_id] > 0:
            raise ValueError(
                f"cannot take machine {machine_id} offline: it hosts shards "
                "(unassign them first)"
            )
        if not self._offline[machine_id]:
            # The machine is vacant by the check above, so it leaves the
            # vacant-in-service pool.
            self._num_vacant -= 1
        self._offline[machine_id] = True
        self._blocked[machine_id] = True

    # ---------------------------------------------------------------- copy
    def copy(self) -> "ClusterState":
        """Structural copy: shares machine/shard descriptions, copies state."""
        if self._frame is not None:
            raise RuntimeError("copy() inside an open transaction")
        dup = object.__new__(ClusterState)
        dup._schema = self._schema
        dup._machines = self._machines
        dup._shards = self._shards
        dup._capacity = self._capacity
        dup._demand = self._demand
        dup._sizes = self._sizes
        dup._exchange_mask = self._exchange_mask
        dup._norm_demand = self._norm_demand
        dup._cap_t = self._cap_t
        dup._inv_cap_t = self._inv_cap_t
        dup._assign = self._assign.copy()
        dup._loads_t = self._loads_t.copy()
        dup._blocked = self._blocked.copy()
        dup._offline = self._offline.copy()
        dup._replica_of = self._replica_of
        dup._replica_groups = self._replica_groups
        dup._counts = self._counts.copy()
        dup._num_unassigned = self._num_unassigned
        dup._num_vacant = self._num_vacant
        dup._peak = self._peak.copy()
        dup._peak_dirty = self._peak_dirty.copy()
        dup._peak_any_dirty = self._peak_any_dirty
        dup._replica_hosts = {
            g: hosts.copy() for g, hosts in self._replica_hosts.items()
        }
        dup._replica_conflicts = self._replica_conflicts
        dup._frame = None
        dup._publish_views()
        return dup

    def with_extra_machines(self, extra: Iterable[Machine]) -> "ClusterState":
        """New state with *extra* machines appended (ids continue the
        dense sequence); the assignment and the masks carry over, and
        loads and caches are rebuilt.

        This is how borrowed exchange machines join a cluster.  The
        parent's exchange, blocked and offline masks carry over; the new
        machines are open.  Shard descriptions, demand, sizes and the
        replica tables are shared with the parent.  Loads and every
        cache are rebuilt from the assignment, so they are bitwise what
        the constructor computes for the grown fleet, even when the
        parent's loads were kept up move by move.
        """
        if self._frame is not None:
            raise RuntimeError("with_extra_machines() inside an open transaction")
        m = self.num_machines
        added = [mach.with_id(m + k) for k, mach in enumerate(extra)]
        if any(mach.schema != self._schema for mach in added):
            raise ValueError("all machines must share one resource schema")
        closed = np.zeros(len(added), dtype=bool)
        return self._with_fleet(
            self._machines + tuple(added),
            np.vstack([self._capacity, *(mach.capacity for mach in added)]),
            np.concatenate(
                [self._exchange_mask, np.array([mach.exchange for mach in added], dtype=bool)]
            ),
            np.concatenate([self._blocked, closed]),
            np.concatenate([self._offline, closed]),
            self._assign.copy(),
        )

    def without_machines(self, machine_ids: Sequence[int] | np.ndarray) -> "ClusterState":
        """New state with the vacant *machine_ids* removed; the kept
        machines are re-indexed densely in order, keep their masks, and
        the assignment follows them; loads and caches are rebuilt.

        This is how returned machines leave the fleet when an exchange
        episode settles.  The kept machines keep their exchange, blocked
        and offline masks.  Shard descriptions, demand, sizes and the
        replica tables are shared with this state.  The assignment is
        remapped with one ``cumsum`` over a keep mask, and loads and
        every cache are rebuilt from it, so they are bitwise what the
        constructor computes for the slimmer fleet.
        """
        if self._frame is not None:
            raise RuntimeError("without_machines() inside an open transaction")
        ids = np.asarray(machine_ids, dtype=np.int64)
        m = self.num_machines
        if np.any((ids < 0) | (ids >= m)):
            raise ValueError(f"unknown machines in {ids.tolist()}")
        keep = np.ones(m, dtype=bool)
        keep[ids] = False
        if not keep.any():
            raise ValueError("ClusterState requires at least one machine")
        busy = ids[self._counts[ids] > 0]
        if busy.size:
            raise ValueError(f"cannot remove machines that host shards: {busy.tolist()}")
        new_id = np.cumsum(keep) - 1
        assign = self._assign.copy()
        placed = assign != UNASSIGNED
        assign[placed] = new_id[assign[placed]]
        kept = [self._machines[i] for i in np.flatnonzero(keep).tolist()]
        machines = tuple(mach if mach.id == k else mach.with_id(k) for k, mach in enumerate(kept))
        return self._with_fleet(
            machines,
            self._capacity[keep],
            self._exchange_mask[keep],
            self._blocked[keep],
            self._offline[keep],
            assign,
        )

    def _with_fleet(
        self,
        machines: tuple[Machine, ...],
        capacity: np.ndarray,
        exchange: np.ndarray,
        blocked: np.ndarray,
        offline: np.ndarray,
        assign: np.ndarray,
    ) -> "ClusterState":
        """A state over another fleet of machines (given by its
        descriptions, capacity rows, masks and the assignment onto it)
        that shares this state's shard side; every cache is rebuilt."""
        dup = object.__new__(ClusterState)
        dup._schema = self._schema
        dup._machines = machines
        dup._shards = self._shards
        dup._capacity = _frozen(capacity)
        dup._demand = self._demand
        dup._sizes = self._sizes
        dup._exchange_mask = _frozen(exchange)
        dup._norm_demand = self._norm_demand
        dup._cap_t = None
        dup._inv_cap_t = None
        dup._assign = assign
        dup._blocked = blocked
        dup._offline = offline
        dup._replica_of = self._replica_of
        dup._replica_groups = self._replica_groups
        dup._frame = None
        dup._rebuild_caches()
        return dup

    def validate(self) -> None:
        """Audit every internal invariant; raise ``ValueError`` on breach.

        Used by tests (and available to users debugging custom state
        manipulations).  Checks: every accessor hands out a read-only
        array, and each cached view aliases its live array (``loads``
        included: it is the transpose of the one load array); loads and
        every incremental cache match the assignment exactly, blocked
        machines host nothing, offline implies blocked, and the
        replica-group tables agree with the shard descriptions.
        """
        for name in _FROZEN_ATTRS:
            arr = getattr(self, name)
            if arr is not None and arr.flags.writeable:
                raise ValueError(f"{name} is writeable")
        for arr, view in (
            (self._assign, self._assign_view),
            (self._loads_t, self._loads_view),
            (self._loads_t, self._loads_t_view),
            (self._counts, self._counts_view),
            (self._peak, self._peak_view),
            (self._blocked, self._blocked_view),
            (self._offline, self._offline_view),
        ):
            if view.base is not arr or view.flags.writeable:
                raise ValueError("a cached accessor view does not alias its live array")
        placed = self._assign != UNASSIGNED
        recomputed = _summed_loads(self._assign[placed], self._demand[placed], self.num_machines)
        if not np.allclose(self._loads_t, recomputed, atol=1e-6):
            raise ValueError("loads diverged from the assignment")
        counts = np.bincount(self._assign[placed], minlength=self.num_machines)
        if not np.array_equal(self._counts, counts):
            raise ValueError("shard-count cache diverged from the assignment")
        if self._num_unassigned != int(np.sum(~placed)):
            raise ValueError("unassigned-count cache diverged from the assignment")
        if self._num_vacant != int(np.sum((counts == 0) & ~self._offline)):
            raise ValueError("vacant-count cache diverged from the assignment")
        peaks = (self._loads_view / self._capacity).max(axis=1)
        live = ~self._peak_dirty
        if not np.allclose(self._peak[live], peaks[live], atol=1e-9):
            raise ValueError("peak-utilization cache diverged from the loads")
        bad = np.flatnonzero(self._blocked & (counts > 0))
        if bad.size:
            raise ValueError(f"blocked machines host shards: {bad.tolist()}")
        if np.any(self._offline & ~self._blocked):
            raise ValueError("offline machines must be blocked")
        conflicts = 0
        for group, members in self._replica_groups.items():
            for j in members:
                if self._shards[int(j)].replica_of != group:
                    raise ValueError(f"replica table inconsistent at shard {j}")
            hosts = self._assign[members]
            hosts = hosts[hosts != UNASSIGNED]
            uniq, cnt = np.unique(hosts, return_counts=True)
            expected = {int(mach): int(c) for mach, c in zip(uniq, cnt, strict=True)}
            if expected != self._replica_hosts.get(group, {}):
                raise ValueError(f"replica host cache diverged for group {group}")
            conflicts += int(np.sum(cnt > 1))
        if conflicts != self._replica_conflicts:
            raise ValueError("replica conflict counter diverged")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterState(m={self.num_machines}, n={self.num_shards}, "
            f"d={self.dims}, peak={self.peak_utilization():.3f})"
        )
