"""Single-server FCFS machines held as arrays, with piecewise-constant speeds.

A :class:`ServingFleet` keeps ``speed``, ``base_speed``, ``free_at`` and
the busy seconds of its machines as ``(m,)`` arrays, plus one buffer of
the tasks still pending anywhere in the fleet.  A speed change (a
migration wave derating the endpoints of in-flight copies, for example)
re-times the pending tasks of its machine.  Between speed changes the
fleet is analytic: a task's start and finish are computed in closed form
at enqueue, so no completion events are needed.

**Rank rounds.**  One query's fan-out is submitted at once as a
:class:`FanOut`, a grid whose row ``g`` holds the tasks of machine
``machines[g]`` in enqueue order; column ``r`` is round ``r``, the r-th
task of every machine.  Machines are independent, so serving the grid
is serving the tasks in enqueue order.

**Bitwise contract** (relied on by the ``simulate_serving`` facade's
equivalence gate and pinned against ``tests/oracles/fcfs.py``): with a
constant speed, each machine performs, per positive-work task and in
enqueue order::

    start = max(now, free_at)
    service = work / speed
    free_at = start + service
    busy_time += service

From rank 1 on the ``max`` returns ``free_at`` itself, which is already
at least ``now``; so along a row the finishes are a running sum from
``max(now, free_at)`` and the busy time a running sum from its old
value, which ``np.add.accumulate`` evaluates left to right.  Zero-work
cells (padding, and tasks with zero work) add ``0.0``, which changes
nothing, and a machine whose cells are all zero keeps its ``free_at``.
A query's finish is the maximum of its tasks' finishes, exact in any
order.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.typing as npt

__all__ = ["FanOut", "ServingFleet"]

#: Pending-task slots a new fleet starts with; the buffer doubles as needed.
_INITIAL_SLOTS = 16


class FanOut:
    """One query's tasks laid out in rank rounds.

    Task ``i`` (in enqueue order) runs on machine ``hosts[i]`` and reads
    its work from entry ``columns[i]`` of the work vector passed to
    :meth:`ServingFleet.submit`.  ``grid[g, r]`` is the column of the
    r-th task on ``machines[g]``; ``pad`` marks the cells past the end of
    a shorter row (None when every row is full).
    """

    __slots__ = ("machines", "grid", "pad", "cell_machine")

    def __init__(self, hosts: npt.ArrayLike, columns: npt.ArrayLike) -> None:
        host = np.asarray(hosts, dtype=np.int64)
        column = np.asarray(columns, dtype=np.int64)
        if host.ndim != 1 or host.shape != column.shape:
            raise ValueError("hosts and columns must be parallel 1-D arrays")
        order = np.argsort(host, kind="stable")
        sorted_hosts = host[order]
        opens = np.ones(host.size, dtype=bool)
        np.not_equal(sorted_hosts[1:], sorted_hosts[:-1], out=opens[1:])
        first = np.flatnonzero(opens)
        row = np.cumsum(opens) - 1
        rank = np.arange(host.size) - first[row]
        rounds = int(rank.max(initial=-1)) + 1
        self.machines = sorted_hosts[first]
        self.grid = np.zeros((first.size, rounds), dtype=np.int64)
        self.grid[row, rank] = column[order]
        self.pad: np.ndarray | None = None
        if host.size < self.grid.size:
            self.pad = np.ones(self.grid.shape, dtype=bool)
            self.pad[row, rank] = False
        self.cell_machine = np.repeat(self.machines, rounds).reshape(self.grid.shape)


class ServingFleet:
    """The FCFS machines of one cluster, as ``(m,)`` arrays.

    Parameters
    ----------
    speeds:
        Initial (and base) speed of each machine, in work units per
        second.  ``base_speed`` is the un-derated reference that
        :meth:`set_derate` applies fractions to; it already includes any
        static background derating the caller folded in.

    Every query gets an id from :meth:`new_query`; its finish time starts
    at its arrival and folds in its tasks' finishes as they retire.
    Pending tasks live in one buffer, in enqueue order.  A task is
    retired once it has finished by the current time (no later speed
    change can move it), so the buffer holds the tasks in flight rather
    than every task of the run.
    """

    __slots__ = (
        "speed", "base_speed", "free_at", "_busy",
        "_finish_of", "_queries",
        "_size", "_host", "_query", "_enqueued", "_work", "_start", "_finish",
    )

    def __init__(self, speeds: np.ndarray) -> None:
        arr = np.array(speeds, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"speeds must be a non-empty 1-D array, got shape {arr.shape}")
        if not np.all((arr > 0) & (arr < math.inf)):
            raise ValueError(f"speeds must be finite and > 0, got {arr!r}")
        self.speed = arr
        self.base_speed = arr.copy()
        self.free_at = np.zeros(arr.size)
        self._busy = np.zeros(arr.size)
        self._finish_of = np.empty(64)
        self._queries = 0
        self._size = 0
        self._host = np.empty(_INITIAL_SLOTS, dtype=np.int64)
        self._query = np.empty(_INITIAL_SLOTS, dtype=np.int64)
        self._enqueued = np.empty(_INITIAL_SLOTS)
        self._work = np.empty(_INITIAL_SLOTS)
        self._start = np.empty(_INITIAL_SLOTS)
        self._finish = np.empty(_INITIAL_SLOTS)

    def __len__(self) -> int:
        return int(self.speed.size)

    # ------------------------------------------------------------------ serve
    def new_query(self, arrival: float) -> int:
        """Open a query arriving at *arrival*; returns its id."""
        q = self._queries
        if q == self._finish_of.size:
            self._finish_of = np.concatenate([self._finish_of, np.empty(q)])
        self._finish_of[q] = arrival
        self._queries = q + 1
        return q

    def submit(self, now: float, query: int, fanout: FanOut, work: np.ndarray) -> None:
        """Enqueue *query*'s tasks at time *now* (non-decreasing).

        ``work[fanout.grid]`` is the work of each task; tasks with zero
        work are skipped.
        """
        machines = fanout.machines
        if not machines.size:
            return
        w = work[fanout.grid]
        if fanout.pad is not None:
            w[fanout.pad] = 0.0
        rounds = w.shape[1]
        free_before = self.free_at[machines]
        # chain[0]: free_at then each finish; chain[1]: busy time.
        chain = np.empty((2, machines.size, rounds + 1))
        np.maximum(now, free_before, out=chain[0, :, 0])
        chain[1, :, 0] = self._busy[machines]
        np.divide(w, self.speed[machines][:, None], out=chain[0, :, 1:])
        chain[1, :, 1:] = chain[0, :, 1:]
        np.add.accumulate(chain, axis=2, out=chain)
        positive = w > 0.0
        self.free_at[machines] = np.where(positive.any(axis=1), chain[0, :, -1], free_before)
        self._busy[machines] = chain[1, :, -1]

        count = int(np.count_nonzero(positive))
        self._reserve(now, count)
        at = slice(self._size, self._size + count)
        self._host[at] = fanout.cell_machine[positive]
        self._query[at] = query
        self._enqueued[at] = now
        self._work[at] = w[positive]
        self._start[at] = chain[0, :, :-1][positive]
        self._finish[at] = chain[0, :, 1:][positive]
        self._size += count

    def set_speed(self, now: float, machine: int, speed: float) -> None:
        """Change *machine*'s speed at time *now*, re-timing its pending tasks.

        Completed work is conserved: the in-service task keeps what it
        processed at the old speed and finishes its remainder at the new
        one; queued tasks are re-chained behind it.  An equal speed is a
        no-op.

        Each queued task restarts at ``max(enqueued, previous finish)``,
        and the previous finish is at least ``now``, which is at least
        every enqueue time; so the new finishes are a running sum from
        ``now``.  The busy time is kept exact by adding each task's
        finish delta, in queue order.
        """
        if not 0.0 < speed < math.inf:
            raise ValueError(f"speed must be finite and > 0, got {speed!r}")
        old = float(self.speed[machine])
        if speed == old:
            return
        self.speed[machine] = speed
        # A machine's finishes never decrease along its queue, so its
        # tasks still pending at *now* are a suffix of its tasks.
        idx = np.flatnonzero(self._host[: self._size] == machine)
        idx = idx[np.searchsorted(self._finish[idx], now, side="right"):]
        if not idx.size:
            return
        works = self._work[idx]
        in_service = self._start[idx[0]]
        if in_service < now:
            # Bank the work done so far at the old speed.
            works[0] = max(works[0] - (now - in_service) * old, 0.0)
        chain = np.empty(idx.size + 1)
        chain[0] = now
        np.divide(works, speed, out=chain[1:])
        np.add.accumulate(chain, out=chain)
        busy = np.empty(idx.size + 1)
        busy[0] = self._busy[machine]
        np.subtract(chain[1:], self._finish[idx], out=busy[1:])
        self._busy[machine] = np.add.accumulate(busy)[-1]
        self._work[idx] = works
        self._start[idx] = chain[:-1]
        self._finish[idx] = chain[1:]
        self.free_at[machine] = chain[-1]

    def set_derate(self, now: float, machine: int, fraction: float) -> None:
        """Derate *machine* to ``base_speed * (1 - fraction)`` (fraction in [0, 1))."""
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"derate fraction must be in [0, 1), got {fraction!r}")
        self.set_speed(now, machine, float(self.base_speed[machine]) * (1.0 - fraction))

    def clear_derate(self, now: float, machine: int) -> None:
        """Restore *machine* to its base speed."""
        self.set_speed(now, machine, float(self.base_speed[machine]))

    # ---------------------------------------------------------------- results
    def flush(self) -> None:
        """Retire every pending task (end of simulation)."""
        self._retire(np.ones(self._size, dtype=bool))

    def busy_time(self) -> np.ndarray:
        """(m,) seconds each machine spent serving."""
        return self._busy.copy()

    def finish_times(self, queries: np.ndarray) -> np.ndarray:
        """Finish time of each query in *queries* (flush the fleet first)."""
        return self._finish_of[np.asarray(queries, dtype=np.int64)]

    # -------------------------------------------------------------- internals
    def _reserve(self, now: float, count: int) -> None:
        """Make room for *count* more tasks, retiring those done by *now*.

        A later speed change happens at a time >= now, so a task that
        finished by now can no longer move.
        """
        if self._size + count <= self._host.size:
            return
        self._retire(self._finish[: self._size] <= now)
        need = self._size + count
        if 2 * need > self._host.size:
            slots = max(2 * self._host.size, 2 * need)
            for name in ("_host", "_query", "_enqueued", "_work", "_start", "_finish"):
                old = getattr(self, name)
                grown = np.empty(slots, dtype=old.dtype)
                grown[: self._size] = old[: self._size]
                setattr(self, name, grown)

    def _retire(self, done: np.ndarray) -> None:
        """Fold the pending tasks marked *done* into their queries and drop them."""
        size = self._size
        np.maximum.at(self._finish_of, self._query[:size][done], self._finish[:size][done])
        keep = np.flatnonzero(~done)
        for buf in (self._host, self._query, self._enqueued, self._work, self._start, self._finish):
            buf[: keep.size] = buf[keep]
        self._size = int(keep.size)
