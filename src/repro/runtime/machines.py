"""Single-server FCFS machines whose speeds are piecewise-constant.

Each :class:`FCFSMachine` serves tasks in enqueue order at its current
``speed`` (work units per second).  Speeds may change at simulated-time
events — a migration wave derating the endpoints of in-flight copies,
for example — and the machine re-times its pending tasks when they do.
Between speed changes the machine is analytic: a task's start/finish are
computed in closed form at enqueue, so no completion events are needed
and the constant-speed case degenerates to exactly the arithmetic of the
legacy serving loop.

**Bitwise contract** (relied on by the ``simulate_serving`` facade's
equivalence gate): with a constant speed, :meth:`FCFSMachine.enqueue`
performs, per task and in enqueue order::

    start = max(now, free_at)
    service = work / speed
    free_at = start + service
    busy_time += service

— the identical float operations, in the identical order, as the
pre-refactor ``simulate_serving`` inner loop, so latencies and busy
times are bit-for-bit reproductions.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List

import numpy as np

from repro._validation import check_positive

__all__ = ["QueryRecord", "FCFSMachine", "ServingFleet"]


class QueryRecord:
    """Completion bookkeeping for one fan-out query.

    ``finish_max`` starts at the arrival time and folds in task finish
    times as they are finalized; the query's latency is their difference.
    """

    __slots__ = ("arrival", "finish_max")

    def __init__(self, arrival: float) -> None:
        self.arrival = arrival
        self.finish_max = arrival

    def complete(self, finish: float) -> None:
        if finish > self.finish_max:
            self.finish_max = finish

    @property
    def latency(self) -> float:
        return self.finish_max - self.arrival


class _Task:
    """One shard task on a machine's queue.

    ``work`` is the *remaining* work; ``start`` is the start of the
    current service segment (reset when a mid-service speed change
    re-times the task).  The task's busy contribution is maintained via
    finish-time deltas, so ``busy_time`` stays exact across re-timings.
    """

    __slots__ = ("query", "enqueue_t", "work", "start", "finish")

    def __init__(
        self, query: QueryRecord, enqueue_t: float, work: float, start: float, finish: float
    ) -> None:
        self.query = query
        self.enqueue_t = enqueue_t
        self.work = work
        self.start = start
        self.finish = finish


class FCFSMachine:
    """Single-server FCFS queue with a piecewise-constant speed.

    Parameters
    ----------
    speed:
        Initial (and base) speed in work units per second.  ``base_speed``
        is the undedated reference that :meth:`set_derate` applies
        fractions to; it already includes any static background derating
        the caller folded in.
    """

    __slots__ = ("base_speed", "speed", "free_at", "busy_time", "_pending")

    def __init__(self, speed: float) -> None:
        check_positive("speed", speed)
        self.base_speed = speed
        self.speed = speed
        self.free_at: float = 0.0
        self.busy_time: float = 0.0
        self._pending: Deque[_Task] = deque()

    # ------------------------------------------------------------------ serve
    def enqueue(self, now: float, work: float, query: QueryRecord) -> None:
        """Enqueue *work* for *query* at time *now* (non-decreasing)."""
        self._retire(now)
        start = max(now, self.free_at)
        service = work / self.speed
        self.free_at = start + service
        self.busy_time += service
        self._pending.append(_Task(query, now, work, start, self.free_at))

    def set_speed(self, now: float, new_speed: float) -> None:
        """Change the speed at time *now*, re-timing pending tasks.

        Completed work is conserved: the in-service task keeps what it
        processed at the old speed and finishes its remainder at the new
        one; queued tasks are re-chained behind it.
        """
        check_positive("speed", new_speed)
        self._retire(now)
        if new_speed == self.speed:
            return
        old_speed = self.speed
        self.speed = new_speed
        prev_finish = now
        first = True
        for task in self._pending:
            if first and task.start < now:
                # In service: bank the work done so far at the old speed.
                done = (now - task.start) * old_speed
                task.work = max(task.work - done, 0.0)
                task.start = now
                new_finish = now + task.work / new_speed
            else:
                task.start = max(task.enqueue_t, prev_finish)
                new_finish = task.start + task.work / new_speed
            self.busy_time += new_finish - task.finish
            task.finish = new_finish
            prev_finish = new_finish
            first = False
        if self._pending:
            self.free_at = self._pending[-1].finish

    def set_derate(self, now: float, fraction: float) -> None:
        """Derate to ``base_speed * (1 - fraction)`` (fraction in [0, 1))."""
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"derate fraction must be in [0, 1), got {fraction!r}")
        self.set_speed(now, self.base_speed * (1.0 - fraction))

    def clear_derate(self, now: float) -> None:
        """Restore the machine to its base speed."""
        self.set_speed(now, self.base_speed)

    # -------------------------------------------------------------- internals
    def _retire(self, now: float) -> None:
        """Finalize tasks that finished at or before *now*.

        A future speed change happens at a time >= now, so these finish
        times can no longer move; fold them into their queries.
        """
        pending = self._pending
        while pending and pending[0].finish <= now:
            task = pending.popleft()
            task.query.complete(task.finish)

    def flush(self) -> None:
        """Finalize every pending task (end of simulation)."""
        pending = self._pending
        while pending:
            task = pending.popleft()
            task.query.complete(task.finish)


class ServingFleet:
    """The machines of one cluster, indexed by machine id."""

    __slots__ = ("machines",)

    def __init__(self, speeds: np.ndarray) -> None:
        arr = np.asarray(speeds, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"speeds must be a non-empty 1-D array, got shape {arr.shape}")
        self.machines: List[FCFSMachine] = [FCFSMachine(float(s)) for s in arr]

    def __len__(self) -> int:
        return len(self.machines)

    def __getitem__(self, machine_id: int) -> FCFSMachine:
        return self.machines[machine_id]

    def __iter__(self) -> Iterator[FCFSMachine]:
        return iter(self.machines)

    def flush(self) -> None:
        """Finalize all pending tasks on every machine."""
        for machine in self.machines:
            machine.flush()

    def busy_time(self) -> np.ndarray:
        """(m,) seconds each machine spent serving."""
        return np.array([m.busy_time for m in self.machines], dtype=np.float64)
