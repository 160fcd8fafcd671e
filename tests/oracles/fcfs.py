"""Test oracle: the per-task FCFS serving machines.

:class:`repro.runtime.machines.ServingFleet` keeps every machine's queue
as arrays and enqueues one query's fan-out in rank rounds.  The classes
below are the reference it must match bitwise: one
:class:`FCFSMachine` per machine, one ``_Task`` object per shard task,
and one :class:`QueryRecord` per query, exactly as the serving runtime
ran them before it moved to arrays.

With a constant speed, :meth:`FCFSMachine.enqueue` performs, per task
and in enqueue order::

    start = max(now, free_at)
    service = work / speed
    free_at = start + service
    busy_time += service
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro._validation import check_positive

__all__ = ["QueryRecord", "FCFSMachine"]


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

