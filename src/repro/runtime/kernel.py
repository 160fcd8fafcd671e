"""Event-heap simulation kernel: one clock for every simulated process.

The repo historically modelled time three different ways — the serving
DES precomputed constant machine speeds for a whole run, the wave
scheduler ordered moves into ordinals with no clock, and the online loop
rebalanced instantaneously between epochs.  This kernel unifies them:
a :class:`Runtime` owns a :class:`SimClock` and an :class:`EventQueue`,
and **processes** (anything implementing :class:`Process`) schedule
callbacks on it.  Query arrivals, migration waves, workload drift and
rebalancing decisions all interleave on the same simulated timeline, so
transient effects (a machine derated while a shard copy is in flight,
queries arriving mid-migration) are resolved event-by-event instead of
window-averaged.

Determinism contract: events fire in ``(time, scheduling order)`` order —
ties are FIFO by when they were scheduled — and nothing in the kernel
consults wall-clock time or ambient RNG state, so a run is a pure
function of its processes' inputs.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Protocol, Tuple

from repro import obs

__all__ = ["Callback", "SimClock", "EventQueue", "Process", "Runtime"]

#: An event handler; receives the runtime whose clock is at the event time.
Callback = Callable[["Runtime"], None]


class SimClock:
    """Simulated time in seconds; advanced only by the event loop."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now: float = 0.0


class EventQueue:
    """Min-heap of ``(time, seq, callback)``; FIFO among equal times."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callback]] = []
        self._seq = 0

    def push(self, time: float, fn: Callback) -> None:
        heapq.heappush(self._heap, (time, self._seq, fn))
        self._seq += 1

    def pop(self) -> Tuple[float, int, Callback]:
        return heapq.heappop(self._heap)

    def peek_time(self) -> float | None:
        """Time of the next event, or None when the queue is empty."""
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)


class Process(Protocol):
    """Anything that schedules its first event(s) when added to a runtime."""

    def start(self, rt: "Runtime") -> None: ...


class Runtime:
    """The simulation kernel: clock + event queue + registered processes.

    Usage::

        rt = Runtime()
        rt.add(QueryArrivalProcess(...))
        rt.add(MigrationExecutor(...))
        rt.run()

    ``run`` drains the event queue in time order; each callback may
    schedule further events via :meth:`at` / :meth:`after`.  Events are
    never cancelled — processes that stop simply stop rescheduling
    themselves (the wave executor and the arrival process both follow
    this pattern), which keeps the kernel state monotone and replayable.
    """

    def __init__(self) -> None:
        self.clock = SimClock()
        self.events = EventQueue()
        self._processes: List[Process] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    def add(self, process: Process) -> Process:
        """Register *process* and let it schedule its initial events."""
        self._processes.append(process)
        process.start(self)
        return process

    def at(self, time: float, fn: Callback) -> None:
        """Schedule *fn* at absolute simulated *time* (finite, >= now)."""
        # One chained comparison: NaN and +/-inf fail it as well.
        if not self.clock.now <= time < math.inf:
            if time < self.clock.now:
                raise ValueError(
                    f"cannot schedule an event at t={time} before now={self.clock.now}"
                )
            raise ValueError(f"event time must be finite, got {time}")
        self.events.push(time, fn)

    def after(self, delay: float, fn: Callback) -> None:
        """Schedule *fn* after *delay* seconds (finite, >= 0) of simulated time."""
        if not 0.0 <= delay < math.inf:
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        self.events.push(self.clock.now + delay, fn)

    def run(self, until: float | None = None) -> float:
        """Process events in time order; returns the final clock value.

        With *until* (finite, >= now), events scheduled strictly after it
        are left on the queue and the clock is advanced to *until* exactly
        (useful for bounded horizons with self-rescheduling processes).

        With tracing on, the ``runtime.run`` span also records
        ``events_by_process``: events handled per process, named by the
        class whose method the callback is.  The counts sum to ``events``.
        """
        if until is not None and not self.clock.now <= until < math.inf:
            raise ValueError(f"until must be finite and >= now={self.clock.now}, got {until}")
        tracer = obs.current().tracer
        with tracer.span("runtime.run", until=until) as span:
            per_process: dict[str, int] | None = {} if tracer.enabled else None
            processed = 0
            while len(self.events):
                next_time = self.events.peek_time()
                if next_time is None or (until is not None and next_time > until):
                    break
                time, _, fn = self.events.pop()
                self.clock.now = time
                fn(self)
                processed += 1
                if per_process is not None:
                    name = _process_name(fn)
                    per_process[name] = per_process.get(name, 0) + 1
            if until is not None and until > self.clock.now:
                self.clock.now = until
            span.set("events", processed)
            if per_process is not None:
                span.set("events_by_process", per_process)
            span.set("end_time", self.clock.now)
        return self.clock.now


def _process_name(fn: Callback) -> str:
    """The class owning callback *fn* (a bound method, possibly in a
    ``functools.partial``), else the callback's own qualified name."""
    fn = getattr(fn, "func", fn)
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        return type(owner).__name__
    return str(getattr(fn, "__qualname__", type(fn).__name__))
