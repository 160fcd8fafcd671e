"""Executes a wave schedule in simulated time against a serving fleet.

The :class:`~repro.migration.scheduler.WaveScheduler` decides *what* can
run concurrently; this module decides *when*.  Each wave occupies a
simulated interval whose length comes from the
:class:`~repro.migration.costmodel.BandwidthModel` (busiest endpoint
NIC); while a machine's NIC is actively transferring it loses
``transfer_overhead`` of its serving speed (the only model of serving
during a migration; :mod:`repro.simulate.migration_load` drives it),
and every move's shard demand is held on **both** endpoints — the
paper's transient resource constraint — from wave start until the wave
completes, at which point sources release, the shard's serving location
flips to the destination, and the next wave begins.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro._validation import check_fraction, check_non_negative
from repro.migration.costmodel import BandwidthModel
from repro.migration.scheduler import Schedule
from repro.runtime.kernel import Runtime
from repro.runtime.machines import ServingFleet

__all__ = ["MigrationExecutor"]


class MigrationExecutor:
    """Run *schedule* wave-by-wave on the shared simulated clock.

    Parameters
    ----------
    schedule:
        A feasible wave schedule (stranded moves are a planning failure
        and are rejected here).
    fleet:
        Serving machines to derate while their NICs transfer.  May be
        None for serving-free executions (e.g. the online facade's
        instantaneous mode never constructs an executor at all, but
        tests exercise pure-migration runs).
    location:
        Shared (num_shards,) shard → machine array; flipped to each
        move's destination when its wave completes.
    loads / capacity / demand:
        Per-machine load and capacity matrices plus per-shard demand
        vectors, used to track the transient (dual-hold) utilization.
        ``loads`` is mutated as waves retire; pass a copy.
    model:
        Bandwidth model; wave durations and per-machine busy seconds use
        the same per-wave accounting as ``BandwidthModel.cost``.
    transfer_overhead:
        Serving-speed fraction lost while a machine's NIC transfers.
    start_at:
        Simulated time the first wave begins.
    on_complete:
        Called with the runtime once the last wave has retired.
    """

    def __init__(
        self,
        *,
        schedule: Schedule,
        location: np.ndarray,
        loads: np.ndarray,
        capacity: np.ndarray,
        demand: np.ndarray,
        fleet: Optional[ServingFleet] = None,
        model: Optional[BandwidthModel] = None,
        transfer_overhead: float = 0.3,
        start_at: float = 0.0,
        on_complete: Optional[Callable[[Runtime], None]] = None,
    ) -> None:
        if not schedule.feasible:
            raise ValueError(
                f"cannot execute an infeasible schedule ({len(schedule.stranded)} "
                "stranded moves); stage the plan first"
            )
        check_fraction("transfer_overhead", transfer_overhead)
        if transfer_overhead >= 1.0:
            raise ValueError("transfer_overhead must be < 1")
        check_non_negative("start_at", start_at)
        self.schedule = schedule
        self.fleet = fleet
        self.location = location
        self.loads = loads
        self.capacity = capacity
        self.demand = demand
        self.model = model or BandwidthModel()
        self.transfer_overhead = transfer_overhead
        self.start_at = start_at
        self.on_complete = on_complete
        self.in_flight = np.zeros_like(loads)
        self.bytes_transferred: float = 0.0
        self.wave_intervals: List[Tuple[float, float]] = []
        self.peak_transient_utilization: float = 0.0
        self.done = False
        self._wave_index = 0
        self._num_machines = int(loads.shape[0])

    # ------------------------------------------------------------------ hooks
    def start(self, rt: Runtime) -> None:
        if not self.schedule.waves:
            rt.at(self.start_at, self._finish)
            return
        rt.at(self.start_at, self._start_wave)

    @property
    def migration_end(self) -> float:
        """End of the last started wave (meaningful once running)."""
        return self.wave_intervals[-1][1] if self.wave_intervals else self.start_at

    def transient_loads(self) -> np.ndarray:
        """Current per-machine loads including in-flight dual holds."""
        return self.loads + self.in_flight

    # ----------------------------------------------------------------- events
    def _start_wave(self, rt: Runtime) -> None:
        now = rt.now
        wave = self.schedule.waves[self._wave_index]
        busy = self.model.machine_wave_seconds(wave, self._num_machines)
        duration = float(busy.max(initial=0.0))
        for mv in wave:
            self.in_flight[mv.dst] += self.demand[mv.shard_id]
        peak = float(np.max(self.transient_loads() / self.capacity))
        if peak > self.peak_transient_utilization:
            self.peak_transient_utilization = peak
        if self.fleet is not None and duration > 0:
            for m in np.flatnonzero(busy > 0).tolist():
                self.fleet.set_derate(now, m, self.transfer_overhead)
                if busy[m] < duration:
                    # NIC drains before the wave barrier: restore early.
                    rt.at(now + float(busy[m]), partial(self._restore, m))
        self.wave_intervals.append((now, now + duration))
        o = obs.current()
        if o.tracer.enabled:
            o.tracer.event(
                "runtime.wave.start",
                wave=self._wave_index,
                moves=len(wave),
                bytes=float(sum(mv.bytes for mv in wave)),
                duration=duration,
                transient_peak=peak,
            )
        rt.at(now + duration, self._complete_wave)

    def _complete_wave(self, rt: Runtime) -> None:
        wave = self.schedule.waves[self._wave_index]
        for mv in wave:
            d = self.demand[mv.shard_id]
            self.loads[mv.src] -= d
            self.loads[mv.dst] += d
            self.in_flight[mv.dst] -= d
            self.location[mv.shard_id] = mv.dst
            self.bytes_transferred += mv.bytes
        if self.fleet is not None:
            for mv in wave:
                self.fleet.clear_derate(rt.now, mv.src)
                self.fleet.clear_derate(rt.now, mv.dst)
        o = obs.current()
        if o.tracer.enabled:
            o.tracer.event(
                "runtime.wave.complete", wave=self._wave_index, t=rt.now
            )
        self._wave_index += 1
        if self._wave_index < len(self.schedule.waves):
            self._start_wave(rt)
        else:
            self._finish(rt)

    def _restore(self, machine: int, rt: Runtime) -> None:
        """Early NIC-drain restore of *machine*."""
        assert self.fleet is not None
        self.fleet.clear_derate(rt.now, machine)

    def _finish(self, rt: Runtime) -> None:
        self.done = True
        o = obs.current()
        if o.metrics.enabled:
            o.metrics.gauge("runtime.peak_transient_utilization").set(
                self.peak_transient_utilization
            )
            o.metrics.counter("runtime.waves").inc(len(self.wave_intervals))
            o.metrics.counter("runtime.bytes_transferred").inc(self.bytes_transferred)
        if o.tracer.enabled:
            o.tracer.event(
                "runtime.migration.complete",
                waves=len(self.wave_intervals),
                bytes=self.bytes_transferred,
                transient_peak=self.peak_transient_utilization,
            )
        if self.on_complete is not None:
            self.on_complete(rt)

