"""Serving impact of an in-progress migration.

Rebalancing is not free while it runs: every machine that sends or
receives shard copies spends NIC bandwidth and CPU cycles on the
transfer.  :func:`simulate_migration_timeline` serves one arrival stream
on the event runtime while the plan executes wave by wave, so the
latency cost of the migration window itself becomes measurable
(experiment E15).

Model: while a wave's transfers are in flight, each endpoint machine
loses ``transfer_overhead`` of its serving capacity (copy checksumming,
page-cache pressure, NIC interrupts) for as long as its own NIC is busy
(:class:`repro.runtime.migration.MigrationExecutor`); each shard flips
to its destination the instant its wave completes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import check_positive
from repro.cluster import ClusterState
from repro.migration import BandwidthModel, PlanResult
from repro.runtime.kernel import Runtime
from repro.runtime.migration import MigrationExecutor
from repro.simulate.des import (
    ServingConfig,
    ServingReport,
    _empty_summary,
    _serving_process,
    _serving_report,
)
from repro.simulate.latency import summarize
from repro.simulate.workprofile import WorkProfile

__all__ = [
    "TimelineWindowReport",
    "simulate_migration_timeline",
]


@dataclass(frozen=True)
class TimelineWindowReport:
    """One time-resolved serving run with the migration executed mid-stream.

    A single arrival stream: waves derate their endpoint NICs only while
    transfers are actually in flight, and each shard flips to its
    destination the instant its wave completes.  ``serving`` always
    carries raw arrival/latency arrays so latency can be bucketed per
    wave.
    """

    serving: ServingReport
    migration_start: float
    migration_end: float
    wave_intervals: tuple[tuple[float, float], ...]
    waves_executed: int
    bytes_transferred: float
    peak_transient_utilization: float

    def rows(self) -> list[dict]:
        """Per-wave latency table plus pooled window/outside rows."""
        arrivals = self.serving.raw_arrivals
        latencies = self.serving.raw_latencies
        assert arrivals is not None and latencies is not None
        out = []
        in_window = (arrivals >= self.migration_start) & (
            arrivals < self.migration_end
        )
        buckets: list[tuple[str, np.ndarray]] = [
            (f"wave{i}", (arrivals >= lo) & (arrivals < hi))
            for i, (lo, hi) in enumerate(self.wave_intervals)
        ]
        buckets.append(("window", in_window))
        buckets.append(("outside", ~in_window))
        for phase, mask in buckets:
            picked = latencies[mask]
            lat = summarize(picked) if picked.size else _empty_summary()
            out.append(
                {
                    "phase": phase,
                    "queries": int(picked.size),
                    "p50_ms": 1e3 * lat.p50,
                    "p95_ms": 1e3 * lat.p95,
                    "p99_ms": 1e3 * lat.p99,
                    "mean_ms": 1e3 * lat.mean,
                }
            )
        return out


def simulate_migration_timeline(
    initial: ClusterState,
    final_assignment: np.ndarray,
    plan: PlanResult,
    profile: WorkProfile,
    config: ServingConfig,
    *,
    bandwidth: BandwidthModel | None = None,
    transfer_overhead: float = 0.3,
    migration_start: float = 0.0,
    shard_to_engine_shard: list[int] | None = None,
    arrival_times: np.ndarray | None = None,
) -> TimelineWindowReport:
    """Serve one arrival stream while the plan executes wave-by-wave.

    The serving fleet, the migration executor, and the shared
    shard→machine array all live on one event-heap runtime: queries
    arriving during wave *k* see exactly the machines wave *k* is
    derating and exactly the placements earlier waves already landed.

    ``config.background_load`` still applies, as a *static* base
    derating on top of which transfer derating comes and goes.
    """
    check_positive("transfer_overhead", transfer_overhead)
    if not plan.feasible:
        raise ValueError("cannot execute an infeasible plan on the timeline")
    arrivals = _serving_process(
        initial, profile, shard_to_engine_shard, config, arrival_times
    )
    executor = MigrationExecutor(
        schedule=plan.schedule,
        fleet=arrivals.fleet,
        location=arrivals.location,
        loads=initial.loads.copy(),
        capacity=initial.capacity,
        demand=initial.demand,
        model=bandwidth or BandwidthModel(),
        transfer_overhead=transfer_overhead,
        start_at=migration_start,
    )
    runtime = Runtime()
    runtime.add(arrivals)
    runtime.add(executor)
    runtime.run()

    serving = _serving_report(arrivals, config, capture_raw=True)
    if not np.array_equal(arrivals.location, np.asarray(final_assignment, dtype=np.int64)):
        raise RuntimeError(
            "executed schedule did not land the final assignment; "
            "the plan and final_assignment disagree"
        )
    return TimelineWindowReport(
        serving=serving,
        migration_start=migration_start,
        migration_end=executor.migration_end,
        wave_intervals=tuple(executor.wave_intervals),
        waves_executed=len(executor.wave_intervals),
        bytes_transferred=executor.bytes_transferred,
        peak_transient_utilization=executor.peak_transient_utilization,
    )
