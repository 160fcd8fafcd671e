"""Serving impact of an in-progress migration.

Rebalancing is not free while it runs: every machine that sends or
receives shard copies spends NIC bandwidth and CPU cycles on the
transfer.  This module converts a migration plan into per-machine
**background load** fractions for the serving simulator, so the latency
cost of the migration window itself becomes measurable (experiment E15).

Model: during the migration window (the plan's makespan), machine ``m``
is busy transferring for ``transfer_seconds(m) / makespan`` of the time;
while actively transferring it loses ``transfer_overhead`` of its serving
capacity (copy checksumming, page-cache pressure, NIC interrupts).  The
average derating over the window is the product of the two — a
deliberately simple, conservative model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import check_fraction, check_positive
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
    simulate_serving,
)
from repro.simulate.latency import summarize
from repro.simulate.workprofile import WorkProfile

__all__ = [
    "migration_background_load",
    "MigrationWindowReport",
    "simulate_migration_window",
    "TimelineWindowReport",
    "simulate_migration_timeline",
]


def migration_background_load(
    plan: PlanResult,
    num_machines: int,
    *,
    bandwidth: BandwidthModel | None = None,
    transfer_overhead: float = 0.3,
) -> dict[int, float]:
    """Per-machine serving-capacity derating during the migration window.

    Returns ``{machine: fraction}`` for machines with non-zero transfer
    activity; fractions are in [0, transfer_overhead].

    Per-machine busy seconds come from the **same per-wave accounting**
    that :meth:`BandwidthModel.cost` uses for the makespan: within a
    wave, a machine's NIC is busy for ``max(bytes_out, bytes_in) /
    bandwidth`` (full duplex), and wave busy times sum across waves.
    Summing ``bytes / bandwidth`` per move on both endpoints — the old
    model — double-charged machines that send and receive in the same
    wave and overstated NIC time whenever a machine's transfers within a
    wave actually run back-to-back on one duplex NIC, which could push
    ``busy_fraction`` past 1 (clamped) for busy dual-role machines while
    the makespan in the denominator said otherwise.
    """
    check_fraction("transfer_overhead", transfer_overhead)
    model = bandwidth or BandwidthModel()
    cost = model.cost(plan.schedule, num_machines)
    if cost.makespan_seconds <= 0:
        return {}
    transfer_seconds = model.machine_busy_seconds(plan.schedule, num_machines)
    busy_fraction = np.minimum(transfer_seconds / cost.makespan_seconds, 1.0)
    out = {
        int(m): float(transfer_overhead * busy_fraction[m])
        for m in np.flatnonzero(busy_fraction > 0)
    }
    return out


@dataclass(frozen=True)
class MigrationWindowReport:
    """Latency before, during and after a rebalancing migration."""

    before: ServingReport
    during: ServingReport
    after: ServingReport
    makespan_seconds: float

    def rows(self) -> list[dict]:
        """Table rows for the experiment harness."""
        out = []
        for phase, rep in (
            ("before", self.before),
            ("during", self.during),
            ("after", self.after),
        ):
            lat = rep.latency
            out.append(
                {
                    "phase": phase,
                    "p50_ms": 1e3 * lat.p50,
                    "p95_ms": 1e3 * lat.p95,
                    "p99_ms": 1e3 * lat.p99,
                    "mean_ms": 1e3 * lat.mean,
                    "peak_busy": rep.peak_busy_fraction,
                }
            )
        return out


def simulate_migration_window(
    initial: ClusterState,
    final_assignment: np.ndarray,
    plan: PlanResult,
    profile: WorkProfile,
    config: ServingConfig,
    *,
    bandwidth: BandwidthModel | None = None,
    transfer_overhead: float = 0.3,
    shard_to_engine_shard: list[int] | None = None,
) -> MigrationWindowReport:
    """Three-phase serving simulation around a migration.

    * **before** — initial placement, no background load;
    * **during** — initial placement (conservative: shards serve from
      their source until the copy lands) plus transfer derating;
    * **after** — final placement, no background load.

    All three phases replay the same arrival process (same seed), so
    differences are attributable to placement and derating only.
    """
    check_positive("transfer_overhead", transfer_overhead)
    model = bandwidth or BandwidthModel()
    load = migration_background_load(
        plan,
        initial.num_machines,
        bandwidth=model,
        transfer_overhead=transfer_overhead,
    )
    before = simulate_serving(initial, profile, shard_to_engine_shard, config)
    during_cfg = ServingConfig(
        arrival_rate=config.arrival_rate,
        duration=config.duration,
        postings_per_cpu_second=config.postings_per_cpu_second,
        seed=config.seed,
        background_load=load,
    )
    during = simulate_serving(initial, profile, shard_to_engine_shard, during_cfg)
    final = initial.copy()
    final.apply_assignment(final_assignment)
    after = simulate_serving(final, profile, shard_to_engine_shard, config)
    makespan = model.cost(plan.schedule, initial.num_machines).makespan_seconds
    return MigrationWindowReport(
        before=before, during=during, after=after, makespan_seconds=makespan
    )


@dataclass(frozen=True)
class TimelineWindowReport:
    """One time-resolved serving run with the migration executed mid-stream.

    Unlike :class:`MigrationWindowReport` (three separate runs with a
    window-averaged derating), this is a single arrival stream: waves
    derate their endpoint NICs only while transfers are actually in
    flight, and each shard flips to its destination the instant its wave
    completes.  ``serving`` always carries raw arrival/latency arrays so
    latency can be bucketed per wave.
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
    This is the time-resolved upgrade of
    :func:`simulate_migration_window`, which stays available as the
    static (window-averaged) view.

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
