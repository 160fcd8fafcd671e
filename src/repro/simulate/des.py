"""Discrete-event simulation of query serving.

The model:

* Queries arrive in a Poisson stream of ``arrival_rate`` per second.
* Each query fans out one task per shard; a task queues FCFS at the
  machine hosting that shard.  With a routing ``policy`` the cluster
  shards of one engine shard are replicas, and the query sends one task
  to one of them (:class:`~repro.runtime.serving.ReplicaRouter`).
* Each machine is a single server whose speed is its CPU capacity times
  ``postings_per_cpu_second`` (postings processed per second), optionally
  derated by per-machine background load (e.g. an in-progress shard
  migration consuming cycles).
* A query completes when its slowest shard task completes; its latency is
  that completion time minus its arrival time.

Fan-out over FCFS queues is what turns one hot machine into a fleet-wide
p99 problem, which is experiment E8's subject.

Since the :mod:`repro.runtime` refactor this module is a **facade**: the
queueing itself runs on the shared event-heap kernel
(:class:`~repro.runtime.machines.ServingFleet` fed by a
:class:`~repro.runtime.serving.QueryArrivalProcess`).  The fleet holds
its machines as arrays and serves each query's fan-out in numpy rounds
by rank within a machine; at constant machine speeds every machine
still performs the identical float operations in the identical order as
the original single-pass loop, so ``simulate_serving`` is bit-for-bit
its historical self (``tests/test_runtime.py`` pins this); what the
runtime adds is everything the old loop could not do — speeds that
change mid-run while a migration wave saturates a NIC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro._validation import check_fraction, check_positive
from repro.cluster import ClusterState
from repro.obs.metrics import LATENCY_EDGES_S, UTILIZATION_EDGES
from repro.runtime.kernel import Runtime
from repro.runtime.machines import ServingFleet
from repro.runtime.serving import QueryArrivalProcess, ReplicaRouter, RoutingPolicy
from repro.simulate.latency import LatencySummary, summarize
from repro.simulate.workprofile import WorkProfile

__all__ = ["ServingConfig", "ServingReport", "simulate_serving"]


@dataclass(frozen=True)
class ServingConfig:
    """Simulation parameters.

    Attributes
    ----------
    arrival_rate:
        Mean query arrivals per second (Poisson).
    duration:
        Seconds of arrivals; the simulation then drains all queues.
    postings_per_cpu_second:
        Machine speed per unit of CPU capacity.
    seed:
        RNG seed for arrivals and query sampling.
    background_load:
        Optional per-machine fraction of capacity consumed by background
        work (machine id → fraction in [0, 1)).
    """

    arrival_rate: float = 50.0
    duration: float = 60.0
    postings_per_cpu_second: float = 2e5
    seed: int = 0
    background_load: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive("arrival_rate", self.arrival_rate)
        check_positive("duration", self.duration)
        check_positive("postings_per_cpu_second", self.postings_per_cpu_second)
        for mid, frac in self.background_load.items():
            check_fraction(f"background_load[{mid}]", frac)
            if frac >= 1.0:
                raise ValueError(f"background_load[{mid}] must be < 1")


@dataclass(frozen=True)
class ServingReport:
    """Simulation outputs.

    ``raw_arrivals``/``raw_latencies`` are populated only when the
    simulation is asked to ``capture_raw`` (e.g. for time-of-day
    bucketing); they are parallel arrays in arrival order.
    """

    latency: LatencySummary
    machine_busy_fraction: np.ndarray
    queries_completed: int
    raw_arrivals: np.ndarray | None = None
    raw_latencies: np.ndarray | None = None

    @property
    def peak_busy_fraction(self) -> float:
        """Busiest machine's busy fraction over the **arrival window**.

        Background load included; a value above 1.0 means the machine
        was offered more work than it could serve inside the window
        (the drain spills past it) — i.e. it is overloaded, which is
        exactly what this figure exists to expose.
        """
        return float(self.machine_busy_fraction.max())


def simulate_serving(
    state: ClusterState,
    profile: WorkProfile,
    shard_to_engine_shard: Sequence[int] | None = None,
    config: ServingConfig | None = None,
    *,
    arrival_times: np.ndarray | None = None,
    capture_raw: bool = False,
    policy: RoutingPolicy | None = None,
) -> ServingReport:
    """Simulate query serving against *state*'s current placement.

    Parameters
    ----------
    state:
        Cluster placement; shard ``j``'s machine serves the work of
        engine shard ``shard_to_engine_shard[j]`` (identity by default —
        cluster shards and engine shards coincide).
    profile:
        Measured per-query per-shard work (see :class:`WorkProfile`).
    config:
        Simulation parameters.
    arrival_times:
        Optional explicit arrival times (e.g. a diurnal trace from
        :mod:`repro.simulate.traces`); overrides the Poisson process.
    capture_raw:
        Also return the per-query arrival/latency arrays.
    policy:
        Replica routing (see :class:`~repro.runtime.serving.ReplicaRouter`):
        the cluster shards mapped to one engine shard are its replicas,
        and each query reaches exactly one of them, picked by this
        policy.  ``None`` sends every cluster shard its engine shard's
        work.

    Notes
    -----
    The CPU dimension of machine capacity sets machine speed.  The
    simulation is deterministic given the seed.
    """
    cfg = config or ServingConfig()
    arrivals = _serving_process(
        state, profile, shard_to_engine_shard, cfg, arrival_times, policy
    )
    num_arrivals = arrivals.arrival_times.size

    o = obs.current()
    with o.tracer.span(
        "simulate.serving",
        machines=state.num_machines,
        shards=state.num_shards,
        arrivals=int(num_arrivals),
        duration=cfg.duration,
    ) as sim_span:
        # Run the arrival process on the shared event-heap kernel.  Speeds
        # are constant here, so the fleet's arithmetic reduces to exactly
        # the historical single-pass loop (see the bitwise contract in
        # repro.runtime.machines).
        runtime = Runtime()
        runtime.add(arrivals)
        runtime.run()
        report = _serving_report(arrivals, cfg, capture_raw=capture_raw)
        if o.metrics.enabled:
            busy_fraction = report.machine_busy_fraction
            m = o.metrics
            m.counter("sim.queries").inc(num_arrivals)
            m.histogram("sim.latency_seconds", LATENCY_EDGES_S).observe_many(
                arrivals.latencies()
            )
            if num_arrivals > 1:
                m.histogram("sim.interarrival_seconds", LATENCY_EDGES_S).observe_many(
                    np.diff(arrivals.arrival_times)
                )
            m.histogram("sim.machine_busy_fraction", UTILIZATION_EDGES).observe_many(
                busy_fraction
            )
            m.gauge("sim.peak_busy_fraction").set(report.peak_busy_fraction)
            for mid in range(state.num_machines):
                m.gauge(f"sim.machine_busy_fraction[{mid}]").set(busy_fraction[mid])
        sim_span.set("peak_busy_fraction", report.peak_busy_fraction)
        if num_arrivals:
            sim_span.set("p99_seconds", report.latency.p99)
    return report


def _serving_process(
    state: ClusterState,
    profile: WorkProfile,
    shard_to_engine_shard: Sequence[int] | None,
    cfg: ServingConfig,
    arrival_times: np.ndarray | None,
    policy: RoutingPolicy | None = None,
) -> QueryArrivalProcess:
    """Validate the inputs and wire one serving run, ready for a runtime.

    Arrivals are the configured Poisson stream, or *arrival_times*
    sorted.  The process owns a fresh fleet and a private copy of the
    placement (``process.location``), which a migration executor may
    rewrite.  Shared by ``simulate_serving``, the migration timeline and
    the ``repro runtime`` CLI.  RNG draw order is part of the
    reproducibility contract: Poisson count, uniform times and query
    rows here, then the router's draws during the run.
    """
    rng = np.random.default_rng(cfg.seed)
    router = None if policy is None else ReplicaRouter(policy, rng)
    mapping = (
        np.arange(state.num_shards)
        if shard_to_engine_shard is None
        else np.asarray(shard_to_engine_shard, dtype=np.int64)
    )
    if mapping.shape != (state.num_shards,):
        raise ValueError("shard_to_engine_shard must map every cluster shard")
    if np.any((mapping < 0) | (mapping >= profile.num_shards)):
        raise ValueError("shard_to_engine_shard references unknown engine shards")
    if not state.is_fully_assigned():
        raise ValueError("simulation requires a fully assigned state")
    speed = _effective_speeds(state, cfg)
    if arrival_times is None:
        num_arrivals = rng.poisson(cfg.arrival_rate * cfg.duration)
        times = np.sort(rng.uniform(0.0, cfg.duration, size=num_arrivals))
    else:
        # QueryArrivalProcess rejects non-finite and negative times.
        times = np.sort(np.asarray(arrival_times, dtype=np.float64))
    query_rows = rng.integers(0, profile.num_queries, size=times.size)
    return QueryArrivalProcess(
        ServingFleet(speed),
        state.assignment_view().copy(),
        profile.work,
        mapping,
        times,
        query_rows,
        router=router,
    )


def _serving_report(
    arrivals: QueryArrivalProcess, cfg: ServingConfig, *, capture_raw: bool
) -> ServingReport:
    """Flush the fleet after a run and summarize it."""
    fleet = arrivals.fleet
    fleet.flush()
    times = arrivals.arrival_times
    latencies = arrivals.latencies()
    return ServingReport(
        latency=summarize(latencies) if times.size else _empty_summary(),
        machine_busy_fraction=_busy_fraction(fleet.busy_time(), times, cfg),
        queries_completed=int(times.size),
        raw_arrivals=times.copy() if capture_raw else None,
        raw_latencies=latencies if capture_raw else None,
    )


def _effective_speeds(state: ClusterState, cfg: ServingConfig) -> np.ndarray:
    """Per-machine serving speed with background-load derating applied.

    Re-validates each background fraction at use time: ``ServingConfig``
    checks them at construction, but the mapping object itself is
    mutable, and a fraction at or above 1.0 would silently produce a
    zero-or-negative speed (an instantly diverging queue) rather than an
    error.  Every serving entry point goes through ``_serving_process``
    and so rejects the same bad inputs.
    """
    cpu_idx = state.schema.index("cpu") if "cpu" in state.schema.names else 0
    speed = state.capacity[:, cpu_idx] * cfg.postings_per_cpu_second
    for mid, frac in cfg.background_load.items():
        if not 0 <= mid < state.num_machines:
            raise ValueError(f"background_load references unknown machine {mid}")
        check_fraction(f"background_load[{mid}]", frac)
        if frac >= 1.0:
            raise ValueError(f"background_load[{mid}] must be < 1")
        speed[mid] = speed[mid] * (1.0 - frac)
    return speed


def _busy_fraction(
    busy_time: np.ndarray, arrival_times: np.ndarray, cfg: ServingConfig
) -> np.ndarray:
    """Per-machine busy fraction over the arrival window.

    The window is the configured arrival duration (stretched to cover
    explicit arrival times that run past it), **not** the drain-inclusive
    horizon: dividing by the horizon dilutes every machine's figure as
    soon as one machine drains late, understating busyness exactly when
    the fleet is loaded.  Background load occupies its machine for the
    whole window, so its fraction adds on top; a result above 1.0 means
    offered load exceeded capacity (overload).
    """
    window = cfg.duration
    if arrival_times.size:
        window = max(window, float(arrival_times[-1]))
    fraction = busy_time / window
    for mid, frac in cfg.background_load.items():
        fraction[mid] += frac
    return fraction


def _empty_summary() -> LatencySummary:
    return LatencySummary(count=0, mean=0.0, p50=0.0, p90=0.0, p95=0.0, p99=0.0, max=0.0)
