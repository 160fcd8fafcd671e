"""Unified event-driven simulation runtime.

One event-heap kernel (:class:`Runtime`) under every time loop in the
repo.  Serving, migration execution, workload drift and rebalancing are
pluggable *processes* sharing a single simulated clock, so questions the
old per-subsystem loops could not pose — "what does p99 look like
*while* wave 3 of the migration saturates machine 7's NIC?" — fall out
of composing them.

Layers
------
:mod:`repro.runtime.kernel`
    ``SimClock`` + ``EventQueue`` + the :class:`Process` protocol.
:mod:`repro.runtime.machines`
    :class:`ServingFleet` — piecewise-constant-speed FCFS machines held
    as arrays, fed one query's fan-out at a time in rank rounds
    (:class:`FanOut`); analytic between speed changes and bit-for-bit
    the legacy per-task loop at constant speed.
:mod:`repro.runtime.serving`
    :class:`QueryArrivalProcess` — replays arrival traces against the
    fleet through the live shard→machine map, optionally routing each
    query to one replica per logical shard (:class:`ReplicaRouter`).
:mod:`repro.runtime.migration`
    :class:`MigrationExecutor` — runs a wave schedule in simulated time
    with NIC derating and transient dual holds.
:mod:`repro.runtime.processes`
    :class:`DriftProcess` and :class:`RebalanceController` — the online
    control loop as clock-driven processes.
:mod:`repro.runtime.controller`
    :class:`EwmaDriftDetector` and :class:`IncrementalRebalanceController`
    — continuous rebalancing: drift/hotspot detection over the obs
    metrics stream gating budget-bounded SRA rounds.
:mod:`repro.runtime.profile`
    :func:`synthetic_profile` — snapshot-derived work matrices for
    engine-free runs.

The legacy entry points (``repro.simulate.simulate_serving``,
``repro.online.OnlineSimulator``) are facades over these pieces and keep
their exact historical outputs.
"""

from repro.runtime.controller import (
    DriftDetectorConfig,
    EwmaDriftDetector,
    IncrementalRebalanceController,
)
from repro.runtime.kernel import EventQueue, Process, Runtime, SimClock
from repro.runtime.machines import FanOut, ServingFleet
from repro.runtime.migration import MigrationExecutor
from repro.runtime.processes import (
    ClusterHandle,
    DriftProcess,
    EpisodeOutcome,
    RebalanceController,
)
from repro.runtime.profile import synthetic_profile
from repro.runtime.serving import QueryArrivalProcess, ReplicaRouter, RoutingPolicy

__all__ = [
    "SimClock",
    "EventQueue",
    "Process",
    "Runtime",
    "FanOut",
    "ServingFleet",
    "QueryArrivalProcess",
    "ReplicaRouter",
    "RoutingPolicy",
    "MigrationExecutor",
    "ClusterHandle",
    "DriftProcess",
    "RebalanceController",
    "EpisodeOutcome",
    "DriftDetectorConfig",
    "EwmaDriftDetector",
    "IncrementalRebalanceController",
    "synthetic_profile",
]
