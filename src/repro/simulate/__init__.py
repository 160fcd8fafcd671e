"""Discrete-event simulation of query serving under a placement."""

from repro.runtime.serving import RoutingPolicy
from repro.simulate.des import ServingConfig, ServingReport, simulate_serving
from repro.simulate.migration_load import (
    MigrationWindowReport,
    TimelineWindowReport,
    migration_background_load,
    simulate_migration_timeline,
    simulate_migration_window,
)
from repro.simulate.latency import LatencySummary, summarize
from repro.simulate.traces import diurnal_rate, nonhomogeneous_arrivals
from repro.simulate.workprofile import WorkProfile

__all__ = [
    "ServingConfig",
    "ServingReport",
    "simulate_serving",
    "LatencySummary",
    "summarize",
    "WorkProfile",
    "migration_background_load",
    "MigrationWindowReport",
    "simulate_migration_window",
    "TimelineWindowReport",
    "simulate_migration_timeline",
    "RoutingPolicy",
    "diurnal_rate",
    "nonhomogeneous_arrivals",
]
