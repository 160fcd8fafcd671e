"""Discrete-event simulation of query serving under a placement."""

from repro.runtime.serving import RoutingPolicy
from repro.simulate.des import ServingConfig, ServingReport, simulate_serving
from repro.simulate.migration_load import (
    TimelineWindowReport,
    simulate_migration_timeline,
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
    "TimelineWindowReport",
    "simulate_migration_timeline",
    "RoutingPolicy",
    "diurnal_rate",
    "nonhomogeneous_arrivals",
]
