"""Migration planning under transient resource constraints."""

from repro.migration.costmodel import BandwidthModel, MigrationCost
from repro.migration.moves import Move, MoveTable, diff_moves
from repro.migration.scheduler import Schedule, WaveScheduler
from repro.migration.staging import PlanResult, StagingPlanner

__all__ = [
    "Move",
    "MoveTable",
    "diff_moves",
    "Schedule",
    "WaveScheduler",
    "StagingPlanner",
    "PlanResult",
    "BandwidthModel",
    "MigrationCost",
]
