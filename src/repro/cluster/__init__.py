"""Cluster substrate: resources, machines, shards, placement state.

This package holds the data model everything else builds on.  See
DESIGN.md §1 for the formal problem the model supports.
"""

from repro.cluster.exchange import (
    ExchangeLedger,
    ExchangeSettlement,
    ExchangeViolation,
    settle_fleet,
)
from repro.cluster.machine import Machine, MachineClass
from repro.cluster.resources import DEFAULT_SCHEMA, ResourceSchema, dominates, safe_ratio
from repro.cluster.shard import Shard
from repro.cluster.snapshot import from_dict, load_json, save_json, to_dict
from repro.cluster.state import UNASSIGNED, ClusterState

__all__ = [
    "DEFAULT_SCHEMA",
    "ResourceSchema",
    "dominates",
    "safe_ratio",
    "Machine",
    "MachineClass",
    "Shard",
    "ClusterState",
    "UNASSIGNED",
    "ExchangeLedger",
    "ExchangeSettlement",
    "ExchangeViolation",
    "settle_fleet",
    "to_dict",
    "from_dict",
    "save_json",
    "load_json",
]
