"""Index-shard descriptions.

A :class:`Shard` is an immutable description of one index partition: its
multi-dimensional resource demand plus the byte size that determines its
migration cost.  Which machine a shard currently lives on is state, held
by :class:`repro.cluster.state.ClusterState`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro._validation import as_demand_array, check_non_negative
from repro.cluster.resources import DEFAULT_SCHEMA, ResourceSchema

__all__ = ["Shard"]


@dataclass(frozen=True)
class Shard:
    """An immutable index-shard description.

    Attributes
    ----------
    id:
        Dense integer identifier; also the shard's index in the cluster's
        assignment array.
    demand:
        Per-dimension resource demand (schema order).  For a search shard
        this is CPU at peak query rate, resident RAM, and postings disk.
    size_bytes:
        Bytes that must cross the network to migrate the shard; the weight
        used by migration-cost terms.  Defaults to the disk demand scaled
        to bytes when the schema has a ``disk`` dimension, else 0.
    replica_of:
        When shards are replicas of a logical shard, the logical id; -1
        for unreplicated shards.  Replica-aware placement constraints (no
        two replicas on one machine) consume this.
    """

    id: int
    demand: np.ndarray
    schema: ResourceSchema = DEFAULT_SCHEMA
    size_bytes: float = -1.0
    replica_of: int = -1

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"shard id must be >= 0, got {self.id}")
        dem = as_demand_array("demand", self.demand, self.schema.dims)
        if not any(dem.tolist()):
            raise ValueError(f"shard demand must be non-zero, got {dem}")
        object.__setattr__(self, "demand", dem)
        if self.size_bytes < 0:
            # Default migration weight: proportional to disk footprint when
            # the schema tracks disk, else to the demand L1 norm.
            if "disk" in self.schema.names:
                default = float(dem[self.schema.index("disk")])
            else:
                default = float(dem.sum())
            object.__setattr__(self, "size_bytes", default)
        else:
            check_non_negative("size_bytes", self.size_bytes)

    def demand_of(self, resource: str) -> float:
        """Demand along a named dimension."""
        return float(self.demand[self.schema.index(resource)])

    @staticmethod
    def uniform(
        count: int,
        demand: Mapping[str, float] | Sequence[float] | float,
        *,
        schema: ResourceSchema = DEFAULT_SCHEMA,
        start_id: int = 0,
    ) -> list["Shard"]:
        """Build *count* identical shards — the common test fixture."""
        if count <= 0:
            raise ValueError(f"count must be > 0, got {count}")
        dem = schema.vector(demand)
        return [Shard(id=start_id + k, demand=dem.copy(), schema=schema) for k in range(count)]
