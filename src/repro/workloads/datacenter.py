"""Datacenter-snapshot generator — the substitution for the paper's
"real data from actual datacenters".

The paper evaluated on proprietary snapshots of production search
clusters.  This generator reproduces the structural properties that make
such snapshots hard for a rebalancer (see DESIGN.md §3):

* **Heterogeneous fleet** — machines drawn from a small set of hardware
  generations with different capacity profiles.
* **Heavy-tailed, correlated shard demands** — CPU demand follows query
  popularity (Zipf); RAM tracks the hot index portion (correlated with
  CPU); disk follows a lognormal postings-size distribution, only weakly
  correlated with popularity.
* **Drifted placement** — the placement was balanced *for an older query
  mix*; popularity then drifted (some shards heated up, others cooled
  down), so the snapshot is imbalanced even though no one placed it
  badly.  This is the canonical way search clusters become imbalanced.
* **High tightness** — production clusters run hot (70–90% utilization),
  which is precisely the regime where transient resource constraints bind
  and exchange machines pay off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import check_fraction, check_positive
from repro.cluster import (
    DEFAULT_SCHEMA,
    ClusterState,
    Machine,
    MachineClass,
    ResourceSchema,
    Shard,
)
from repro.workloads.synthetic import waterfill_scale

__all__ = ["DatacenterConfig", "generate_datacenter", "DEFAULT_MACHINE_MIX"]


#: Three hardware generations, loosely modelled on successive server
#: generations: each adds CPU and RAM faster than disk.
DEFAULT_MACHINE_MIX: tuple[tuple[MachineClass, float], ...] = (
    (MachineClass("gen1", np.array([48.0, 128.0, 2000.0])), 0.3),
    (MachineClass("gen2", np.array([64.0, 192.0, 3000.0])), 0.5),
    (MachineClass("gen3", np.array([96.0, 384.0, 4000.0])), 0.2),
)


@dataclass(frozen=True)
class DatacenterConfig:
    """Parameters of a datacenter snapshot.

    Attributes
    ----------
    num_machines:
        Fleet size.
    shards_per_machine:
        Average shards per machine (total shards = product).
    target_utilization:
        Tightness after popularity drift, on the binding dimension.
    popularity_alpha:
        Zipf exponent of shard query popularity.
    drift:
        In [0, 1]: fraction of popularity mass that moved since the
        placement was made.  0 reproduces a balanced cluster; production
        snapshots correspond to 0.2–0.5.
    machine_mix:
        Sequence of ``(MachineClass, weight)`` pairs.
    seed:
        RNG seed.
    """

    num_machines: int = 100
    shards_per_machine: int = 12
    target_utilization: float = 0.8
    popularity_alpha: float = 1.0
    drift: float = 0.35
    machine_mix: tuple[tuple[MachineClass, float], ...] = DEFAULT_MACHINE_MIX
    schema: ResourceSchema = DEFAULT_SCHEMA
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("num_machines", self.num_machines)
        check_positive("shards_per_machine", self.shards_per_machine)
        check_positive("target_utilization", self.target_utilization)
        check_positive("popularity_alpha", self.popularity_alpha)
        check_fraction("drift", self.drift)
        if not self.machine_mix:
            raise ValueError("machine_mix must be non-empty")
        total = sum(w for _, w in self.machine_mix)
        if total <= 0:
            raise ValueError("machine_mix weights must sum to > 0")

    @property
    def num_shards(self) -> int:
        return self.num_machines * self.shards_per_machine


def _sample_machines(cfg: DatacenterConfig, rng: np.random.Generator) -> list[Machine]:
    classes = [c for c, _ in cfg.machine_mix]
    weights = np.array([w for _, w in cfg.machine_mix], dtype=np.float64)
    weights /= weights.sum()
    picks = rng.choice(len(classes), size=cfg.num_machines, p=weights)
    return [classes[k].stamp(i) for i, k in enumerate(picks)]


def _shard_demands(
    cfg: DatacenterConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (old_demand, new_demand, sizes): (n, d) matrices before and
    after popularity drift, plus migration byte sizes."""
    n = cfg.num_shards
    d = cfg.schema.dims
    if d < 3:
        raise ValueError("datacenter generator requires the (cpu, ram, disk) schema")

    # Popularity before and after the drift.
    ranks = np.arange(1, n + 1, dtype=np.float64)
    pop_old = ranks ** (-cfg.popularity_alpha)
    rng.shuffle(pop_old)
    pop_old /= pop_old.sum()
    # Drift: re-draw a fresh popularity vector and blend.
    pop_fresh = ranks ** (-cfg.popularity_alpha)
    rng.shuffle(pop_fresh)
    pop_fresh /= pop_fresh.sum()
    pop_new = (1.0 - cfg.drift) * pop_old + cfg.drift * pop_fresh

    # Disk: lognormal postings size, weakly linked to popularity.
    disk = rng.lognormal(mean=0.0, sigma=0.6, size=n) * (0.5 + 0.5 * n * pop_old)
    # RAM: hot index portion ~ popularity with noise, plus a base floor.
    ram_noise = rng.uniform(0.8, 1.2, size=n)
    # CPU: proportional to current popularity with noise.
    cpu_noise = rng.uniform(0.8, 1.2, size=n)

    def build(pop: np.ndarray) -> np.ndarray:
        cpu = pop * cpu_noise
        ram = (0.3 * disk / disk.sum() + 0.7 * pop) * ram_noise
        out = np.stack([cpu, ram, disk / disk.sum()], axis=1)
        return out

    old = build(pop_old)
    new = build(pop_new)
    return old, new, disk


def generate_datacenter(cfg: DatacenterConfig) -> ClusterState:
    """Generate a drifted datacenter snapshot.

    The placement is computed to be balanced under the *old* demands
    (longest-processing-time greedy per dimension-max), then the *new*
    demands are installed — producing the realistic situation of a
    well-placed cluster that the workload has since walked away from.
    """
    rng = np.random.default_rng(cfg.seed)
    machines = _sample_machines(cfg, rng)
    capacity = np.stack([m.capacity for m in machines])
    old, new, disk = _shard_demands(cfg, rng)

    # Scale both demand epochs so the *new* epoch hits target utilization
    # per dimension, capping any single shard at 30% of the smallest
    # machine so the snapshot stays packable (water-filling preserves the
    # target total despite the cap).  A top-heavy fleet can need more
    # than that cap allows on average; its cap is then twice the mean.
    min_cap = capacity.min(axis=0)
    total_cap = capacity.sum(axis=0)
    n = cfg.num_shards
    for k in range(old.shape[1]):
        target = cfg.target_utilization * total_cap[k]
        shard_cap = 0.3 * min_cap[k]
        if target > shard_cap * n + 1e-9:
            shard_cap = 2.0 * target / n
        new[:, k] = waterfill_scale(new[:, k], target, shard_cap)
        old[:, k] = waterfill_scale(old[:, k], target, shard_cap)

    # Balanced placement for the old epoch: greedy LPT on normalized load.
    order = np.argsort(-old.sum(axis=1))
    loads = np.zeros_like(capacity)
    assign = np.empty(cfg.num_shards, dtype=np.int64)
    for j in order:
        util_after = ((loads + old[j]) / capacity).max(axis=1)
        i = int(np.argmin(util_after))
        assign[j] = i
        loads[i] += old[j]

    sizes = new[:, cfg.schema.index("disk")]
    shards = [
        Shard(id=j, demand=new[j], schema=cfg.schema, size_bytes=float(sizes[j]))
        for j in range(cfg.num_shards)
    ]
    return ClusterState(machines, shards, assign)
