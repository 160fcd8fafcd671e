"""The shipped scenario families.

Seven registered generator families (see docs/ARCHITECTURE.md, "Scenario
registry", for the schema and seeding contract):

``zipf-popularity``
    Zipfian shard popularity with parametric skew — the canonical search
    workload; wraps :class:`repro.workloads.SyntheticConfig` so legacy
    hand-registered zipf instances map 1:1 onto specs.
``correlated-demand``
    Correlated multi-dimensional demand with a parametric correlation
    coefficient and demand distribution (uniform or zipf).
``capacity-headroom``
    Headroom sweep: ``headroom`` (1 − tightness) is *the* parameter, so
    a matrix axis over it reproduces the paper's tightness sweeps.
``heterogeneous-generations``
    Mixed hardware generations (capacity/speed tiers) with drifted
    placement — parametric version of the datacenter snapshot generator.
``multi-tenant``
    Several tenants sharing one pool: per-tenant heat multipliers over
    intra-tenant zipf demand, so load is blocky-correlated by owner.
``failure-storm``
    Machine-loss waves layered on a base instance: victims are drained
    and taken offline wave by wave, survivors absorb the orphans.
``replicated-shards``
    Anti-affine replica groups over the synthetic substrate; wraps
    :class:`repro.workloads.ReplicatedConfig`.

Every family derives all randomness from the spec seed — either passed
straight into a workload config (whose generators construct
``default_rng(seed)``) or through ``SeedSequence(seed).spawn`` children
when independent streams are needed.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

from repro.cluster import ClusterState, MachineClass
from repro.scenarios.registry import register_scenario
from repro.scenarios.spec import ParamSpec
from repro.workloads.datacenter import (
    DEFAULT_MACHINE_MIX,
    DatacenterConfig,
    generate_datacenter,
)
from repro.workloads.replicated import ReplicatedConfig, generate_replicated
from repro.workloads.synthetic import (
    SyntheticConfig,
    _lpt_placement,
    _repair_feasibility,
    generate,
    waterfill_scale,
)

__all__: list[str] = []  # families register themselves; nothing to re-export


def _shape_params(
    *, machines: int = 20, spm: int = 8, util: float = 0.75, skew: float = 0.5
) -> tuple[ParamSpec, ...]:
    """The fleet-shape parameters every synthetic-substrate family shares."""
    return (
        ParamSpec("num_machines", "int", machines, low=1, high=100_000,
                  doc="fleet size"),
        ParamSpec("shards_per_machine", "int", spm, low=1, high=1_000,
                  doc="shards per machine (total shards = product)"),
        ParamSpec("target_utilization", "float", util, low=0.05, high=0.98,
                  doc="total demand / total capacity (tightness)"),
        ParamSpec("placement_skew", "float", skew, low=0.0, high=0.99,
                  doc="initial-placement imbalance (0 = balanced)"),
    )


# --------------------------------------------------------------------- zipf
@register_scenario(
    "zipf-popularity",
    "zipfian shard popularity with parametric skew (canonical search workload)",
    _shape_params()
    + (
        ParamSpec("zipf_alpha", "float", 1.1, low=0.2, high=3.0,
                  doc="power-law exponent of shard popularity"),
        ParamSpec("max_shard_fraction", "float", 0.3, low=0.05, high=0.9,
                  doc="largest share of one machine a single shard may demand"),
        ParamSpec("dim_correlation", "float", 0.8, low=0.0, high=1.0,
                  doc="cross-dimension demand correlation"),
    ),
)
def _build_zipf(params: Mapping[str, Any], seed: int) -> ClusterState:
    return generate(
        SyntheticConfig(
            num_machines=params["num_machines"],
            shards_per_machine=params["shards_per_machine"],
            target_utilization=params["target_utilization"],
            demand_dist="zipf",
            zipf_alpha=params["zipf_alpha"],
            dim_correlation=params["dim_correlation"],
            placement_skew=params["placement_skew"],
            max_shard_fraction=params["max_shard_fraction"],
            seed=seed,
        )
    )


# --------------------------------------------------------- correlated demand
@register_scenario(
    "correlated-demand",
    "correlated multi-dimensional demand with parametric correlation",
    _shape_params()
    + (
        ParamSpec("dim_correlation", "float", 0.8, low=0.0, high=1.0,
                  doc="1 = dimensions perfectly proportional, 0 = independent"),
        ParamSpec("demand_dist", "str", "uniform", choices=("uniform", "zipf"),
                  doc="per-shard magnitude distribution"),
        ParamSpec("max_shard_fraction", "float", 0.3, low=0.05, high=0.9,
                  doc="largest share of one machine a single shard may demand"),
    ),
)
def _build_correlated(params: Mapping[str, Any], seed: int) -> ClusterState:
    return generate(
        SyntheticConfig(
            num_machines=params["num_machines"],
            shards_per_machine=params["shards_per_machine"],
            target_utilization=params["target_utilization"],
            demand_dist=params["demand_dist"],
            dim_correlation=params["dim_correlation"],
            placement_skew=params["placement_skew"],
            max_shard_fraction=params["max_shard_fraction"],
            seed=seed,
        )
    )


# ---------------------------------------------------------- capacity headroom
@register_scenario(
    "capacity-headroom",
    "headroom sweep: tightness = 1 - headroom, for matrix axes over slack",
    (
        ParamSpec("num_machines", "int", 20, low=1, high=100_000,
                  doc="fleet size"),
        ParamSpec("shards_per_machine", "int", 8, low=1, high=1_000,
                  doc="shards per machine"),
        ParamSpec("headroom", "float", 0.2, low=0.02, high=0.9,
                  doc="capacity slack; target utilization = 1 - headroom"),
        ParamSpec("placement_skew", "float", 0.5, low=0.0, high=0.99,
                  doc="initial-placement imbalance"),
        ParamSpec("demand_dist", "str", "zipf", choices=("uniform", "zipf"),
                  doc="per-shard magnitude distribution"),
        ParamSpec("max_shard_fraction", "float", 0.35, low=0.05, high=0.9,
                  doc="largest share of one machine a single shard may demand"),
    ),
)
def _build_headroom(params: Mapping[str, Any], seed: int) -> ClusterState:
    return generate(
        SyntheticConfig(
            num_machines=params["num_machines"],
            shards_per_machine=params["shards_per_machine"],
            target_utilization=1.0 - params["headroom"],
            demand_dist=params["demand_dist"],
            placement_skew=params["placement_skew"],
            max_shard_fraction=params["max_shard_fraction"],
            seed=seed,
        )
    )


# --------------------------------------------------- heterogeneous generations
def _geometric_mix(tiers: int, capacity_step: float) -> tuple[tuple[MachineClass, float], ...]:
    """Synthesize *tiers* hardware generations as a geometric capacity
    ladder (CPU/RAM grow by ``capacity_step`` per generation, disk by
    its square root — newer servers add compute faster than spindles),
    weighted toward the middle generations like a real fleet."""
    base = np.array([48.0, 128.0, 2000.0])
    mix = []
    for t in range(tiers):
        cap = base * np.array(
            [capacity_step**t, capacity_step**t, math.sqrt(capacity_step) ** t]
        )
        # Triangular weights: mid-life generations dominate the fleet.
        weight = 1.0 + min(t, tiers - 1 - t)
        mix.append((MachineClass(f"gen{t + 1}", cap), float(weight)))
    return tuple(mix)


@register_scenario(
    "heterogeneous-generations",
    "mixed hardware generations (capacity tiers) with drifted placement",
    (
        ParamSpec("num_machines", "int", 100, low=1, high=100_000,
                  doc="fleet size"),
        ParamSpec("shards_per_machine", "int", 12, low=1, high=1_000,
                  doc="average shards per machine"),
        ParamSpec("target_utilization", "float", 0.8, low=0.05, high=0.98,
                  doc="tightness after popularity drift"),
        ParamSpec("drift", "float", 0.35, low=0.0, high=1.0,
                  doc="popularity mass moved since placement"),
        ParamSpec("popularity_alpha", "float", 1.0, low=0.2, high=3.0,
                  doc="zipf exponent of query popularity"),
        ParamSpec("tiers", "int", 0, low=0, high=8,
                  doc="hardware generations; 0 = calibrated 3-gen production mix"),
        ParamSpec("capacity_step", "float", 1.5, low=1.0, high=4.0,
                  doc="per-generation CPU/RAM capacity multiplier (tiers > 0)"),
    ),
)
def _build_generations(params: Mapping[str, Any], seed: int) -> ClusterState:
    tiers = params["tiers"]
    mix = DEFAULT_MACHINE_MIX if tiers == 0 else _geometric_mix(
        tiers, params["capacity_step"]
    )
    return generate_datacenter(
        DatacenterConfig(
            num_machines=params["num_machines"],
            shards_per_machine=params["shards_per_machine"],
            target_utilization=params["target_utilization"],
            popularity_alpha=params["popularity_alpha"],
            drift=params["drift"],
            machine_mix=mix,
            seed=seed,
        )
    )


# ---------------------------------------------------------------- multi-tenant
@register_scenario(
    "multi-tenant",
    "several tenants sharing one pool; load is blocky-correlated by owner",
    (
        ParamSpec("num_machines", "int", 30, low=2, high=100_000,
                  doc="machines in the shared pool"),
        ParamSpec("tenants", "int", 4, low=1, high=64,
                  doc="tenants sharing the pool"),
        ParamSpec("shards_per_tenant", "int", 40, low=1, high=10_000,
                  doc="shards each tenant owns"),
        ParamSpec("target_utilization", "float", 0.75, low=0.05, high=0.98,
                  doc="pool-wide tightness across all tenants"),
        ParamSpec("tenant_skew", "float", 0.6, low=0.0, high=0.99,
                  doc="how unevenly load splits across tenants (0 = even)"),
        ParamSpec("zipf_alpha", "float", 1.1, low=0.2, high=3.0,
                  doc="intra-tenant shard popularity exponent"),
        ParamSpec("placement_skew", "float", 0.5, low=0.0, high=0.99,
                  doc="initial-placement imbalance"),
        ParamSpec("max_shard_fraction", "float", 0.3, low=0.05, high=0.9,
                  doc="largest share of one machine a single shard may demand"),
    ),
)
def _build_multi_tenant(params: Mapping[str, Any], seed: int) -> ClusterState:
    from repro.cluster import Machine, Shard
    from repro.cluster.resources import DEFAULT_SCHEMA

    machine_capacity = 100.0
    m = params["num_machines"]
    tenants = params["tenants"]
    per_tenant = params["shards_per_tenant"]
    n = tenants * per_tenant
    d = DEFAULT_SCHEMA.dims

    root = np.random.SeedSequence(seed)
    demand_rng, share_rng, place_rng = (
        np.random.default_rng(child) for child in root.spawn(3)
    )

    # Tenant load shares: Dirichlet with low concentration = skewed pool.
    concentration = max(1e-3, 10.0 * (1.0 - params["tenant_skew"]))
    shares = share_rng.dirichlet(np.full(tenants, concentration))

    # Intra-tenant zipf magnitudes, scaled by the tenant's pool share.
    alpha = params["zipf_alpha"]
    ranks = np.arange(1, per_tenant + 1, dtype=np.float64)
    mags = np.empty(n)
    for t in range(tenants):
        tenant_mags = ranks ** (-alpha)
        demand_rng.shuffle(tenant_mags)
        tenant_mags = np.maximum(tenant_mags, tenant_mags.max() * 1e-3)
        tenant_mags *= shares[t] / tenant_mags.sum()
        mags[t * per_tenant : (t + 1) * per_tenant] = tenant_mags

    # Per-dimension noise around the shared magnitude (as in synthetic).
    noise = demand_rng.uniform(0.5, 1.5, size=(n, d))
    per_dim = mags[:, None] * (0.8 + 0.2 * noise)
    total_capacity = m * machine_capacity
    cap = params["max_shard_fraction"] * machine_capacity
    demands = np.empty_like(per_dim)
    for k in range(d):
        demands[:, k] = waterfill_scale(
            per_dim[:, k], params["target_utilization"] * total_capacity, cap
        )

    machines = Machine.homogeneous(m, machine_capacity, cls="multi-tenant")
    shards = [Shard(id=j, demand=demands[j]) for j in range(n)]
    capacity = np.stack([mach.capacity for mach in machines])
    # Dirichlet-weighted skewed placement (as in the synthetic family),
    # sized to the tenant shard count, then repaired to feasibility.
    skew = params["placement_skew"]
    if skew == 0.0:
        assign = _lpt_placement(demands, capacity)
    else:
        weight_conc = max(1e-3, 10.0 * (1.0 - skew))
        weights = place_rng.dirichlet(np.full(m, weight_conc))
        assign = place_rng.choice(m, size=n, p=weights)
        assign = _repair_feasibility(assign, demands, capacity)
    return ClusterState(machines, shards, assign)


# --------------------------------------------------------------- failure storm
@register_scenario(
    "failure-storm",
    "machine-loss waves on a base instance; survivors absorb the orphans",
    _shape_params(util=0.7)
    + (
        ParamSpec("waves", "int", 2, low=1, high=16,
                  doc="failure waves applied in sequence"),
        ParamSpec("loss_fraction", "float", 0.1, low=0.01, high=0.4,
                  doc="fraction of the original fleet lost per wave"),
        ParamSpec("reassign_orphans", "bool", True,
                  doc="greedily re-place orphaned shards on survivors "
                      "(False leaves them unassigned for recovery studies)"),
        ParamSpec("zipf_alpha", "float", 1.1, low=0.2, high=3.0,
                  doc="shard popularity exponent of the base instance"),
    ),
)
def _build_failure_storm(params: Mapping[str, Any], seed: int) -> ClusterState:
    root = np.random.SeedSequence(seed)
    base_seed_seq, storm_seed_seq = root.spawn(2)
    state = generate(
        SyntheticConfig(
            num_machines=params["num_machines"],
            shards_per_machine=params["shards_per_machine"],
            target_utilization=params["target_utilization"],
            demand_dist="zipf",
            zipf_alpha=params["zipf_alpha"],
            placement_skew=params["placement_skew"],
            seed=int(base_seed_seq.generate_state(1)[0]),
        )
    )
    storm_rng = np.random.default_rng(storm_seed_seq)
    m = state.num_machines
    per_wave = max(1, int(round(params["loss_fraction"] * m)))
    orphans: list[int] = []
    for _ in range(params["waves"]):
        alive = np.flatnonzero(~state.offline_mask)
        # Never kill the whole fleet: keep at least one machine serving.
        victims = storm_rng.choice(
            alive, size=min(per_wave, alive.size - 1), replace=False
        )
        for i in sorted(int(v) for v in victims):
            for j in state.machine_shards(i).tolist():
                state.unassign(int(j))
                orphans.append(int(j))
            state.set_offline(i)
    if params["reassign_orphans"]:
        # Greedy best-fit by post-insert peak: survivors absorb the
        # orphans even when that overloads them — the storm's aftermath
        # is exactly the imbalanced state a rebalancer receives.
        alive = np.flatnonzero(~state.offline_mask)
        demand = state.demand
        capacity = state.capacity
        for j in sorted(orphans, key=lambda j: -float(demand[j].sum())):
            util_after = (
                (state.loads[alive] + demand[j]) / capacity[alive]
            ).max(axis=1)
            state.assign_shard(j, int(alive[int(np.argmin(util_after))]))
    return state


# ---------------------------------------------------------------- demand drift
@register_scenario(
    "demand-drift",
    "hotspot-shift + flash-crowd demand over a stale placement (controller studies)",
    _shape_params(machines=16, spm=6, util=0.75, skew=0.0)
    + (
        ParamSpec("zipf_alpha", "float", 1.1, low=0.2, high=3.0,
                  doc="shard popularity exponent at placement time"),
        ParamSpec("hotspot_shift", "float", 0.3, low=0.0, high=0.9,
                  doc="popularity mass moved onto the hot set since placement"),
        ParamSpec("hotspot_fraction", "float", 0.1, low=0.01, high=0.5,
                  doc="fraction of shards forming the drifted hot set"),
        ParamSpec("flash_multiplier", "float", 1.0, low=1.0, high=50.0,
                  doc="demand multiplier on the flash-crowd shards (1 = none)"),
        ParamSpec("flash_fraction", "float", 0.02, low=0.0, high=0.2,
                  doc="fraction of shards hit by the flash crowd"),
        ParamSpec("max_shard_fraction", "float", 0.35, low=0.05, high=0.9,
                  doc="largest share of one machine a single shard may demand"),
    ),
)
def _build_demand_drift(params: Mapping[str, Any], seed: int) -> ClusterState:
    """Placement is computed for yesterday's workload; demand is today's.

    A base zipf instance is generated (balanced or skewed placement per
    ``placement_skew``), then the *demand* alone is rewritten: a seeded
    hotspot shift moves ``hotspot_shift`` of the popularity mass onto a
    random hot set, and an optional flash crowd multiplies a small shard
    set on top.  Every dimension is re-waterfilled to the original
    tightness with the per-shard cap, so the instance stays comparable
    across parameters — only *where* the load sits changes.  The result
    is the canonical continuous-rebalancing input: a placement that was
    right once and a workload that has moved on.
    """
    from repro.online.drift import apply_demands

    root = np.random.SeedSequence(seed)
    base_ss, hot_ss, flash_ss = root.spawn(3)
    state = generate(
        SyntheticConfig(
            num_machines=params["num_machines"],
            shards_per_machine=params["shards_per_machine"],
            target_utilization=params["target_utilization"],
            demand_dist="zipf",
            zipf_alpha=params["zipf_alpha"],
            placement_skew=params["placement_skew"],
            max_shard_fraction=params["max_shard_fraction"],
            seed=int(base_ss.generate_state(1)[0]),
        )
    )
    n = state.num_shards
    demand = state.demand.copy()

    # Hotspot shift: move a fraction of each dimension's mass onto a
    # random hot set, distributed zipf-style within it (a few shards get
    # most of the surge, like a trending query cluster).
    shift = params["hotspot_shift"]
    if shift > 0.0:
        hot_rng = np.random.default_rng(hot_ss)
        k = max(1, int(round(params["hotspot_fraction"] * n)))
        hot = hot_rng.choice(n, size=k, replace=False)
        surge = np.arange(1, k + 1, dtype=np.float64) ** (-params["zipf_alpha"])
        hot_rng.shuffle(surge)
        surge /= surge.sum()
        totals = demand.sum(axis=0)
        demand *= 1.0 - shift
        demand[hot] += shift * surge[:, None] * totals[None, :]

    # Flash crowd: multiply a small random shard set across the board.
    flash_mult = params["flash_multiplier"]
    if flash_mult > 1.0 and params["flash_fraction"] > 0.0:
        flash_rng = np.random.default_rng(flash_ss)
        fk = max(1, int(round(params["flash_fraction"] * n)))
        flash = flash_rng.choice(n, size=fk, replace=False)
        demand[flash] *= flash_mult

    # Re-waterfill every dimension to the original tightness with the
    # per-shard cap, so tightness is a controlled variable.
    cap_per_machine = state.capacity.mean(axis=0)
    for dim in range(state.dims):
        demand[:, dim] = waterfill_scale(
            demand[:, dim],
            params["target_utilization"] * state.capacity[:, dim].sum(),
            params["max_shard_fraction"] * cap_per_machine[dim],
        )
    return apply_demands(state, demand)


# ------------------------------------------------------------ replicated shards
@register_scenario(
    "replicated-shards",
    "anti-affine replica groups over the synthetic substrate",
    _shape_params(util=0.7)
    + (
        ParamSpec("replication_factor", "int", 2, low=1, high=8,
                  doc="replicas per logical shard (anti-affine)"),
        ParamSpec("zipf_alpha", "float", 1.1, low=0.2, high=3.0,
                  doc="logical-shard popularity exponent"),
        ParamSpec("max_shard_fraction", "float", 0.3, low=0.05, high=0.9,
                  doc="largest share of one machine a single shard may demand"),
    ),
)
def _build_replicated(params: Mapping[str, Any], seed: int) -> ClusterState:
    return generate_replicated(
        ReplicatedConfig(
            base=SyntheticConfig(
                num_machines=params["num_machines"],
                shards_per_machine=params["shards_per_machine"],
                target_utilization=params["target_utilization"],
                demand_dist="zipf",
                zipf_alpha=params["zipf_alpha"],
                placement_skew=params["placement_skew"],
                max_shard_fraction=params["max_shard_fraction"],
                seed=seed,
            ),
            replication_factor=params["replication_factor"],
        )
    )
