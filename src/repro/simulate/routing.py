"""Replica-aware query routing.

With a replicated index, each query must reach **one replica of each
logical shard**; the broker's choice of replica is a second, fast-acting
load-balancing mechanism layered on top of placement.  This module
simulates the classic routing policies:

* ``random``       — uniform random replica (stateless);
* ``round_robin``  — per-logical-shard rotation (stateless per query,
  deterministic);
* ``least_loaded`` — join-the-shortest-queue on the hosting machine's
  current backlog (what load-aware brokers approximate with health
  probes).

Placement decides how good routing *can* be (replicas of hot shards on
hot machines leave no good choice); experiment E16 quantifies the
interaction.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from repro._validation import check_in
from repro.cluster import ClusterState
from repro.simulate.des import (
    ServingConfig,
    ServingReport,
    _busy_fraction,
    _effective_speeds,
    _empty_summary,
)
from repro.simulate.latency import summarize
from repro.simulate.workprofile import WorkProfile

__all__ = ["RoutingPolicy", "simulate_routed_serving"]

RoutingPolicy = Literal["random", "round_robin", "least_loaded"]


def simulate_routed_serving(
    state: ClusterState,
    profile: WorkProfile,
    logical_of: Sequence[int],
    config: ServingConfig | None = None,
    *,
    policy: RoutingPolicy = "least_loaded",
) -> ServingReport:
    """Simulate serving where each logical shard is served by ONE replica.

    Parameters
    ----------
    state:
        Cluster placement; ``logical_of[j]`` is the engine/logical shard
        cluster shard ``j`` replicates (several cluster shards may map to
        one logical shard).
    profile:
        Per-query work per **logical** shard.
    policy:
        Replica selection policy (see module docstring).

    Machines are single-server FCFS exactly as in
    :func:`repro.simulate.des.simulate_serving`; with one replica per
    logical shard the two simulators agree.
    """
    cfg = config or ServingConfig()
    check_in("policy", policy, ("random", "round_robin", "least_loaded"))
    logical = np.asarray(logical_of, dtype=np.int64)
    if logical.shape != (state.num_shards,):
        raise ValueError("logical_of must map every cluster shard")
    if np.any((logical < 0) | (logical >= profile.num_shards)):
        raise ValueError("logical_of references unknown logical shards")
    if not state.is_fully_assigned():
        raise ValueError("simulation requires a fully assigned state")

    # Replica sets per logical shard.
    groups: dict[int, np.ndarray] = {
        int(g): np.flatnonzero(logical == g) for g in np.unique(logical)
    }
    covered = sorted(groups)

    speed = _effective_speeds(state, cfg)

    rng = np.random.default_rng(cfg.seed)
    num_arrivals = rng.poisson(cfg.arrival_rate * cfg.duration)
    arrival_times = np.sort(rng.uniform(0.0, cfg.duration, size=num_arrivals))
    query_rows = rng.integers(0, profile.num_queries, size=num_arrivals)

    assign = state.assignment_view()
    free_at = np.zeros(state.num_machines)
    busy_time = np.zeros(state.num_machines)
    rr_counter: dict[int, int] = {g: 0 for g in covered}

    latencies = np.empty(num_arrivals)
    for qi in range(num_arrivals):
        t = arrival_times[qi]
        row = profile.work[query_rows[qi]]
        finish_max = t
        for g in covered:
            w = row[g]
            if w <= 0:
                continue
            replicas = groups[g]
            if replicas.size == 1 or policy == "random":
                j = int(replicas[0]) if replicas.size == 1 else int(rng.choice(replicas))
            elif policy == "round_robin":
                j = int(replicas[rr_counter[g] % replicas.size])
                rr_counter[g] += 1
            else:  # least_loaded: shortest backlog on the hosting machine
                hosts = assign[replicas]
                j = int(replicas[int(np.argmin(free_at[hosts]))])
            m = assign[j]
            start = max(t, free_at[m])
            service = w / speed[m]
            free_at[m] = start + service
            busy_time[m] += service
            if free_at[m] > finish_max:
                finish_max = free_at[m]
        latencies[qi] = finish_max - t

    # Same arrival-window convention as simulate_serving (see
    # repro.simulate.des._busy_fraction): drain time does not dilute the
    # fractions, background load adds on top.
    return ServingReport(
        latency=summarize(latencies) if num_arrivals else _empty_summary(),
        machine_busy_fraction=_busy_fraction(
            busy_time, arrival_times, cfg, state.num_machines
        ),
        queries_completed=int(num_arrivals),
    )
