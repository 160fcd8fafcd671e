"""Tests for replica-aware query routing in the simulator."""

import numpy as np
import pytest

from repro.cluster import ClusterState, Machine, Shard
from repro.simulate import (
    ServingConfig,
    WorkProfile,
    simulate_routed_serving,
    simulate_serving,
)


def replicated_cluster(k=2, logical=4, machines=4, cap=4.0):
    """`logical` logical shards, k replicas each, spread over machines."""
    fleet = Machine.homogeneous(machines, {"cpu": cap, "ram": 100.0, "disk": 100.0})
    shards = []
    logical_of = []
    for g in range(logical):
        for _r in range(k):
            shards.append(
                Shard(
                    id=len(shards),
                    demand=np.array([1.0 / k, 1.0, 1.0]),
                    replica_of=g if k > 1 else -1,
                )
            )
            logical_of.append(g)
    assign = [(i * 2654435761 % machines) for i in range(len(shards))]
    # Ensure anti-affinity by round-robin per group instead.
    assign = []
    for g in range(logical):
        for r in range(k):
            assign.append((g + r * (machines // max(k, 1)) + r) % machines)
    state = ClusterState(fleet, shards, assign)
    return state, logical_of


class TestRoutedServing:
    def test_single_replica_matches_plain_simulator(self):
        state, logical_of = replicated_cluster(k=1)
        profile = WorkProfile(np.full((4, 4), 1000.0))
        cfg = ServingConfig(arrival_rate=20.0, duration=15.0, seed=3)
        plain = simulate_serving(state, profile, logical_of, cfg)
        routed = simulate_routed_serving(state, profile, logical_of, cfg)
        assert routed.latency == plain.latency

    @pytest.mark.parametrize("policy", ["random", "round_robin", "least_loaded"])
    def test_policies_run_and_complete(self, policy):
        state, logical_of = replicated_cluster(k=2)
        profile = WorkProfile(np.full((4, 4), 1000.0))
        cfg = ServingConfig(arrival_rate=20.0, duration=10.0, seed=4)
        report = simulate_routed_serving(
            state, profile, logical_of, cfg, policy=policy
        )
        assert report.queries_completed > 0
        assert report.latency.p99 > 0

    def test_least_loaded_beats_random_under_skew(self):
        # One machine is half-speed (background load): a load-aware router
        # shifts work to the fast replicas.
        state, logical_of = replicated_cluster(k=2)
        profile = WorkProfile(np.full((4, 4), 2000.0))
        cfg = ServingConfig(
            arrival_rate=25.0, duration=30.0, seed=5, background_load={0: 0.6}
        )
        rnd = simulate_routed_serving(state, profile, logical_of, cfg, policy="random")
        ll = simulate_routed_serving(
            state, profile, logical_of, cfg, policy="least_loaded"
        )
        assert ll.latency.p99 < rnd.latency.p99

    def test_replication_reduces_tail_vs_single_copy(self):
        # Same capacity, same per-query work: k=2 with least-loaded routing
        # should beat k=1 (scheduling freedom).
        single, logical_single = replicated_cluster(k=1)
        double, logical_double = replicated_cluster(k=2)
        profile = WorkProfile(np.full((6, 4), 2500.0))
        cfg = ServingConfig(arrival_rate=25.0, duration=30.0, seed=6)
        one = simulate_routed_serving(single, profile, logical_single, cfg)
        two = simulate_routed_serving(
            double, profile, logical_double, cfg, policy="least_loaded"
        )
        assert two.latency.p99 <= one.latency.p99 + 1e-9

    def test_round_robin_is_deterministic(self):
        state, logical_of = replicated_cluster(k=2)
        profile = WorkProfile(np.full((4, 4), 1000.0))
        cfg = ServingConfig(arrival_rate=15.0, duration=10.0, seed=7)
        a = simulate_routed_serving(state, profile, logical_of, cfg, policy="round_robin")
        b = simulate_routed_serving(state, profile, logical_of, cfg, policy="round_robin")
        assert a.latency == b.latency

    def test_validation(self):
        state, logical_of = replicated_cluster(k=2)
        profile = WorkProfile(np.full((4, 4), 1000.0))
        with pytest.raises(ValueError, match="policy"):
            simulate_routed_serving(
                state, profile, logical_of, policy="psychic"  # type: ignore[arg-type]
            )
        with pytest.raises(ValueError, match="every cluster shard"):
            simulate_routed_serving(state, profile, logical_of[:-1])
        with pytest.raises(ValueError, match="unknown logical"):
            simulate_routed_serving(state, profile, [99] * state.num_shards)

    def test_background_load_revalidated_at_use_time(self):
        # ServingConfig validates background_load at construction, but the
        # dict stays mutable: a fraction pushed to 1.0 afterwards must be
        # rejected exactly as simulate_serving rejects it, not turned into
        # a zero-speed machine with infinite latencies.
        state, logical_of = replicated_cluster(k=2)
        profile = WorkProfile(np.full((4, 4), 1000.0))
        cfg = ServingConfig(arrival_rate=10.0, duration=5.0, seed=8)
        cfg.background_load[0] = 1.0
        with pytest.raises(ValueError, match="background_load"):
            simulate_serving(state, profile, logical_of, cfg)
        with pytest.raises(ValueError, match="background_load"):
            simulate_routed_serving(state, profile, logical_of, cfg)
