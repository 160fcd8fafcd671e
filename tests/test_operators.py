"""Tests for destroy and repair operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    AlnsConfig,
    AlnsEngine,
    Objective,
    greedy_best_fit,
    random_removal,
    regret2_insertion,
    shaw_removal,
    vacancy_removal,
    worst_machine_removal,
)
from repro.algorithms.destroy import DEFAULT_DESTROY_OPS
from repro.cluster import ClusterState, Machine, Shard
from repro.workloads import SyntheticConfig, generate
from tests.oracles.regret2 import regret2_exact, regret2_oracle


def rng():
    return np.random.default_rng(0)


def demo_state():
    machines = Machine.homogeneous(4, 10.0)
    shards = [Shard(id=j, demand=np.full(3, 1.0 + j * 0.5)) for j in range(8)]
    return ClusterState(machines, shards, [0, 0, 0, 1, 1, 2, 2, 3])


class TestDestroyOperators:
    @pytest.mark.parametrize(
        "op", [random_removal, worst_machine_removal, shaw_removal, vacancy_removal]
    )
    def test_removed_shards_are_unassigned(self, op):
        state = demo_state()
        removed = op(state, rng(), 3)
        assert removed, f"{op.__name__} removed nothing"
        assert set(state.unassigned_shards()) == set(removed)

    @pytest.mark.parametrize("op", [random_removal, shaw_removal])
    def test_respects_quantity(self, op):
        state = demo_state()
        removed = op(state, rng(), 3)
        assert len(removed) == 3

    def test_random_removal_caps_at_assigned_count(self):
        state = demo_state()
        removed = random_removal(state, rng(), 100)
        assert len(removed) == 8

    def test_worst_machine_targets_peak(self):
        state = demo_state()
        # machine with the highest peak utilization
        hottest = int(np.argmax(state.machine_peak_utilization()))
        hot_members = {int(j) for j in state.machine_shards(hottest)}
        removed = worst_machine_removal(state, rng(), 2)
        assert set(removed) <= hot_members

    def test_shaw_removes_similar_shards(self):
        # Two clusters of demand shapes: cpu-heavy vs disk-heavy.
        machines = Machine.homogeneous(2, 100.0)
        cpu_heavy = [Shard(id=j, demand=np.array([5.0, 1.0, 1.0])) for j in range(3)]
        disk_heavy = [
            Shard(id=3 + j, demand=np.array([1.0, 1.0, 5.0])) for j in range(3)
        ]
        state = ClusterState(machines, cpu_heavy + disk_heavy, [0, 0, 0, 1, 1, 1])
        removed = shaw_removal(state, np.random.default_rng(1), 3)
        # All removed shards share a shape family.
        families = {0 if j < 3 else 1 for j in removed}
        assert len(families) == 1

    def test_vacancy_removal_empties_least_loaded(self):
        state = demo_state()
        score = (state.loads / state.capacity).sum(axis=1)
        expected = int(np.argmin(np.where(state.shard_counts() > 0, score, np.inf)))
        expected_members = {int(j) for j in state.machine_shards(expected)}
        removed = vacancy_removal(state, rng(), 8)
        assert set(removed) == expected_members
        assert state.shard_counts()[expected] == 0

    def test_vacancy_removal_prefers_in_service(self):
        machines = Machine.homogeneous(2, 10.0) + [
            Machine(id=2, capacity=np.full(3, 10.0), exchange=True)
        ]
        shards = Shard.uniform(3, 1.0)
        # exchange machine 2 has the least load but should not be chosen
        state = ClusterState(machines, shards, [0, 0, 2])
        removed = vacancy_removal(state, rng(), 3)
        # machine 1 is vacant already; least-loaded occupied in-service is 0
        assert set(removed) <= {0, 1}

    def test_vacancy_removal_empty_cluster(self):
        machines = Machine.homogeneous(2, 10.0)
        shards = Shard.uniform(1, 1.0)
        state = ClusterState(machines, shards)  # all unassigned
        assert vacancy_removal(state, rng(), 2) == []


class TestRepairOperators:
    @pytest.mark.parametrize("op", [greedy_best_fit, regret2_insertion])
    def test_reinserts_everything(self, op):
        state = demo_state()
        removed = random_removal(state, rng(), 4)
        op(state, rng(), removed)
        assert state.is_fully_assigned()

    @pytest.mark.parametrize("op", [greedy_best_fit, regret2_insertion])
    def test_noop_on_empty(self, op):
        state = demo_state()
        before = state.assignment
        op(state, rng(), [])
        np.testing.assert_array_equal(state.assignment, before)

    @pytest.mark.parametrize("op", [greedy_best_fit, regret2_insertion])
    def test_prefers_feasible_placements(self, op):
        # One machine nearly full; repair must not overflow it.
        machines = Machine.homogeneous(2, 10.0)
        shards = Shard.uniform(4, 4.0)
        state = ClusterState(machines, shards, [0, 0, 1, 1])
        state.unassign(3)
        op(state, rng(), [3])
        assert state.is_within_capacity()

    def test_repair_improves_balance_vs_random(self):
        state = generate(SyntheticConfig(num_machines=10, shards_per_machine=6, seed=3))
        work = state.copy()
        removed = worst_machine_removal(work, rng(), 10)
        greedy_best_fit(work, rng(), removed)
        assert work.peak_utilization() <= state.peak_utilization() + 1e-9

    def test_greedy_keeps_removal_order_among_equal_sums(self):
        # Shards 0-3 all sum to 6; shard 4 sums to 9 and goes first.
        # Equal sums keep the order they were removed in, so the batch
        # is the same as inserting one shard at a time in that order.
        demands = [[1, 2, 3], [3, 2, 1], [2, 2, 2], [3, 3, 0], [3, 3, 3]]
        machines = Machine.homogeneous(3, 10.0)
        shards = [Shard(id=j, demand=np.array(d, float)) for j, d in enumerate(demands)]
        state = ClusterState(machines, shards, [0, 1, 2, 0, 1])
        removed = [2, 0, 4, 3, 1]
        state.unassign_many(removed)
        batch, serial = state.copy(), state.copy()
        greedy_best_fit(batch, rng(), removed)
        for j in [4, 2, 0, 3, 1]:
            greedy_best_fit(serial, rng(), [j])
        np.testing.assert_array_equal(batch.assignment, serial.assignment)
        assert batch.assignment.tolist() == [2, 2, 1, 1, 0]


class TestRegret2Gate:
    """Regret-2 on top-``T`` candidate lists must produce placements
    (and therefore engine trajectories) bitwise equal to the
    full-repartition oracle."""

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_pruned_matches_exact_operator_level(self, seed):
        state = generate(
            SyntheticConfig(num_machines=40, shards_per_machine=5, seed=seed)
        )
        exact_state, pruned_state = state.copy(), state.copy()
        removed = random_removal(exact_state, np.random.default_rng(seed), 25)
        pruned_state.unassign_many(removed)
        regret2_exact(exact_state, removed)
        regret2_insertion(pruned_state, rng(), removed)
        np.testing.assert_array_equal(
            exact_state.assignment, pruned_state.assignment
        )

    def test_pruned_matches_exact_with_replicas_and_blocked(self):
        machines = Machine.homogeneous(12, 30.0)
        shards = [
            Shard(id=j, demand=np.full(3, 1.0 + (j % 5)), replica_of=j // 3)
            for j in range(24)
        ]
        state = ClusterState(machines, shards, [j % 12 for j in range(24)])
        # Remove the evens plus machine 7's hosts so it can be blocked.
        removed = sorted(set(range(0, 24, 2)) | {7, 19})
        state.unassign_many(removed)
        state.block_machine(7)
        exact_state, pruned_state = state.copy(), state.copy()
        regret2_exact(exact_state, removed)
        regret2_insertion(pruned_state, rng(), removed)
        np.testing.assert_array_equal(
            exact_state.assignment, pruned_state.assignment
        )

    def test_engine_trajectory_identical_across_gate(self):
        state = generate(
            SyntheticConfig(num_machines=30, shards_per_machine=5, seed=2)
        )
        results = []
        for regret2 in (regret2_insertion, regret2_oracle):
            cfg = AlnsConfig(iterations=120, seed=7)
            repair_ops = (greedy_best_fit, regret2)
            engine = AlnsEngine(cfg, DEFAULT_DESTROY_OPS, repair_ops)
            obj = Objective(state.assignment, state.sizes)
            results.append(engine.run(state.copy(), obj))
        pruned, exact = results
        assert repr(pruned.best_objective) == repr(exact.best_objective)
        assert pruned.accepted == exact.accepted
        assert pruned.history == exact.history
        np.testing.assert_array_equal(pruned.best_assignment, exact.best_assignment)


@given(seed=st.integers(min_value=0, max_value=100), q=st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_property_destroy_repair_roundtrip_preserves_shards(seed, q):
    """Any destroy+repair cycle ends fully assigned with loads consistent."""
    r = np.random.default_rng(seed)
    state = generate(
        SyntheticConfig(num_machines=6, shards_per_machine=5, seed=seed)
    )
    ops = [random_removal, worst_machine_removal, shaw_removal, vacancy_removal]
    repairs = [greedy_best_fit, regret2_insertion]
    removed = ops[seed % 4](state, r, q)
    repairs[seed % 2](state, r, removed)
    assert state.is_fully_assigned()
    recomputed = np.zeros_like(state.loads)
    np.add.at(recomputed, state.assignment, state.demand)
    np.testing.assert_allclose(state.loads, recomputed, atol=1e-9)
