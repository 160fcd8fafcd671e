"""Tests for destroy and repair operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    greedy_best_fit,
    random_removal,
    shaw_removal,
    vacancy_removal,
    worst_machine_removal,
)
from repro.cluster import ClusterState, Machine, Shard
from repro.workloads import SyntheticConfig, generate


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
    @pytest.mark.parametrize("op", [greedy_best_fit])
    def test_reinserts_everything(self, op):
        state = demo_state()
        removed = random_removal(state, rng(), 4)
        op(state, rng(), removed)
        assert state.is_fully_assigned()

    @pytest.mark.parametrize("op", [greedy_best_fit])
    def test_noop_on_empty(self, op):
        state = demo_state()
        before = state.assignment
        op(state, rng(), [])
        np.testing.assert_array_equal(state.assignment, before)

    @pytest.mark.parametrize("op", [greedy_best_fit])
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


@given(seed=st.integers(min_value=0, max_value=100), q=st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_property_destroy_repair_roundtrip_preserves_shards(seed, q):
    """Any destroy+repair cycle ends fully assigned with loads consistent."""
    r = np.random.default_rng(seed)
    state = generate(
        SyntheticConfig(num_machines=6, shards_per_machine=5, seed=seed)
    )
    ops = [random_removal, worst_machine_removal, shaw_removal, vacancy_removal]
    removed = ops[seed % 4](state, r, q)
    greedy_best_fit(state, r, removed)
    assert state.is_fully_assigned()
    recomputed = np.zeros_like(state.loads)
    np.add.at(recomputed, state.assignment, state.demand)
    np.testing.assert_allclose(state.loads, recomputed, atol=1e-9)
