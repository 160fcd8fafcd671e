"""Tests for the shared exchange-machine pool."""

import numpy as np
import pytest

from repro.algorithms import AlnsConfig, NoopRebalancer, SRA, SRAConfig
from repro.cluster import Machine
from repro.pool import MachinePool, PoolSizingPolicy, exchange_episode
from repro.workloads import SyntheticConfig, generate, make_exchange_machines


def tight_state(seed=0):
    return generate(
        SyntheticConfig(
            num_machines=16,
            shards_per_machine=6,
            target_utilization=0.85,
            placement_skew=0.5,
            max_shard_fraction=0.35,
            seed=seed,
        )
    )


def quick_sra(iterations=300, seed=1):
    return SRA(SRAConfig(alns=AlnsConfig(iterations=iterations, seed=seed)))


def run_episode(pool, state, rebalancer, *, budget, **kwargs):
    """Lend *budget* machines from *pool* and run one exchange episode."""
    return exchange_episode(state, rebalancer, pool.lend(budget), pool=pool, **kwargs)


class TestMachinePool:
    def test_inventory_accounting(self):
        pool = MachinePool(Machine.homogeneous(3, 10.0))
        assert pool.size == 3
        lent = pool.lend(2)
        assert len(lent) == 2 and pool.size == 1
        assert all(m.exchange for m in lent)
        pool.accept(lent)
        assert pool.size == 3

    def test_lend_largest_first(self):
        small = Machine(id=0, capacity=np.full(3, 5.0))
        big = Machine(id=1, capacity=np.full(3, 50.0))
        pool = MachinePool([small, big])
        lent = pool.lend(1)
        np.testing.assert_allclose(lent[0].capacity, 50.0)

    def test_overlend_rejected(self):
        pool = MachinePool(Machine.homogeneous(1, 10.0))
        with pytest.raises(ValueError, match="cannot lend"):
            pool.lend(2)

    def test_total_capacity(self):
        pool = MachinePool(Machine.homogeneous(2, 10.0))
        np.testing.assert_allclose(pool.total_capacity(), 20.0)

    def test_empty_pool(self):
        pool = MachinePool()
        assert pool.size == 0
        assert pool.lend(0) == []


class TestRebalanceWithPool:
    def test_pool_size_conserved_on_success(self):
        state = tight_state()
        pool = MachinePool(make_exchange_machines(state, 4))
        slim, result = run_episode(pool, state, quick_sra(), budget=2)
        assert result.feasible
        assert pool.size == 4
        assert slim.num_machines == state.num_machines
        assert slim.peak_utilization() < state.peak_utilization()

    def test_exchange_changes_pool_composition(self):
        state = tight_state()
        before = {id(m) for m in make_exchange_machines(state, 4)}
        pool = MachinePool(make_exchange_machines(state, 4))
        initial_caps = sorted(float(m.capacity.sum()) for m in pool.inventory())
        run_episode(pool, state, quick_sra(600), budget=2)
        episode = pool.history[-1]
        if episode.exchanged > 0:
            # Returned machines came from the cluster: composition changed.
            after_caps = sorted(float(m.capacity.sum()) for m in pool.inventory())
            assert pool.size == 4
            # (capacities may coincide; the audit trail is authoritative)
            assert episode.returned == 2

    def test_infeasible_episode_restores_pool(self):
        # Owing one vacancy more than the loan on a fully packed cluster
        # cannot be met by a rebalancer that proposes nothing.
        state = tight_state()
        assert state.vacant_machines().size == 0
        pool = MachinePool(make_exchange_machines(state, 2))
        caps_before = pool.total_capacity()
        assignment = state.assignment.copy()

        slim, result = run_episode(
            pool, state, NoopRebalancer(), budget=2, required_returns=3
        )
        assert not result.feasible
        assert pool.size == 2
        np.testing.assert_array_equal(pool.total_capacity(), caps_before)
        assert pool.on_loan == 0
        np.testing.assert_array_equal(state.assignment, assignment)
        assert slim.num_machines == state.num_machines
        np.testing.assert_array_equal(slim.assignment, assignment)
        assert len(pool.history) == 1
        row = pool.history[0]
        assert not row.feasible
        assert row.lent == row.returned == 2 and row.exchanged == 0

    def test_return_policy_validated(self):
        state = tight_state()
        pool = MachinePool(make_exchange_machines(state, 2))
        with pytest.raises(ValueError, match="policy"):
            run_episode(pool, state, NoopRebalancer(), budget=2, policy="bogus")

    def test_history_recorded(self):
        state = tight_state()
        pool = MachinePool(make_exchange_machines(state, 2))
        run_episode(pool, state, quick_sra(), budget=1, label="prod-7")
        assert len(pool.history) == 1
        ep = pool.history[0]
        assert ep.label == "prod-7"
        assert ep.lent == 1
        assert ep.pool_size_after == 2

    def test_sequential_episodes_across_clusters(self):
        pool = MachinePool(make_exchange_machines(tight_state(), 3))
        for seed in (0, 1, 2):
            state = tight_state(seed)
            slim, result = run_episode(
                pool, state, quick_sra(seed=seed), budget=2, label=f"c{seed}"
            )
            assert pool.size == 3  # conserved after every episode
        assert len(pool.history) == 3
        assert all(ep.feasible for ep in pool.history)


class TestPoolClock:
    def test_machine_rounds_integrate_standing_loan(self):
        state = tight_state()
        pool = MachinePool(
            make_exchange_machines(state, 4),
            sizing=PoolSizingPolicy(borrow_above=0.9, min_hold_rounds=1),
        )
        pool.tick()
        d = pool.decide(1.0)
        assert d.borrow > 0
        run_episode(pool, state, NoopRebalancer(), budget=2, required_returns=0)
        assert pool.rounds_held == 0  # the loan changed
        pool.tick()
        pool.tick()
        assert pool.on_loan == 2
        assert pool.machine_rounds == 4  # 2 loaned machines held over 2 checks
        assert pool.rounds_held == 2

    def test_on_loan_counts_lent_minus_returned(self):
        state = tight_state()
        pool = MachinePool(make_exchange_machines(state, 3))
        grown, _ = run_episode(
            pool, state, NoopRebalancer(), budget=3, required_returns=0
        )
        assert pool.on_loan == 3 and pool.size == 0
        # A release round: nothing lent, one vacancy owed back.
        exchange_episode(grown, NoopRebalancer(), [], pool=pool, required_returns=1)
        assert pool.on_loan == 2 and pool.size == 1
