"""Exchange episodes on a degraded fleet: dead machines stay dead.

Borrowing exchange machines grows the fleet and settling shrinks it
again; both keep the fleet's offline mask, so no search, polish or
settlement ever places a shard on a machine that has failed.
"""

import numpy as np

from repro import ResourceExchangeRebalancer
from repro.algorithms import SRA, AlnsConfig, NoopRebalancer, SRAConfig
from repro.cluster import ClusterState, ExchangeLedger, Machine, Shard
from repro.pool import exchange_episode
from repro.scenarios import ScenarioSpec, generate_instance
from repro.workloads import make_exchange_machines


def failure_storm():
    state = generate_instance(ScenarioSpec("failure-storm", {}, seed=0))
    assert np.count_nonzero(state.offline_mask) == 4
    return state


def test_borrowing_keeps_dead_machines_offline():
    state = failure_storm()
    grown, _ = ExchangeLedger.borrow(state, make_exchange_machines(state, 2))
    np.testing.assert_array_equal(grown.offline_mask[: state.num_machines], state.offline_mask)
    assert not grown.offline_mask[state.num_machines :].any()
    grown.validate()


def test_exchange_episode_places_nothing_on_dead_machines():
    state = failure_storm()
    dead = np.flatnonzero(state.offline_mask)
    rebalancer = ResourceExchangeRebalancer(
        SRA(SRAConfig(alns=AlnsConfig(iterations=100, seed=1))), exchange_machines=2
    )
    report = rebalancer.run(state)
    assert report.result.feasible
    assert not np.isin(report.result.target_assignment, dead).any()


def test_pool_episode_keeps_offline_machines_either_way():
    """``exchange_episode`` settles a feasible episode and hands back an
    infeasible one; both leave the same machines offline."""
    machines = Machine.homogeneous(5, 10.0)
    state = ClusterState(machines, Shard.uniform(8, 1.0), [0, 0, 1, 1, 2, 2, 3, 3])
    state.set_offline(4)
    lent = make_exchange_machines(state, 1)
    settled, result = exchange_episode(state, NoopRebalancer(), lent)
    assert result.feasible
    stuck, result = exchange_episode(state, NoopRebalancer(), lent, required_returns=3)
    assert not result.feasible
    for after in (settled, stuck):
        np.testing.assert_array_equal(after.offline_mask, state.offline_mask)
        after.validate()
