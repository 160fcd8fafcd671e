"""Integration tests for the public facade (ResourceExchangeRebalancer)."""

import numpy as np
import pytest

from repro import (
    GreedyRebalancer,
    RebalanceReport,
    ResourceExchangeRebalancer,
    SRA,
    SRAConfig,
)
from repro.algorithms import AlnsConfig
from repro.workloads import SyntheticConfig, generate


def quick_sra(iterations=300, seed=0):
    return SRA(SRAConfig(alns=AlnsConfig(iterations=iterations, seed=seed)))


@pytest.fixture(scope="module")
def state():
    return generate(
        SyntheticConfig(
            num_machines=15,
            shards_per_machine=6,
            target_utilization=0.8,
            placement_skew=0.55,
            max_shard_fraction=0.35,
            seed=8,
        )
    )


class TestFacade:
    def test_default_run_improves_balance(self, state):
        report = ResourceExchangeRebalancer(quick_sra()).run(state)
        assert isinstance(report, RebalanceReport)
        assert report.feasible
        assert report.after.peak_utilization <= report.before.peak_utilization + 1e-9
        assert report.peak_improvement >= 0

    def test_exchange_contract_executed(self, state):
        report = ResourceExchangeRebalancer(
            quick_sra(500), exchange_machines=2
        ).run(state)
        assert report.feasible
        assert report.borrowed == 2
        assert report.returned == 2
        assert 0 <= report.exchanged <= 2

    def test_original_state_untouched(self, state):
        before = state.assignment
        ResourceExchangeRebalancer(quick_sra()).run(state)
        np.testing.assert_array_equal(state.assignment, before)

    def test_custom_algorithm(self, state):
        report = ResourceExchangeRebalancer(GreedyRebalancer()).run(state)
        assert report.result.algorithm == "greedy"

    def test_format_table_contains_key_fields(self, state):
        report = ResourceExchangeRebalancer(quick_sra()).run(state)
        text = report.format_table()
        for needle in ("peak before", "peak after", "moves", "borrowed", "returned"):
            assert needle in text

    def test_capacity_scaled_loaners(self, state):
        big = ResourceExchangeRebalancer(
            quick_sra(400), exchange_machines=1, exchange_capacity_scale=2.0
        ).run(state)
        assert big.feasible

    def test_required_returns_less_than_borrowed(self, state):
        # Borrow 2, return only 1 -> net +1 machine stays (cluster grows).
        report = ResourceExchangeRebalancer(
            quick_sra(400), exchange_machines=2, required_returns=1
        ).run(state)
        assert report.feasible
        assert report.returned == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="exchange_machines"):
            ResourceExchangeRebalancer(exchange_machines=-1)
        with pytest.raises(ValueError, match="required_returns"):
            ResourceExchangeRebalancer(required_returns=-1)

    def test_unknown_return_policy_rejected(self, state):
        with pytest.raises(ValueError, match="return_policy"):
            ResourceExchangeRebalancer(exchange_machines=1, return_policy="Count")

    def test_migration_summary_consistent(self, state):
        report = ResourceExchangeRebalancer(quick_sra()).run(state)
        changed = int(
            np.sum(report.result.target_assignment != np.concatenate(
                [state.assignment]
            ))
        )
        assert report.migration.num_moves == changed
