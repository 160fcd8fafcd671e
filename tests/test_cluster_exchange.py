"""Unit tests for the exchange ledger (borrow / vacancy-return contract)."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterState,
    ExchangeLedger,
    ExchangeViolation,
    Machine,
    Shard,
)


def base_state():
    machines = Machine.homogeneous(3, 10.0)
    shards = Shard.uniform(6, 1.0)
    return ClusterState(machines, shards, [j % 3 for j in range(6)])


def borrowable(k, cap=10.0):
    return [Machine(id=0, capacity=np.full(3, cap), exchange=True) for _ in range(k)]


class TestBorrow:
    def test_borrow_augments_state(self):
        state = base_state()
        grown, ledger = ExchangeLedger.borrow(state, borrowable(2))
        assert grown.num_machines == 5
        assert ledger.borrowed_ids == (3, 4)
        assert ledger.required_returns == 2
        # original untouched
        assert state.num_machines == 3

    def test_borrowed_machines_start_vacant(self):
        grown, _ = ExchangeLedger.borrow(base_state(), borrowable(2))
        assert set(grown.vacant_machines()) == {3, 4}

    def test_borrow_zero_machines(self):
        grown, ledger = ExchangeLedger.borrow(base_state(), [])
        assert grown.num_machines == 3
        assert ledger.num_borrowed == 0
        assert ledger.required_returns == 0

    def test_custom_required_returns(self):
        _, ledger = ExchangeLedger.borrow(base_state(), borrowable(3), required_returns=1)
        assert ledger.required_returns == 1

    def test_negative_returns_rejected(self):
        with pytest.raises(ValueError, match="required_returns"):
            ExchangeLedger.borrow(base_state(), borrowable(1), required_returns=-1)

    @pytest.mark.parametrize("policy", ["Count", "bogus", ""])
    def test_unknown_return_policy_rejected(self, policy):
        with pytest.raises(ValueError, match="policy"):
            ExchangeLedger.borrow(base_state(), borrowable(1), policy=policy)

    def test_borrowed_capacity(self):
        _, ledger = ExchangeLedger.borrow(base_state(), borrowable(2, cap=7.0))
        np.testing.assert_allclose(ledger.borrowed_capacity(), 14.0)


class TestReturnSelection:
    def test_untouched_borrowed_machines_are_returned_first(self):
        grown, ledger = ExchangeLedger.borrow(base_state(), borrowable(2))
        returns = ledger.select_returns(grown)
        assert set(returns) == {3, 4}

    def test_exchange_returns_emptied_service_machine(self):
        grown, ledger = ExchangeLedger.borrow(base_state(), borrowable(1))
        # Empty machine 2 by moving its shards onto the borrowed machine 3.
        for sh in list(grown.machine_shards(2)):
            grown.move(int(sh), 3)
        returns = ledger.select_returns(grown)
        assert list(returns) == [2]
        settlement = ledger.settle(grown)
        assert settlement.returned_ids == (2,)
        assert settlement.retained_borrowed_ids == (3,)

    def test_violation_when_not_enough_vacant(self):
        grown, ledger = ExchangeLedger.borrow(base_state(), borrowable(1))
        grown.move(0, 3)  # dirty the borrowed machine, nothing is vacant
        with pytest.raises(ExchangeViolation, match="vacant"):
            ledger.select_returns(grown)
        assert not ledger.is_satisfiable(grown)

    def test_is_satisfiable_true_case(self):
        grown, ledger = ExchangeLedger.borrow(base_state(), borrowable(1))
        assert ledger.is_satisfiable(grown)


class TestCapacityPolicy:
    def test_capacity_policy_needs_dominating_return(self):
        state = base_state()
        grown, ledger = ExchangeLedger.borrow(
            state, borrowable(1, cap=20.0), policy="capacity"
        )
        # Empty machine 2 (capacity 10) — count ok but capacity too small,
        # so the borrowed machine itself (still vacant? no: fill it) ...
        for sh in list(grown.machine_shards(2)):
            grown.move(int(sh), 3)
        with pytest.raises(ExchangeViolation, match="capacity"):
            ledger.select_returns(grown)

    def test_capacity_policy_accumulates_multiple_machines(self):
        state = base_state()
        grown, ledger = ExchangeLedger.borrow(
            state, borrowable(1, cap=15.0), policy="capacity"
        )
        # Empty machines 1 and 2 (10 + 10 >= 15) onto the borrowed machine.
        for mid in (1, 2):
            for sh in list(grown.machine_shards(mid)):
                grown.move(int(sh), 3)
        returns = ledger.select_returns(grown)
        assert set(returns) == {1, 2}

    def test_capacity_policy_trivial_with_untouched_loaner(self):
        grown, ledger = ExchangeLedger.borrow(
            base_state(), borrowable(1, cap=15.0), policy="capacity"
        )
        assert list(ledger.select_returns(grown)) == [3]
