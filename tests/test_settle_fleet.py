"""Direct tests for settle_fleet (fleet projection after an episode)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterState, ExchangeLedger, Machine, Shard, settle_fleet
from repro.workloads import make_exchange_machines
from tests.oracles.fleet import assert_same_state, degraded_fleets, settled_oracle


def base():
    machines = Machine.homogeneous(3, 10.0)
    shards = Shard.uniform(6, 1.0)
    return ClusterState(machines, shards, [j % 3 for j in range(6)])


class TestSettleFleet:
    def test_untouched_loaners_go_back(self):
        state = base()
        grown, ledger = ExchangeLedger.borrow(state, make_exchange_machines(state, 2))
        slim, settlement, returned = settle_fleet(grown, ledger)
        assert settlement.returned_ids == (3, 4)
        assert len(returned) == 2
        assert slim.num_machines == 3
        np.testing.assert_array_equal(slim.assignment, state.assignment)
        slim.validate()

    def test_exchange_projects_assignment_correctly(self):
        state = base()
        grown, ledger = ExchangeLedger.borrow(state, make_exchange_machines(state, 1))
        # Empty machine 2 onto the borrowed machine 3 -> machine 2 returned.
        for j in list(grown.machine_shards(2)):
            grown.move(int(j), 3)
        slim, settlement, returned = settle_fleet(grown, ledger)
        assert settlement.returned_ids == (2,)
        assert settlement.retained_borrowed_ids == (3,)
        assert slim.num_machines == 3
        # Machine 3 (borrowed) became machine 2 after re-indexing.
        assert {int(j) for j in slim.machine_shards(2)} == {2, 5}
        np.testing.assert_allclose(
            slim.loads.sum(axis=0), grown.loads.sum(axis=0)
        )
        slim.validate()

    def test_returned_machines_carry_capacity(self):
        state = base()
        grown, ledger = ExchangeLedger.borrow(
            state, make_exchange_machines(state, 1, capacity_scale=2.0)
        )
        _, settlement, returned = settle_fleet(grown, ledger)
        np.testing.assert_allclose(
            returned[0].capacity, 2.0 * state.capacity.mean(axis=0)
        )

    def test_zero_borrow_roundtrip(self):
        state = base()
        grown, ledger = ExchangeLedger.borrow(state, [])
        slim, settlement, returned = settle_fleet(grown, ledger)
        assert returned == []
        assert slim.num_machines == 3

    def test_unsatisfiable_contract_raises(self):
        state = base()
        grown, ledger = ExchangeLedger.borrow(state, make_exchange_machines(state, 1))
        grown.move(0, 3)  # no vacant machine anywhere
        with pytest.raises(Exception, match="vacant"):
            settle_fleet(grown, ledger)

    def test_kept_offline_machine_stays_offline(self):
        machines = Machine.homogeneous(4, 10.0)
        state = ClusterState(machines, Shard.uniform(6, 1.0), [0, 0, 2, 2, 3, 3])
        state.set_offline(1)
        grown, ledger = ExchangeLedger.borrow(state, make_exchange_machines(state, 1))
        for j in grown.machine_shards(0).tolist():
            grown.move(j, 4)  # machine 0 empties and is returned instead
        slim, settlement, _ = settle_fleet(grown, ledger)
        assert settlement.returned_ids == (0,)
        assert slim.offline_mask.tolist() == [True, False, False, False]
        assert slim.blocked_mask.tolist() == [True, False, False, False]
        slim.validate()


class TestSettleOnArrays:
    """``settle_fleet`` drops the returned machines from the final
    state's arrays; the constructor (``tests/oracles/fleet.py``) is its
    oracle."""

    @given(degraded_fleets(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_settle_matches_constructor(self, case, data):
        parent, extra = case
        grown, ledger = ExchangeLedger.borrow(parent, extra)
        open_ids = np.flatnonzero(~grown.blocked_mask).tolist()
        if open_ids:
            for shard in data.draw(st.lists(st.integers(0, grown.num_shards - 1), max_size=8)):
                grown.move(shard, data.draw(st.sampled_from(open_ids)))
        # Returning every machine would leave no fleet (the constructor
        # raises there too).
        vacant = ledger.candidate_returns(grown).size
        owed = data.draw(st.integers(0, min(vacant, grown.num_machines - 1)))
        ledger = replace(ledger, required_returns=owed)
        slim, settlement, returned = settle_fleet(grown, ledger)
        assert_same_state(slim, settled_oracle(grown, settlement.returned_ids))
        assert [mach.id for mach in returned] == list(settlement.returned_ids)
        assert slim.shards is grown.shards and slim.demand is grown.demand

    def test_without_machines_rejects_bad_input(self):
        state = base()
        with pytest.raises(ValueError, match="host shards"):
            state.without_machines([1])
        with pytest.raises(ValueError, match="unknown"):
            state.without_machines([3])
        lone = ClusterState(Machine.homogeneous(1, 10.0), Shard.uniform(1, 1.0))
        with pytest.raises(ValueError, match="at least one machine"):
            lone.without_machines([0])
        with state.transaction():
            with pytest.raises(RuntimeError):
                state.without_machines([])
