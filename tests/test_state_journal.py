"""Transaction (snapshot frame) tests for ClusterState.

The delta-evaluated ALNS loop mutates the incumbent in place and rolls
back rejected candidates, so these tests pin the contract the search
relies on (docs/ARCHITECTURE.md, "Delta evaluation contract"):

* rollback restores every observable — assignment, loads, counts, peak
  cache, vacancy, blocking, replica conflicts — **bitwise**, on small
  fleets and on a fleet of thousands of machines alike;
* commit keeps the mutation and leaves every incremental cache equal to
  a from-scratch recomputation (``validate()`` audits all of them);
* ``with state.transaction():`` rolls back on every exit that did not
  ``commit()``, exceptions included, and the engine's iteration leaves
  no frame open when an operator raises;
* real destroy/repair operator pairs ride transactions cleanly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.destroy import DEFAULT_DESTROY_OPS, exchange_swap_removal
from repro.algorithms.lns import AlnsConfig, AlnsEngine
from repro.algorithms.objective import Objective
from repro.algorithms.repair import DEFAULT_REPAIR_OPS
from repro.cluster import ClusterState, Machine, Shard
from repro.workloads.replicated import ReplicatedConfig, generate_replicated
from repro.workloads.synthetic import SyntheticConfig, generate

class Boom(Exception):
    """Raised by test bodies and operators to exercise exception exits."""


def synthetic_state(seed=0, m=8, spm=5):
    return generate(
        SyntheticConfig(
            num_machines=m,
            shards_per_machine=spm,
            target_utilization=0.8,
            seed=seed,
        )
    )


def replicated_state(seed=2):
    return generate_replicated(
        ReplicatedConfig(
            base=SyntheticConfig(num_machines=8, shards_per_machine=4, seed=seed),
            replication_factor=2,
        )
    )


def observables(state: ClusterState) -> dict:
    return {
        "assignment": state.assignment,
        "loads": state.loads.copy(),
        "counts": state.shard_counts().copy(),
        "peaks": state.machine_peak_utilization().copy(),
        "peak": state.peak_utilization(),
        "vacant": state.num_vacant_in_service,
        "vacant_ids": state.vacant_machines().tolist(),
        "unassigned": state.unassigned_shards().tolist(),
        "blocked": state.blocked_mask.copy(),
        "conflicts": state.replica_conflicts(),
        "conflict_count": state.replica_conflict_count,
    }


def assert_observables_equal(a: dict, b: dict) -> None:
    """Bitwise equality — what rollback guarantees (value restore)."""
    for key in a:
        got, want = a[key], b[key]
        if isinstance(want, np.ndarray):
            # Bitwise: array_equal, not allclose.
            assert np.array_equal(got, want), key
        else:
            assert got == want, key


def assert_observables_consistent(a: dict, b: dict) -> None:
    """Committed caches vs a from-scratch rebuild: structural observables
    are exact; accumulated floats (loads, peaks) agree to accumulation
    round-off — a committed delta sums demands in move order, a rebuild
    sums them in shard order."""
    for key in a:
        got, want = a[key], b[key]
        if isinstance(want, np.ndarray) and want.dtype.kind == "f":
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        elif isinstance(want, np.ndarray):
            assert np.array_equal(got, want), key
        elif isinstance(want, float):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), key
        else:
            assert got == want, key


class TestTransactionBasics:
    def test_rollback_restores_single_ops(self):
        state = synthetic_state()
        before = observables(state)
        shard = int(np.flatnonzero(state.assignment_view() >= 0)[0])
        other = (state.machine_of(shard) + 1) % state.num_machines
        state.begin()
        state.move(shard, other)
        state.unassign(shard + 1)
        state.assign_shard(shard + 1, other)
        state.rollback()
        assert_observables_equal(observables(state), before)
        state.validate()

    def test_commit_keeps_changes_and_caches(self):
        state = synthetic_state()
        shard = int(np.flatnonzero(state.assignment_view() >= 0)[0])
        other = (state.machine_of(shard) + 1) % state.num_machines
        state.begin()
        state.move(shard, other)
        state.commit()
        assert state.machine_of(shard) == other
        state.validate()
        # Caches equal a from-scratch rebuild on an identical twin.
        twin = synthetic_state()
        twin.apply_assignment(state.assignment)
        assert_observables_consistent(observables(state), observables(twin))

    def test_nested_begin_rejected(self):
        state = synthetic_state()
        state.begin()
        with pytest.raises(RuntimeError, match="transaction"):
            state.begin()
        state.rollback()

    def test_commit_and_rollback_require_transaction(self):
        state = synthetic_state()
        with pytest.raises(RuntimeError, match="without begin"):
            state.commit()
        with pytest.raises(RuntimeError, match="without begin"):
            state.rollback()

    def test_copy_and_apply_assignment_refused_in_transaction(self):
        state = synthetic_state()
        state.begin()
        with pytest.raises(RuntimeError, match="transaction"):
            state.copy()
        with pytest.raises(RuntimeError, match="transaction"):
            state.apply_assignment(state.assignment)
        state.rollback()

    def test_blocking_rolls_back(self):
        state = synthetic_state()
        before = observables(state)
        state.begin()
        state.unassign_many([int(j) for j in state.machine_shards(0)])
        state.block_machine(0)
        state.unassign_many([int(j) for j in state.machine_shards(1)])
        state.rollback()
        assert_observables_equal(observables(state), before)
        assert not state.blocked_mask[0]
        state.validate()


class TestTransactionContext:
    """``state.transaction()``: the one way code outside cluster/state.py
    opens a frame (lint rule REP003 flags a bare ``begin()``)."""

    @staticmethod
    def mutate(state, seed=7):
        """A destroy/repair round plus a blocked machine, in the frame."""
        rng = np.random.default_rng(seed)
        removed = DEFAULT_DESTROY_OPS[0](state, rng, 6)
        DEFAULT_REPAIR_OPS[0](state, rng, removed)
        state.unassign_many([int(j) for j in state.machine_shards(0)])
        state.block_machine(0)

    def test_exception_propagates_and_rolls_back(self):
        state = replicated_state()
        before = observables(state)
        with pytest.raises(Boom), state.transaction():
            self.mutate(state)
            raise Boom
        assert not state.in_transaction
        assert_observables_equal(observables(state), before)
        state.validate()

    def test_exit_without_commit_rolls_back(self):
        state = replicated_state()
        before = observables(state)
        with state.transaction():
            self.mutate(state)
            assert state.blocked_mask[0]
        assert not state.in_transaction
        assert_observables_equal(observables(state), before)
        state.validate()

    def test_commit_keeps_mutations(self):
        state = replicated_state()
        with state.transaction():
            self.mutate(state)
            inside = observables(state)
            state.commit()
        assert not state.in_transaction
        assert_observables_equal(observables(state), inside)
        state.validate()
        twin = replicated_state()
        twin.apply_assignment(state.assignment)
        twin.block_machine(0)
        assert_observables_consistent(observables(state), observables(twin))

    def test_exception_after_commit_keeps_mutations(self):
        state = replicated_state()
        with pytest.raises(Boom), state.transaction():
            self.mutate(state)
            inside = observables(state)
            state.commit()
            raise Boom
        assert not state.in_transaction
        assert_observables_equal(observables(state), inside)
        state.validate()

    def test_nested_transaction_rejected_outer_rolls_back(self):
        state = replicated_state()
        before = observables(state)
        with state.transaction():
            self.mutate(state)
            with pytest.raises(RuntimeError, match="transaction"):
                with state.transaction():
                    pytest.fail("nested transaction body ran")
            assert state.in_transaction
        assert not state.in_transaction
        assert_observables_equal(observables(state), before)
        state.validate()

    def test_engine_operator_error_leaves_no_frame(self):
        state = synthetic_state(seed=4)
        before = observables(state)
        fail_at = 5
        seen = {"calls": 0}
        destroy = DEFAULT_DESTROY_OPS[0]

        def recording_destroy(incumbent, rng, q):
            # Called right after begin(): the incumbent is its frame image.
            seen["incumbent"] = incumbent
            seen["image"] = observables(incumbent)
            return destroy(incumbent, rng, q)

        def failing_repair(incumbent, rng, removed):
            seen["calls"] += 1
            DEFAULT_REPAIR_OPS[0](incumbent, rng, removed)
            if seen["calls"] == fail_at:
                raise Boom

        engine = AlnsEngine(
            AlnsConfig(iterations=20, seed=3), [recording_destroy], [failing_repair]
        )
        with pytest.raises(Boom):
            engine.run(state, Objective(state.assignment, state.sizes))
        assert seen["calls"] == fail_at
        assert not state.in_transaction
        assert_observables_equal(observables(state), before)
        state.validate()
        # The engine's own incumbent was rolled back to its iteration-k
        # image too, not left with an open frame.
        incumbent = seen["incumbent"]
        assert incumbent is not state
        assert not incumbent.in_transaction
        assert_observables_equal(observables(incumbent), seen["image"])
        incumbent.validate()


class TestOperatorTransactions:
    @pytest.mark.parametrize("replicated", [False, True])
    def test_destroy_repair_rollback_is_bitwise(self, replicated):
        state = replicated_state() if replicated else synthetic_state(seed=4)
        rng = np.random.default_rng(7)
        for round_idx in range(12):
            before = observables(state)
            destroy = DEFAULT_DESTROY_OPS[round_idx % len(DEFAULT_DESTROY_OPS)]
            repair = DEFAULT_REPAIR_OPS[round_idx % len(DEFAULT_REPAIR_OPS)]
            state.begin()
            removed = destroy(state, rng, int(rng.integers(1, 8)))
            repair(state, rng, removed)
            if round_idx % 3 == 0:
                state.commit()
                state.validate()
            else:
                state.rollback()
                assert_observables_equal(observables(state), before)
                state.validate()

    def test_exchange_swap_blocking_rolls_back(self):
        state = synthetic_state(seed=5)
        for j in state.machine_shards(2):
            state.move(int(j), 3)
        state.block_machine(2)
        before = observables(state)
        rng = np.random.default_rng(3)
        state.begin()
        removed = exchange_swap_removal(state, rng, 4)
        DEFAULT_REPAIR_OPS[0](state, rng, removed)
        state.rollback()
        assert_observables_equal(observables(state), before)
        state.validate()


class TestLargeFleetRollback:
    """Rollback on a fleet of 2,100 machines and 63,000 shards, past
    65,536 state elements (``n + m·d``)."""

    M, SHARDS_PER_MACHINE = 2100, 30

    @classmethod
    def large_state(cls):
        rng = np.random.default_rng(11)
        n = cls.M * cls.SHARDS_PER_MACHINE
        demand = rng.uniform(0.5, 1.5, size=(n, 3))
        shards = [Shard(id=j, demand=demand[j]) for j in range(n)]
        state = ClusterState(Machine.homogeneous(cls.M, 60.0), shards, np.arange(n) % cls.M)
        assert n + state.num_machines * state.dims > 65_536
        return state

    def test_destroy_repair_rollback_is_bitwise(self):
        state = self.large_state()
        rng = np.random.default_rng(5)
        # The first round enters with dirty peak rows at both ends.
        state.move(0, 1)
        state.move(1, state.num_machines - 1)
        for destroy in DEFAULT_DESTROY_OPS[:3]:
            # The expected image comes from a copy, so the state enters
            # the frame with whatever dirty flags the last round left.
            twin = state.copy()
            before = observables(twin)
            with state.transaction():
                removed = destroy(state, rng, 60)
                DEFAULT_REPAIR_OPS[0](state, rng, removed)
                assert state.assignment_drift(before["assignment"])[0] > 0
                state.peak_utilization()  # refreshes peak rows in the frame
            assert_observables_equal(observables(state), before)
            state.validate()


class TestJournalProperties:
    @given(
        seed=st.integers(0, 30),
        ops=st.lists(st.integers(0, 99), min_size=1, max_size=25),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_mutation_sequences_roll_back(self, seed, ops):
        machines = Machine.homogeneous(4, 12.0)
        shards = Shard.uniform(10, 1.0)
        state = ClusterState(machines, shards, [j % 4 for j in range(10)])
        rng = np.random.default_rng(seed)
        before = observables(state)
        state.begin()
        for code in ops:
            j = int(rng.integers(state.num_shards))
            i = int(rng.integers(state.num_machines))
            kind = code % 4
            if kind == 0:
                if state.machine_of(j) >= 0 and not state.blocked_mask[i]:
                    state.move(j, i)
            elif kind == 1:
                if state.machine_of(j) >= 0:
                    state.unassign(j)
            elif kind == 2:
                if state.machine_of(j) < 0 and not state.blocked_mask[i]:
                    state.assign_shard(j, i)
            else:
                if state.blocked_mask[i]:
                    state.unblock_machine(i)
                elif not state.machine_shards(i).size:
                    state.block_machine(i)
        state.rollback()
        assert_observables_equal(observables(state), before)
        state.validate()

    @given(seed=st.integers(0, 30))
    @settings(max_examples=30, deadline=None)
    def test_committed_caches_match_rebuild(self, seed):
        state = replicated_state(seed=seed % 5)
        rng = np.random.default_rng(seed)
        state.begin()
        for _ in range(15):
            j = int(rng.integers(state.num_shards))
            i = int(rng.integers(state.num_machines))
            if state.machine_of(j) >= 0:
                state.move(j, i)
        state.commit()
        state.validate()
        twin = replicated_state(seed=seed % 5)
        twin.apply_assignment(state.assignment)
        assert_observables_consistent(observables(state), observables(twin))
