"""Unit and property tests for ClusterState.

The property tests pin the invariants every algorithm relies on:
load conservation under arbitrary move sequences, and agreement between
incremental load updates and a from-scratch recomputation.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import UNASSIGNED, ClusterState, Machine, ResourceSchema, Shard
from tests.oracles.fleet import assert_same_state, degraded_fleets, grown_oracle
from tests.oracles.loads import added_loads


def small_cluster(m=3, n=6, cap=10.0, dem=1.0):
    machines = Machine.homogeneous(m, cap)
    shards = Shard.uniform(n, dem)
    assignment = [j % m for j in range(n)]
    return ClusterState(machines, shards, assignment)


class TestConstruction:
    def test_round_robin_loads(self):
        state = small_cluster()
        np.testing.assert_allclose(state.loads, 2.0)
        assert state.num_machines == 3
        assert state.num_shards == 6

    def test_default_assignment_is_unassigned(self):
        state = ClusterState(Machine.homogeneous(2, 5.0), Shard.uniform(3, 1.0))
        assert list(state.assignment) == [UNASSIGNED] * 3
        np.testing.assert_allclose(state.loads, 0.0)

    def test_requires_machines_and_shards(self):
        with pytest.raises(ValueError, match="at least one machine"):
            ClusterState([], Shard.uniform(1, 1.0))
        with pytest.raises(ValueError, match="at least one shard"):
            ClusterState(Machine.homogeneous(1, 1.0), [])

    def test_rejects_nondense_machine_ids(self):
        machines = [Machine(id=1, capacity=np.ones(3))]
        with pytest.raises(ValueError, match="dense"):
            ClusterState(machines, Shard.uniform(1, 1.0))

    def test_rejects_mixed_schemas(self):
        from repro.cluster import ResourceSchema

        machines = Machine.homogeneous(1, 1.0)
        odd = Shard(id=0, demand=np.ones(2), schema=ResourceSchema(("cpu", "ram")))
        with pytest.raises(ValueError, match="schema"):
            ClusterState(machines, [odd])

    def test_rejects_out_of_range_assignment(self):
        with pytest.raises(ValueError, match="unknown machines"):
            ClusterState(Machine.homogeneous(2, 5.0), Shard.uniform(2, 1.0), [0, 5])

    def test_rejects_wrong_length_assignment(self):
        with pytest.raises(ValueError, match="shape"):
            ClusterState(Machine.homogeneous(2, 5.0), Shard.uniform(2, 1.0), [0])

    def test_overloaded_input_is_accepted(self):
        # Rebalancer inputs may violate capacity; construction must not reject.
        state = ClusterState(
            Machine.homogeneous(2, 1.0), Shard.uniform(4, 1.0), [0, 0, 0, 0]
        )
        assert not state.is_within_capacity()
        assert list(state.overloaded_machines()) == [0]


class TestMutation:
    def test_move_updates_loads_incrementally(self):
        state = small_cluster()
        src = state.move(0, 2)
        assert src == 0
        assert state.machine_of(0) == 2
        np.testing.assert_allclose(state.loads[:, 0], [1.0, 2.0, 3.0])

    def test_unassign_then_assign(self):
        state = small_cluster()
        state.unassign(0)
        assert state.machine_of(0) == UNASSIGNED
        assert list(state.unassigned_shards()) == [0]
        state.assign_shard(0, 1)
        assert state.machine_of(0) == 1

    def test_double_assign_rejected(self):
        state = small_cluster()
        with pytest.raises(ValueError, match="already on machine"):
            state.assign_shard(0, 1)

    def test_assign_unknown_machine_rejected(self):
        state = small_cluster()
        state.unassign(0)
        with pytest.raises(ValueError, match="unknown machine"):
            state.assign_shard(0, 99)

    @pytest.mark.parametrize("shard", [-1, -6, 6, 99])
    def test_unknown_shard_rejected_by_every_mutator(self, shard):
        # A negative id used to wrap around to shard n + id.
        state = small_cluster()
        before = state.assignment
        with pytest.raises(ValueError, match="unknown shard"):
            state.move(shard, 0)
        with pytest.raises(ValueError, match="unknown shard"):
            state.unassign(shard)
        with pytest.raises(ValueError, match="unknown shard"):
            state.assign_shard(shard, 0)
        with pytest.raises(ValueError, match="unknown shards"):
            state.unassign_many([1, shard])
        assert np.array_equal(state.assignment, before)
        state.validate()

    @pytest.mark.parametrize("machine", [-1, 3])
    def test_machine_shards_rejects_unknown_machine(self, machine):
        # machine_shards(-1) used to list the unassigned shards.
        state = small_cluster()
        state.unassign(0)
        with pytest.raises(ValueError, match="unknown machine"):
            state.machine_shards(machine)

    @pytest.mark.parametrize("dst,needle", [(99, "unknown machine"), (7, "blocked")])
    def test_failed_move_leaves_state_untouched(self, dst, needle):
        # move() used to unassign the shard before checking dst.
        state = small_cluster(m=8, n=6)  # machines 6 and 7 start vacant
        state.block_machine(7)
        before = (
            [state.machine_of(j) for j in range(state.num_shards)],
            state.loads.copy(),
            state.shard_counts().copy(),
            state.peak_utilization(),
        )
        with pytest.raises(ValueError, match=needle):
            state.move(0, dst)
        after = (
            [state.machine_of(j) for j in range(state.num_shards)],
            state.loads,
            state.shard_counts(),
            state.peak_utilization(),
        )
        assert after[0] == before[0]
        assert after[1].tobytes() == before[1].tobytes()
        assert after[2].tobytes() == before[2].tobytes()
        assert after[3] == before[3]
        assert state.is_fully_assigned()
        state.validate()

    def test_unassign_unassigned_is_noop(self):
        state = ClusterState(Machine.homogeneous(1, 5.0), Shard.uniform(1, 1.0))
        assert state.unassign(0) == UNASSIGNED

    def test_apply_assignment_recomputes(self):
        state = small_cluster()
        state.apply_assignment(np.zeros(6, dtype=np.int64))
        np.testing.assert_allclose(state.loads[:, 0], [6.0, 0.0, 0.0])


class TestQueries:
    def test_utilization_and_peak(self):
        state = small_cluster(cap=4.0)
        np.testing.assert_allclose(state.utilization(), 0.5)
        assert state.peak_utilization() == 0.5

    def test_headroom(self):
        state = small_cluster(cap=4.0)
        np.testing.assert_allclose(state.headroom(), 2.0)

    def test_machine_shards(self):
        state = small_cluster()
        assert list(state.machine_shards(0)) == [0, 3]

    def test_shard_counts_and_vacancy(self):
        state = ClusterState(
            Machine.homogeneous(3, 10.0), Shard.uniform(2, 1.0), [0, 0]
        )
        assert list(state.shard_counts()) == [2, 0, 0]
        assert list(state.vacant_machines()) == [1, 2]

    def test_fits_accounts_for_current_placement(self):
        state = ClusterState(Machine.homogeneous(2, 1.0), Shard.uniform(2, 1.0), [0, 1])
        assert state.fits(0, 0)  # already there, machine exactly full
        assert not state.fits(0, 1)  # target already full

    @pytest.mark.parametrize("shard", [-1, 6])
    @pytest.mark.parametrize(
        "query", ["machine_of", "fits", "replica_peers", "replica_peer_machines"]
    )
    def test_unknown_shard_rejected_by_queries(self, query, shard):
        # A negative id used to wrap: machine_of(-1) gave shard n-1's host.
        state = small_cluster()  # 6 shards
        args = (shard, 0) if query == "fits" else (shard,)
        with pytest.raises(ValueError, match=f"unknown shard {shard}"):
            getattr(state, query)(*args)

    @pytest.mark.parametrize("machine", [-1, 3])
    def test_fits_rejects_unknown_machine(self, machine):
        state = small_cluster()  # 3 machines
        with pytest.raises(ValueError, match=f"unknown machine {machine}"):
            state.fits(0, machine)

    def test_mean_utilization(self):
        state = small_cluster(m=2, n=4, cap=4.0, dem=1.0)
        np.testing.assert_allclose(state.mean_utilization(), 0.5)

    def test_is_fully_assigned(self):
        state = small_cluster()
        assert state.is_fully_assigned()
        state.unassign(0)
        assert not state.is_fully_assigned()


class TestCopyAndExtend:
    def test_copy_is_independent(self):
        state = small_cluster()
        dup = state.copy()
        dup.move(0, 2)
        assert state.machine_of(0) == 0
        assert dup.machine_of(0) == 2

    def test_copy_shares_descriptions(self):
        state = small_cluster()
        dup = state.copy()
        assert dup.machines is state.machines
        assert dup.capacity is state.capacity

    def test_with_extra_machines_appends_and_preserves(self):
        state = small_cluster()
        extra = Machine(id=0, capacity=np.full(3, 20.0), exchange=True)
        grown = state.with_extra_machines([extra])
        assert grown.num_machines == 4
        assert grown.machines[3].id == 3
        assert grown.machines[3].exchange
        np.testing.assert_allclose(grown.loads[:3], state.loads)
        assert list(grown.exchange_mask) == [False, False, False, True]


# --------------------------------------------------------------------------
# Property tests
# --------------------------------------------------------------------------

@st.composite
def cluster_and_moves(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=20))
    dems = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    machines = Machine.homogeneous(m, 100.0)
    shards = [Shard(id=j, demand=np.full(3, d)) for j, d in enumerate(dems)]
    assignment = draw(
        st.lists(st.integers(min_value=0, max_value=m - 1), min_size=n, max_size=n)
    )
    moves = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=m - 1),
            ),
            max_size=30,
        )
    )
    return machines, shards, assignment, moves


@given(cluster_and_moves())
@settings(max_examples=60, deadline=None)
def test_property_loads_match_recompute_after_moves(data):
    """Incremental load updates always agree with a from-scratch recompute."""
    machines, shards, assignment, moves = data
    state = ClusterState(machines, shards, assignment)
    for shard_id, dst in moves:
        state.move(shard_id, dst)
    fresh = ClusterState(machines, shards, state.assignment)
    np.testing.assert_allclose(state.loads, fresh.loads, atol=1e-9)


class TestSoAMirrors:
    def test_loads_by_dim_tracks_mutations(self):
        state = small_cluster()
        assert state.loads_by_dim().flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(state.loads_by_dim(), state.loads.T)
        state.move(0, 2)
        state.unassign(1)
        state.assign_shard(1, 1)
        np.testing.assert_array_equal(state.loads_by_dim(), state.loads.T)
        state.validate()

    def test_loads_by_dim_restored_by_rollback(self):
        state = small_cluster()
        before = state.loads_by_dim().copy()
        state.begin()
        state.move(0, 2)
        state.unassign_many([1, 2])
        state.rollback()
        np.testing.assert_array_equal(state.loads_by_dim(), before)
        state.validate()

    def test_capacity_mirrors_shared_across_copies(self):
        state = small_cluster()
        inv = state.inv_capacity_by_dim()
        np.testing.assert_array_equal(inv, (1.0 / state.capacity).T)
        clone = state.copy()
        assert clone.capacity_by_dim() is state.capacity_by_dim()
        assert clone.inv_capacity_by_dim() is inv

    def test_block_max_peak_after_partial_updates(self):
        # Exercise the lazy peak refresh: dirty one machine, read the
        # peak, then dirty another and read again — both reads must equal
        # the full recompute.
        state = small_cluster(m=5, n=10, cap=10.0, dem=2.0)
        for shard, dst in ((0, 4), (1, 3), (2, 4)):
            state.move(shard, dst)
            expected = float((state.loads / state.capacity).max())
            assert state.peak_utilization() == expected
        state.validate()


@given(cluster_and_moves())
@settings(max_examples=60, deadline=None)
def test_property_total_load_is_conserved(data):
    """Moves never create or destroy demand."""
    machines, shards, assignment, moves = data
    state = ClusterState(machines, shards, assignment)
    before = state.loads.sum(axis=0).copy()
    for shard_id, dst in moves:
        state.move(shard_id, dst)
    np.testing.assert_allclose(state.loads.sum(axis=0), before, atol=1e-9)
    np.testing.assert_allclose(before, state.total_demand(), atol=1e-9)


class TestGrowOnArrays:
    """``with_extra_machines`` builds from the parent's arrays; the
    constructor (``tests/oracles/fleet.py``) is its oracle."""

    @given(degraded_fleets())
    @settings(max_examples=80, deadline=None)
    def test_grow_matches_constructor(self, case):
        parent, extra = case
        grown = parent.with_extra_machines(extra)
        assert_same_state(grown, grown_oracle(parent, extra))
        assert grown.shards is parent.shards
        assert grown.demand is parent.demand and grown.sizes is parent.sizes
        assert grown.replica_groups is parent.replica_groups

    def test_grow_carries_masks_and_opens_new_machines(self):
        state = small_cluster(m=4, n=6)
        for j in state.machine_shards(3).tolist():
            state.move(j, 0)
        state.set_offline(3)
        for j in state.machine_shards(2).tolist():
            state.move(j, 1)
        state.block_machine(2)
        grown = state.with_extra_machines(Machine.homogeneous(2, 10.0))
        assert grown.offline_mask.tolist() == [False, False, False, True, False, False]
        assert grown.blocked_mask.tolist() == [False, False, True, True, False, False]
        assert grown.num_vacant_in_service == 3
        grown.move(0, 5)  # a new machine is open

    def test_grow_rejects_open_transaction_and_foreign_schema(self):
        state = small_cluster()
        with state.transaction():
            with pytest.raises(RuntimeError):
                state.with_extra_machines([])
        other = ResourceSchema(("cpu",))
        with pytest.raises(ValueError, match="schema"):
            state.with_extra_machines([Machine(id=0, capacity=np.ones(1), schema=other)])


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_rebuilt_loads_equal_add_at_bitwise(data):
    """Loads built from scratch (one ``np.bincount`` per dimension) are
    bitwise what ``np.add.at`` gives, however the demands round."""
    m = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 40))
    level = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
    shards = [
        Shard(id=j, demand=np.array(data.draw(st.lists(level, min_size=3, max_size=3))))
        for j in range(n)
    ]
    host = st.sampled_from([UNASSIGNED, *range(m)])
    assignment = np.array([data.draw(host) for _ in range(n)])
    state = ClusterState(Machine.homogeneous(m, 1.0), shards, assignment)
    want = added_loads(assignment, state.demand, m)
    assert state.loads.tobytes() == want.tobytes()
    assert state.loads_by_dim().tobytes() == np.ascontiguousarray(want.T).tobytes()
    state.validate()


# --------------------------------------------------------------------------
# Read-only accessors
# --------------------------------------------------------------------------

#: Every public array accessor -> the private array it shows (``loads``
#: shows the transpose of ``_loads_t``, see :func:`private`).
ACCESSORS = {
    "capacity": "_capacity",
    "demand": "_demand",
    "sizes": "_sizes",
    "loads": "_loads_t",
    "exchange_mask": "_exchange_mask",
    "blocked_mask": "_blocked",
    "offline_mask": "_offline",
    "assignment_view": "_assign",
    "normalized_demand": "_norm_demand",
    "loads_by_dim": "_loads_t",
    "capacity_by_dim": "_cap_t",
    "inv_capacity_by_dim": "_inv_cap_t",
    "shard_counts": "_counts",
    "machine_peak_utilization": "_peak",
}


def read(state, name):
    value = getattr(state, name)
    return value() if callable(value) else value


def private(state, name):
    """The private array accessor *name* shows, in the accessor's shape."""
    arr = getattr(state, ACCESSORS[name])
    return arr.T if name == "loads" else arr


def assert_accessors_live(state):
    """Every accessor hands out a read-only array that shares memory
    with, and equals, the live private array (dirty peak rows refreshed
    first)."""
    state.machine_peak_utilization()
    # One load array: ``loads`` is the transpose of ``loads_by_dim()``.
    assert np.shares_memory(state.loads, state.loads_by_dim())
    for name in ACCESSORS:
        arr = read(state, name)
        assert not arr.flags.writeable, name
        assert np.shares_memory(arr, getattr(state, ACCESSORS[name])), name
        assert np.array_equal(arr, private(state, name)), name


def assert_follows(state, name):
    """The array *name* handed out before a run of mutations still shows
    the live data after each: moves, blocking, a rolled-back transaction
    and a machine taken offline."""
    held = read(state, name)
    open_vacant = np.flatnonzero((state.shard_counts() == 0) & ~state.blocked_mask)
    with state.transaction():
        state.move(0, state.machine_of(1))
        state.block_machine(int(open_vacant[0]))
        assert_accessors_live(state)
        assert np.array_equal(held, private(state, name))
    assert_accessors_live(state)
    assert np.array_equal(held, private(state, name))
    state.move(0, state.machine_of(1))
    state.set_offline(int(open_vacant[0]))
    assert_accessors_live(state)
    assert np.array_equal(held, private(state, name))
    state.validate()


class TestReadOnlyAccessors:
    @pytest.mark.parametrize("name", sorted(ACCESSORS))
    def test_accessor_is_read_only(self, name):
        state = small_cluster(m=24, n=8)  # machines 8..23 start vacant
        arr = read(state, name)
        assert arr.flags.writeable is False
        first = (0,) * arr.ndim
        for write in (
            lambda: arr.__setitem__(first, arr[first]),
            lambda: arr.fill(arr[first]),
            lambda: np.copyto(arr, arr.copy()),
        ):
            with pytest.raises(ValueError, match="read-only"):
                write()
        assert_follows(state, name)
        dup = state.copy()
        assert_follows(dup, name)
        dup.apply_assignment(dup.assignment)
        assert_follows(dup, name)
        lent = [Machine(id=0, capacity=np.full(3, 10.0), exchange=True)] * 2
        grown = dup.with_extra_machines(lent)
        assert_follows(grown, name)
        vacant = np.flatnonzero((grown.shard_counts() == 0) & ~grown.blocked_mask)
        settled = grown.without_machines(vacant[:1])
        assert_follows(settled, name)
        assert_follows(pickle.loads(pickle.dumps(settled)), name)

    @given(degraded_fleets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pickle_round_trip_keeps_views_live(self, case, data):
        """An unpickled state's accessors follow its own arrays: numpy
        pickles a view as an independent copy, so the views are rebuilt
        on load."""
        parent, _ = case
        state = pickle.loads(pickle.dumps(parent))
        assert_accessors_live(state)
        open_ids = np.flatnonzero(~state.blocked_mask).tolist()
        if open_ids:
            moves = st.tuples(st.integers(0, state.num_shards - 1), st.sampled_from(open_ids))
            for shard, dst in data.draw(st.lists(moves, max_size=8)):
                state.move(shard, dst)
            with state.transaction():
                for shard, dst in data.draw(st.lists(moves, min_size=1, max_size=8)):
                    state.move(shard, dst)
                assert_accessors_live(state)
        state.validate()
        assert_accessors_live(state)
