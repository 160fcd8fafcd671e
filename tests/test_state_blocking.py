"""Tests for machine blocking and offline semantics in ClusterState."""

import pytest

from repro.cluster import ClusterState, Machine, Shard


def state3():
    machines = Machine.homogeneous(3, 10.0)
    shards = Shard.uniform(3, 1.0)
    return ClusterState(machines, shards, [0, 1, 2])


class TestBlocking:
    def test_block_vacant_machine(self):
        st = state3()
        st.move(2, 0)
        st.block_machine(2)
        assert st.blocked_mask[2]
        assert not st.blocked_mask[0]

    def test_block_occupied_machine_rejected(self):
        st = state3()
        with pytest.raises(ValueError, match="hosts shards"):
            st.block_machine(1)

    def test_assign_to_blocked_rejected(self):
        st = state3()
        st.move(2, 0)
        st.block_machine(2)
        with pytest.raises(ValueError, match="blocked"):
            st.move(0, 2)

    def test_unblock_restores_placement(self):
        st = state3()
        st.move(2, 0)
        st.block_machine(2)
        st.unblock_machine(2)
        st.move(0, 2)  # now fine
        assert st.machine_of(0) == 2

    def test_unknown_ids_rejected(self):
        st = state3()
        with pytest.raises(ValueError, match="unknown machine"):
            st.block_machine(9)
        with pytest.raises(ValueError, match="unknown machine"):
            st.unblock_machine(9)
        with pytest.raises(ValueError, match="unknown machine"):
            st.set_offline(9)

    def test_copy_preserves_blocking(self):
        st = state3()
        st.move(2, 0)
        st.block_machine(2)
        dup = st.copy()
        assert dup.blocked_mask[2]
        dup.unblock_machine(2)
        assert st.blocked_mask[2]  # independent


class TestOffline:
    def test_offline_implies_blocked(self):
        st = state3()
        st.move(2, 0)
        st.set_offline(2)
        assert st.offline_mask[2]
        assert st.blocked_mask[2]

    def test_offline_occupied_rejected(self):
        st = state3()
        with pytest.raises(ValueError, match="hosts shards"):
            st.set_offline(0)

    def test_offline_cannot_be_unblocked(self):
        st = state3()
        st.move(2, 0)
        st.set_offline(2)
        with pytest.raises(ValueError, match="offline"):
            st.unblock_machine(2)

    def test_copy_preserves_offline(self):
        st = state3()
        st.move(2, 0)
        st.set_offline(2)
        assert st.copy().offline_mask[2]


class TestMiscStateApi:
    def test_assignment_view_is_live(self):
        st = state3()
        view = st.assignment_view()
        st.move(0, 1)
        assert view[0] == 1  # same underlying array

    def test_repr_mentions_sizes(self):
        text = repr(state3())
        assert "m=3" in text and "n=3" in text


class TestValidate:
    def test_clean_state_passes(self):
        st = state3()
        st.validate()

    def test_corrupted_loads_detected(self):
        st = state3()
        st._loads_t[0, 0] += 1.0  # corrupt the private array
        with pytest.raises(ValueError, match="diverged"):
            st.validate()

    def test_detached_loads_view_detected(self):
        st = state3()
        st._loads_view = st.loads.copy()  # no longer the load array's transpose
        st._loads_view.flags.writeable = False
        with pytest.raises(ValueError, match="alias"):
            st.validate()

    def test_blocked_with_shards_detected(self):
        st = state3()
        st.move(2, 0)
        st.block_machine(2)
        # Force a shard onto the blocked machine behind the API's back.
        st.unblock_machine(2)
        st.move(0, 2)
        st._blocked[2] = True
        with pytest.raises(ValueError, match="blocked machines host"):
            st.validate()

    def test_offline_without_block_detected(self):
        st = state3()
        st.move(2, 0)
        st.set_offline(2)
        st._blocked[2] = False  # corrupt
        with pytest.raises(ValueError, match="offline"):
            st.validate()

    def test_survives_mutation_sequence(self):
        st = state3()
        st.move(0, 1)
        st.unassign(1)
        st.assign_shard(1, 2)
        st.validate()
