"""Test oracle: growing and settling a fleet through the constructor.

``ClusterState.with_extra_machines`` and ``ClusterState.without_machines``
(under ``settle_fleet``) build the new state from the old one's arrays.
The reference they must match is the constructor, fed the new fleet's
machine descriptions and assignment, with the carried blocked and
offline masks applied afterwards through ``set_offline`` and
``block_machine``.  :func:`assert_same_state` compares every array and
cache bitwise.  :func:`degraded_fleets` draws the inputs: heterogeneous
fleets with replicas, exchange, blocked and offline machines, partial
assignments, and a parent whose loads were kept up by moves.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.cluster import UNASSIGNED, ClusterState, Machine, Shard

_ARRAYS = (
    "_capacity",
    "_demand",
    "_sizes",
    "_exchange_mask",
    "_assign",
    "_loads_t",
    "_counts",
    "_peak",
    "_peak_dirty",
    "_blocked",
    "_offline",
    "_replica_of",
)
_SCALARS = (
    "_num_unassigned",
    "_num_vacant",
    "_peak_any_dirty",
    "_replica_conflicts",
)


def constructed(machines, shards, assignment, blocked, offline) -> ClusterState:
    """The constructor's state, with the *blocked* and *offline* masks
    applied through the public mutators."""
    state = ClusterState(machines, shards, assignment)
    for i in np.flatnonzero(offline).tolist():
        state.set_offline(i)
    for i in np.flatnonzero(blocked & ~offline).tolist():
        state.block_machine(i)
    return state


def grown_oracle(state: ClusterState, extra) -> ClusterState:
    """``state.with_extra_machines(extra)`` through the constructor."""
    m = state.num_machines
    machines = list(state.machines) + [mach.with_id(m + k) for k, mach in enumerate(extra)]
    closed = np.zeros(len(extra), dtype=bool)
    return constructed(
        machines,
        state.shards,
        state.assignment,
        np.concatenate([state.blocked_mask, closed]),
        np.concatenate([state.offline_mask, closed]),
    )


def settled_oracle(state: ClusterState, returned) -> ClusterState:
    """``state.without_machines(returned)`` through a per-shard remap and
    the constructor."""
    gone = set(int(r) for r in returned)
    keep = [i for i in range(state.num_machines) if i not in gone]
    remap = {old: new for new, old in enumerate(keep)}
    remap[UNASSIGNED] = UNASSIGNED
    return constructed(
        [state.machines[old].with_id(remap[old]) for old in keep],
        state.shards,
        [remap[int(a)] for a in state.assignment_view()],
        state.blocked_mask[keep],
        state.offline_mask[keep],
    )


def _same_array(got: np.ndarray, want: np.ndarray, name: str) -> None:
    assert got.dtype == want.dtype, (name, got.dtype, want.dtype)
    assert got.shape == want.shape, (name, got.shape, want.shape)
    assert got.tobytes() == want.tobytes(), (name, got, want)


def assert_same_state(got: ClusterState, want: ClusterState) -> None:
    """Every description, array and cache of *got* equals *want*'s
    bitwise, and *got* passes ``validate()``."""
    for name in _ARRAYS:
        _same_array(getattr(got, name), getattr(want, name), name)
    for name in _SCALARS:
        assert getattr(got, name) == getattr(want, name), name
    assert got.loads_by_dim().flags["C_CONTIGUOUS"]
    for name in ("capacity_by_dim", "inv_capacity_by_dim", "normalized_demand"):
        _same_array(getattr(got, name)(), getattr(want, name)(), name)
    assert got.schema == want.schema
    assert len(got.shards) == len(want.shards)
    assert all(a is b for a, b in zip(got.shards, want.shards, strict=True))
    assert len(got.machines) == len(want.machines)
    for a, b in zip(got.machines, want.machines, strict=True):
        assert (a.id, a.schema, a.cls, a.exchange) == (b.id, b.schema, b.cls, b.exchange)
        _same_array(a.capacity, b.capacity, f"machine {a.id} capacity")
    assert sorted(got.replica_groups) == sorted(want.replica_groups)
    for g, members in want.replica_groups.items():
        _same_array(got.replica_groups[g], members, f"replica group {g}")
    assert got._replica_hosts == want._replica_hosts
    assert got.replica_conflicts() == want.replica_conflicts()
    assert got.peak_utilization() == want.peak_utilization()
    assert not got.in_transaction
    got.validate()


def _machine(draw, k: int) -> Machine:
    caps = draw(st.lists(st.sampled_from([40.0, 100.0, 250.0]), min_size=3, max_size=3))
    return Machine(
        id=k,
        capacity=np.array(caps),
        cls=draw(st.sampled_from(["default", "big"])),
        exchange=draw(st.booleans()),
    )


@st.composite
def degraded_fleets(draw):
    """A parent state and the machines lent to it.

    Offline and blocked machines are vacant; the others host a partial
    assignment, replicas included (sibling co-location allowed, so the
    conflict cache is exercised), and then a run of moves and
    unassignments updates the parent's loads incrementally.
    """
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, 24))
    machines = [_machine(draw, k) for k in range(m)]
    offline = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    blocked = offline | np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    open_ids = np.flatnonzero(~blocked).tolist()
    replicated = draw(st.booleans())
    level = st.sampled_from([0.0, 0.5, 3.0, 7.25, 11.0])
    shards = [
        Shard(
            id=j,
            # A shard demands something in its first dimension at least.
            demand=np.array([draw(level) or 0.5, draw(level), draw(level)]),
            size_bytes=draw(st.sampled_from([1.0, 2.5e6])),
            replica_of=j // 2 if replicated else -1,
        )
        for j in range(n)
    ]
    host = st.sampled_from([UNASSIGNED, *open_ids]) if open_ids else st.just(UNASSIGNED)
    assignment = [draw(host) for _ in range(n)]
    parent = constructed(machines, shards, assignment, blocked, offline)
    if open_ids:
        moves = st.tuples(st.integers(0, n - 1), st.sampled_from([UNASSIGNED, *open_ids]))
        for shard, dst in draw(st.lists(moves, max_size=12)):
            if dst == UNASSIGNED:
                parent.unassign(shard)
            else:
                parent.move(shard, dst)
            if draw(st.booleans()):
                parent.peak_utilization()  # leave some peak rows clean
    extra = [_machine(draw, 0) for _ in range(draw(st.integers(0, 3)))]
    return parent, extra
