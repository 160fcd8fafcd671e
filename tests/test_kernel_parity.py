"""Bitwise-parity properties of the SoA score kernel (hypothesis).

Two contracts pin the vectorized repair kernel (see the "Delta
evaluation contract" in docs/ARCHITECTURE.md):

* The delta-evaluated engine — SoA score kernel, snapshot transactions,
  cache-backed objective (``CheckedObjective`` asserting every term
  against the from-scratch oracle) — walks the exact trajectory of the
  copy-based reference loop (``tests/oracles/copy_engine.py``), which
  scores with the oracle alone.
* Regret-2 on per-row top-``T`` candidate lists produces bitwise the
  placements of the full-repartition oracle (``tests/oracles/regret2.py``)
  on arbitrary instances, at machine counts below, at and above ``T``.
* Independently of that oracle (which shares the kernel), the score
  rows regret-2 maintains column by column equal a fresh kernel build
  after every insertion, also after inserted rows are dropped.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import AlnsConfig, AlnsEngine, Objective
from repro.algorithms.destroy import DEFAULT_DESTROY_OPS
from repro.algorithms.repair import _TOP_T, DEFAULT_REPAIR_OPS, _ScoreKernel, regret2_insertion
from repro.cluster import UNASSIGNED, ClusterState, Machine, Shard
from repro.workloads import SyntheticConfig, generate, scaling_suite
from tests.oracles.copy_engine import run_copy_engine
from tests.oracles.objective import CheckedObjective, ReferenceObjective
from tests.oracles.regret2 import regret2_exact


@given(seed=st.integers(min_value=0, max_value=500), m=st.integers(min_value=8, max_value=50))
@settings(max_examples=12, deadline=None)
def test_property_delta_engine_bitwise_equals_copy_engine(seed, m):
    """SoA-kernel trajectories are bitwise those of the copy-based engine.

    The delta run scores with ``CheckedObjective``, so every objective
    evaluation along the trajectory is additionally asserted term-by-term
    against a full recompute — the strongest form of the contract.
    """
    state = generate(SyntheticConfig(num_machines=m, shards_per_machine=4, seed=seed))
    cfg = AlnsConfig(iterations=60, seed=seed)
    d = AlnsEngine(cfg, DEFAULT_DESTROY_OPS, DEFAULT_REPAIR_OPS).run(
        state.copy(), CheckedObjective(state.assignment, state.sizes)
    )
    c = run_copy_engine(
        cfg, DEFAULT_DESTROY_OPS, DEFAULT_REPAIR_OPS, state,
        ReferenceObjective(state.assignment, state.sizes),
    )
    assert repr(d.best_objective) == repr(c.best_objective)
    assert d.accepted == c.accepted
    assert d.history == c.history
    np.testing.assert_array_equal(d.best_assignment, c.best_assignment)


@pytest.mark.parametrize(
    "m,iterations", [(20, 400), (50, 300)], ids=["scale-m20-n120", "scale-m50-n300"]
)
def test_engine_equals_copy_oracle_on_scale_instances(m, iterations):
    """Longer runs on the E6 scaling instances: enough iterations for
    several weight segments and many accepted/rejected candidates."""
    ((_, state),) = list(scaling_suite(sizes=((m, 6),)))
    cfg = AlnsConfig(iterations=iterations, seed=1)
    d = AlnsEngine(cfg, DEFAULT_DESTROY_OPS, DEFAULT_REPAIR_OPS).run(
        state.copy(), Objective(state.assignment, state.sizes)
    )
    c = run_copy_engine(
        cfg, DEFAULT_DESTROY_OPS, DEFAULT_REPAIR_OPS, state,
        ReferenceObjective(state.assignment, state.sizes),
    )
    assert repr(d.best_objective) == repr(c.best_objective)
    assert d.accepted == c.accepted
    assert d.history == c.history
    np.testing.assert_array_equal(d.best_assignment, c.best_assignment)


def assert_regret2_matches_oracle(state, removed):
    """Repair *removed* with both paths on copies of *state*; placements
    must be bitwise equal and both end states must validate."""
    exact_state, list_state = state.copy(), state.copy()
    regret2_exact(exact_state, removed)
    regret2_insertion(list_state, np.random.default_rng(0), removed)
    np.testing.assert_array_equal(exact_state.assignment, list_state.assignment)
    # Both end states satisfy every cache invariant (loads, peaks,
    # counts, replica hosts).
    exact_state.validate()
    list_state.validate()


@given(
    seed=st.integers(min_value=0, max_value=1000),
    m=st.integers(min_value=1, max_value=160),
    q=st.integers(min_value=2, max_value=100),
)
@settings(max_examples=25, deadline=None)
def test_property_pruned_regret_bitwise_equals_exact(seed, m, q):
    """Top-list regret-2 == exact full-repartition regret-2, for m on
    both sides of ``_TOP_T`` and batches long enough to exhaust lists."""
    state = generate(SyntheticConfig(num_machines=m, shards_per_machine=4, seed=seed))
    rng = np.random.default_rng(seed)
    assigned = np.flatnonzero(state.assignment_view() >= 0)
    take = min(q, assigned.size)
    removed = rng.choice(assigned, size=take, replace=False).tolist()
    state.unassign_many(removed)
    assert_regret2_matches_oracle(state, removed)


@pytest.mark.parametrize(
    "m,q", [(40, 30), (1, 3), (_TOP_T, 20)], ids=["homogeneous", "m1", "m-equals-T"]
)
def test_regret2_matches_oracle_on_homogeneous_fleet(m, q):
    """Identical machines and shards: every score ties, so placements
    rest on the first-index tie-breaks alone."""
    n = 4 * m
    shards = [Shard(id=j, demand=np.full(3, 1.0)) for j in range(n)]
    state = ClusterState(Machine.homogeneous(m, 10.0), shards, [j % m for j in range(n)])
    removed = list(range(q))
    state.unassign_many(removed)
    assert_regret2_matches_oracle(state, removed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_regret2_matches_oracle_after_lists_are_exhausted(seed):
    """More insertions than a list holds: rows must be re-listed from
    the full score row once their lists can no longer prove their two
    minima."""
    state = generate(SyntheticConfig(num_machines=48, shards_per_machine=5, seed=seed))
    removed = np.random.default_rng(seed).choice(state.num_shards, 150, replace=False)
    state.unassign_many(removed.tolist())
    assert_regret2_matches_oracle(state, removed.tolist())


def repair_batch(seed, m, q, *, hetero, replicas, blocked):
    """A loaded fleet of *m* machines, five shards each, with *q* shards
    removed in random order.

    With *hetero*, capacities differ per machine and per dimension, so
    overflow thresholds are not uniform.  With *replicas*, shards
    ``3g, 3g + 1, 3g + 2`` are replicas of group ``g`` on distinct
    machines, and the removed shards are the first *q*, so siblings
    are removed together.  With *blocked*, the last machine is vacant
    and blocked.
    """
    rng = np.random.default_rng(seed)
    caps = rng.choice([60.0, 100.0, 140.0], size=(m, 3)) if hetero else np.full((m, 3), 100.0)
    open_machines = m - 1 if blocked else m
    n = 5 * m
    shards = [
        Shard(id=j, demand=rng.uniform(2.0, 30.0, size=3), replica_of=j // 3 if replicas else -1)
        for j in range(n)
    ]
    machines = [Machine(id=i, capacity=caps[i]) for i in range(m)]
    state = ClusterState(machines, shards, [j % open_machines for j in range(n)])
    if blocked:
        state.block_machine(m - 1)
    removed = rng.permutation(q).tolist()
    state.unassign_many(removed)
    return state, removed


def maintained_rows_per_step(state, removed):
    """Run regret-2 on *state*; before each selection, compare the score
    rows of the shards still pending with a fresh kernel build on the
    current state, bit for bit.  Returns ``(held, pending_siblings)``
    per step: the rows the kernel holds, and whether a held row has a
    replica sibling already inserted in this batch."""
    steps = []
    best_machine = _ScoreKernel.best_machine
    batch = np.asarray(removed)

    def checked(kern, row):
        assign = state.assignment_view()
        live = assign[kern.shards] == UNASSIGNED
        fresh = _ScoreKernel(state, kern.shards[live])
        assert kern.scores[live].tobytes() == fresh.scores.tobytes()
        placed = batch[assign[batch] != UNASSIGNED]
        groups = {state.shards[int(j)].replica_of for j in placed} - {-1}
        steps.append((kern.q, any(g in groups for g in kern.group_rows)))
        return best_machine(kern, row)

    with mock.patch.object(_ScoreKernel, "best_machine", checked):
        regret2_insertion(state, np.random.default_rng(0), removed)
    return steps


@given(
    seed=st.integers(min_value=0, max_value=1000),
    m=st.integers(min_value=4, max_value=60),
    q=st.integers(min_value=2, max_value=90),
    hetero=st.booleans(),
    replicas=st.booleans(),
    blocked=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_property_maintained_scores_equal_fresh_build(seed, m, q, hetero, replicas, blocked):
    """Column refreshes, strikes and row drops keep every pending row
    bitwise equal to a from-scratch ``_ScoreKernel`` build."""
    state, removed = repair_batch(
        seed, m, min(q, 5 * m), hetero=hetero, replicas=replicas, blocked=blocked
    )
    held = [size for size, _ in maintained_rows_per_step(state, removed)]
    assert len(held) == len(removed)
    # Rows are dropped once half of them are inserted.
    assert held[-1] < len(removed)
    state.validate()


@pytest.mark.parametrize("hetero", [False, True], ids=["uniform-thr", "nonuniform-thr"])
def test_maintained_scores_after_drops_with_pending_siblings(hetero):
    """q = 60 of 100 shards in replica triples, one machine blocked: rows
    are dropped while siblings of inserted shards are still pending, so
    the strike ledger is renumbered with live entries in it."""
    state, removed = repair_batch(7, 20, 60, hetero=hetero, replicas=True, blocked=True)
    steps = maintained_rows_per_step(state, removed)
    assert any(size < 60 and pending for size, pending in steps)
    assert not state.has_replica_conflicts()
