"""Bitwise-parity properties of the SoA score kernel (hypothesis).

Two contracts pin the vectorized repair kernel (see the "Delta
evaluation contract" in docs/ARCHITECTURE.md):

* The delta-evaluated engine — SoA score kernel, snapshot transactions,
  cache-backed objective (``CheckedObjective`` asserting every term
  against the from-scratch oracle) — walks the exact trajectory of the
  copy-based reference loop (``tests/oracles/copy_engine.py``), which
  scores with the oracle alone.
* ``greedy_best_fit`` places every shard where the per-machine rescan
  of ``tests/oracles/greedy.py`` does, bit for bit, on heterogeneous,
  replicated, blocked and offline fleets.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms import AlnsConfig, AlnsEngine, Objective
from repro.algorithms.destroy import DEFAULT_DESTROY_OPS
from repro.algorithms.repair import DEFAULT_REPAIR_OPS, greedy_best_fit
from repro.cluster import ClusterState, Machine, Shard
from repro.workloads import SyntheticConfig, generate, scaling_suite
from tests.oracles.copy_engine import run_copy_engine
from tests.oracles.fleet import degraded_fleets
from tests.oracles.greedy import greedy_exact
from tests.oracles.objective import CheckedObjective, ReferenceObjective


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


def assert_greedy_matches_oracle(state, removed):
    """Repair *removed* with the operator and the oracle on copies of
    *state*; placements must be bitwise equal and the operator's end
    state must validate."""
    got, want = state.copy(), state.copy()
    greedy_best_fit(got, np.random.default_rng(0), removed)
    greedy_exact(want, removed)
    assert got.assignment.tobytes() == want.assignment.tobytes()
    got.validate()


@given(degraded_fleets(), st.data())
@settings(max_examples=60, deadline=None)
def test_property_greedy_equals_oracle_on_degraded_fleets(fleet, data):
    """Heterogeneous capacities, replicas (siblings possibly co-located),
    lent machines, blocked and offline machines: the shards left
    unassigned plus a drawn subset of the placed ones are repaired in a
    drawn order."""
    parent, extra = fleet
    state = parent.with_extra_machines(extra)
    assume(not state.blocked_mask.all())
    placed = np.flatnonzero(state.assignment_view() >= 0).tolist()
    if placed:
        state.unassign_many(data.draw(st.lists(st.sampled_from(placed), unique=True)))
    pending = np.flatnonzero(state.assignment_view() < 0).tolist()
    assert_greedy_matches_oracle(state, data.draw(st.permutations(pending)))


@given(
    seed=st.integers(min_value=0, max_value=1000),
    m=st.integers(min_value=4, max_value=60),
    q=st.integers(min_value=2, max_value=90),
    hetero=st.booleans(),
    replicas=st.booleans(),
    blocked=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_property_greedy_equals_oracle_on_repair_batches(seed, m, q, hetero, replicas, blocked):
    """Larger fleets than the degraded ones, with uniform and
    non-uniform overflow thresholds and whole replica triples removed."""
    state, removed = repair_batch(
        seed, m, min(q, 5 * m), hetero=hetero, replicas=replicas, blocked=blocked
    )
    assert_greedy_matches_oracle(state, removed)


@pytest.mark.parametrize("m,q", [(40, 30), (1, 3)], ids=["homogeneous", "m1"])
def test_greedy_matches_oracle_on_homogeneous_fleet(m, q):
    """Identical machines and shards: every score ties, so placements
    rest on the first-index tie-breaks alone."""
    n = 4 * m
    shards = [Shard(id=j, demand=np.full(3, 1.0)) for j in range(n)]
    state = ClusterState(Machine.homogeneous(m, 10.0), shards, [j % m for j in range(n)])
    removed = list(range(q))
    state.unassign_many(removed)
    assert_greedy_matches_oracle(state, removed)
