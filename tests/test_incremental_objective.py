"""The cache-backed Objective must agree with the from-scratch oracle bitwise.

The delta-evaluated engine only works because ``Objective.components``,
which reads the state's incremental caches, produces the exact float the
from-scratch recompute (``tests/oracles/objective.py``) produces — same
IEEE operations in the same order.  These tests compare every term with
``==`` (not approx) across feasible, overloaded, vacancy-short,
replica-conflicted, thousand-machine, blocked, offline and rolled-back
states, and pin that the delta-evaluated engine walks the same
trajectory as the copy-based reference loop
(``tests/oracles/copy_engine.py``) scoring with the oracle.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.destroy import DEFAULT_DESTROY_OPS
from repro.algorithms.lns import AlnsConfig, AlnsEngine
from repro.algorithms.objective import Objective
from repro.algorithms.repair import DEFAULT_REPAIR_OPS
from repro.workloads.replicated import ReplicatedConfig, generate_replicated
from repro.workloads.synthetic import SyntheticConfig, generate
from tests.oracles.copy_engine import run_copy_engine
from tests.oracles.objective import CheckedObjective, ReferenceObjective, reference_components


def synthetic_state(seed=0, m=8, spm=5, util=0.8):
    return generate(
        SyntheticConfig(
            num_machines=m,
            shards_per_machine=spm,
            target_utilization=util,
            seed=seed,
        )
    )


@functools.lru_cache(maxsize=None)
def _large_state(seed):
    # m = 1030: the peak can sit on machines more than a thousand ids apart.
    return synthetic_state(seed=seed, m=1030, spm=3)


def large_state(seed):
    return _large_state(seed).copy()


def replicated_state(seed=2):
    return generate_replicated(
        ReplicatedConfig(
            base=SyntheticConfig(num_machines=8, shards_per_machine=4, seed=seed),
            replication_factor=2,
        )
    )


def assert_components_bitwise(state, *, required_returns=0, a0=None):
    objective = Objective(
        state.assignment if a0 is None else a0, state.sizes, required_returns=required_returns
    )
    got = objective.components(state)
    want = reference_components(objective, state)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], (key, got[key], want[key])
    assert objective(state) == want["value"]


class TestBitwiseAgreement:
    def test_initial_state(self):
        assert_components_bitwise(synthetic_state())

    def test_after_moves(self):
        state = synthetic_state(seed=3)
        rng = np.random.default_rng(0)
        for _ in range(25):
            j = int(rng.integers(state.num_shards))
            state.move(j, int(rng.integers(state.num_machines)))
        assert_components_bitwise(state)

    def test_overloaded_state(self):
        state = synthetic_state(seed=1)
        # Pile everything on machine 0: overload term becomes non-zero.
        for j in range(state.num_shards):
            state.move(j, 0)
        base = Objective(state.assignment, state.sizes)
        assert base.components(state)["overload"] > 0.0
        assert_components_bitwise(state)

    def test_vacancy_shortfall(self):
        state = synthetic_state(seed=2)
        assert_components_bitwise(state, required_returns=3)

    def test_replica_conflicts(self):
        state = replicated_state()
        # Force colocated replicas so the conflict term is exercised.
        groups = state.replica_groups
        first = next(iter(groups.values()))
        target = int(state.machine_of(int(first[0])))
        for j in first[1:]:
            state.move(int(j), target)
        base = Objective(state.assignment, state.sizes)
        assert base.components(state)["replica_conflicts"] > 0.0
        assert_components_bitwise(state)

    def test_inside_transaction(self):
        state = synthetic_state(seed=5)
        state.begin()
        rng = np.random.default_rng(1)
        for _ in range(10):
            state.move(int(rng.integers(state.num_shards)), int(rng.integers(state.num_machines)))
        assert_components_bitwise(state)
        state.rollback()
        assert_components_bitwise(state)

    @given(seed=st.integers(0, 40), moves=st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_random_states_agree(self, seed, moves):
        state = synthetic_state(seed=seed % 7)
        rng = np.random.default_rng(seed)
        for _ in range(moves):
            j = int(rng.integers(state.num_shards))
            state.move(j, int(rng.integers(state.num_machines)))
        assert_components_bitwise(state, required_returns=seed % 3)

    def test_cross_check_flag_passes_on_consistent_state(self):
        state = synthetic_state()
        checked = CheckedObjective(state.assignment, state.sizes)
        state.begin()
        state.move(0, (state.machine_of(0) + 1) % state.num_machines)
        checked(state)  # would raise AssertionError on any divergence
        state.rollback()
        checked(state)

    def test_checked_objective_catches_a_stale_cache(self):
        state = synthetic_state(seed=8)
        for j in state.machine_shards(0).tolist():
            state.move(int(j), 1)
        checked = CheckedObjective(state.assignment, state.sizes, required_returns=2)
        checked(state)
        state._num_vacant -= 1  # a vacancy counter out of step with the assignment
        with pytest.raises(AssertionError, match="diverged from the oracle"):
            checked(state)


class TestOracleProperty:
    """Cached terms equal the oracle where the caches are hardest to keep."""

    @given(seed=st.integers(0, 1000), moves=st.integers(1, 60))
    @settings(max_examples=15, deadline=None)
    def test_multi_block_peak(self, seed, moves):
        state = large_state(seed % 5)
        a0 = state.assignment
        rng = np.random.default_rng(seed)
        for _ in range(moves):
            j = int(rng.integers(state.num_shards))
            state.move(j, int(rng.integers(state.num_machines)))
        assert_components_bitwise(state, required_returns=seed % 3, a0=a0)
        # Overload machines at both ends of the fleet so the peak moves
        # between them.
        for hot in (3, 1027):
            for j in rng.choice(state.num_shards, size=12, replace=False).tolist():
                state.move(int(j), hot)
            assert_components_bitwise(state, required_returns=1, a0=a0)

    @given(seed=st.integers(0, 200), designees=st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_blocked_designees(self, seed, designees):
        state = synthetic_state(seed=seed % 7, m=10, spm=4)
        a0 = state.assignment
        rng = np.random.default_rng(seed)
        for mach in range(designees):
            for j in state.machine_shards(mach).tolist():
                state.move(int(j), int(rng.integers(designees, state.num_machines)))
            state.block_machine(mach)
        assert_components_bitwise(state, required_returns=designees + 1, a0=a0)
        state.begin()
        for _ in range(8):
            j = int(rng.integers(state.num_shards))
            state.move(j, int(rng.integers(designees, state.num_machines)))
        assert_components_bitwise(state, required_returns=designees, a0=a0)
        state.rollback()
        assert_components_bitwise(state, required_returns=designees, a0=a0)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_drained_offline_machine(self, seed):
        state = synthetic_state(seed=seed % 7, m=10, spm=4)
        a0 = state.assignment
        rng = np.random.default_rng(seed)
        dead = int(rng.integers(state.num_machines))
        for j in state.machine_shards(dead).tolist():
            state.move(int(j), (dead + 1 + int(rng.integers(state.num_machines - 1)))
                       % state.num_machines)
        state.set_offline(dead)
        # The offline machine is vacant but owes no vacancy.
        assert_components_bitwise(state, required_returns=2, a0=a0)
        for _ in range(10):
            j = int(rng.integers(state.num_shards))
            dst = int(rng.integers(state.num_machines))
            if dst != dead:
                state.move(j, dst)
        assert_components_bitwise(state, required_returns=2, a0=a0)

    @given(seed=st.integers(0, 500), moves=st.integers(1, 40), big=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_after_rollback(self, seed, moves, big):
        state = large_state(seed % 5) if big else replicated_state(seed=seed % 5)
        a0 = state.assignment
        rng = np.random.default_rng(seed)
        state.begin()
        for _ in range(moves):
            j = int(rng.integers(state.num_shards))
            state.move(j, int(rng.integers(state.num_machines)))
        assert_components_bitwise(state, required_returns=1, a0=a0)
        state.rollback()
        assert_components_bitwise(state, required_returns=1, a0=a0)
        assert np.array_equal(state.assignment_view(), a0)


class TestDeltaEngineTrajectory:
    @pytest.mark.parametrize("replicated", [False, True])
    def test_delta_engine_matches_legacy(self, replicated):
        state = replicated_state(seed=3) if replicated else synthetic_state(seed=4, m=10, spm=6)
        cfg = AlnsConfig(iterations=120, seed=1)
        d = AlnsEngine(cfg, DEFAULT_DESTROY_OPS, DEFAULT_REPAIR_OPS).run(
            state.copy(), Objective(state.assignment, state.sizes)
        )
        leg = run_copy_engine(
            cfg, DEFAULT_DESTROY_OPS, DEFAULT_REPAIR_OPS, state,
            ReferenceObjective(state.assignment, state.sizes),
        )
        assert repr(d.best_objective) == repr(leg.best_objective)
        assert d.accepted == leg.accepted
        assert d.history == leg.history
        assert np.array_equal(d.best_assignment, leg.best_assignment)

    def test_delta_engine_with_cross_check(self):
        state = synthetic_state(seed=6)
        engine = AlnsEngine(
            AlnsConfig(iterations=60, seed=2),
            DEFAULT_DESTROY_OPS,
            DEFAULT_REPAIR_OPS,
        )
        # CheckedObjective recomputes every evaluation from scratch and
        # raises on any divergence, so a clean run is the assertion.
        out = engine.run(state.copy(), CheckedObjective(state.assignment, state.sizes))
        assert out.iterations == 60
